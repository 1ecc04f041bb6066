// Periodic measurement rounds under a fixed storage budget.
//
// A 300-peer DHT archives one snapshot of tiered metrics per epoch. The
// network can hold 480 coded blocks total, peers churn between epochs,
// and the exponential-decay retention policy makes snapshots age
// gracefully: as a round's storage share shrinks it gives up raw samples
// first, then aggregates, keeping alarms decodable the longest.
//
// Build & run:  cmake --build build && ./build/examples/timeline_rounds
#include <iostream>

#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/timeline.h"
#include "util/table_printer.h"

using namespace prlc;

int main() {
  const codes::PrioritySpec spec({8, 16, 36});  // 60 metric blocks per round
  const codes::PriorityDistribution dist({0.4, 0.3, 0.3});

  net::ChordParams ring;
  ring.nodes = 300;
  ring.locations = 480;  // the total storage budget
  ring.seed = 99;
  net::ChordNetwork overlay(ring);

  proto::TimelineParams params;
  params.block_size = 16;
  params.window = 5;
  params.policy = proto::RetentionPolicy::kExponentialDecay;
  proto::TimelineStore store(overlay, spec, dist, params);

  Rng rng(909);
  std::cout << "ingesting 8 measurement rounds (12% of peers churn per epoch,\n"
               "half of departed peers return empty)...\n\n";
  for (int round = 0; round < 8; ++round) {
    const auto snap =
        codes::SourceData<proto::Field>::random(spec.total(), params.block_size, rng);
    const auto stats = store.ingest(snap, rng);
    net::apply_session_churn(overlay, 0.12, 0.5, rng);
    if (round == 0 || round == 7) {
      std::cout << "round " << stats.round_id << ": " << stats.locations_assigned
                << " locations assigned (" << stats.locations_recycled
                << " recycled from older rounds, " << stats.rounds_evicted << " evicted)\n";
    }
  }

  TablePrinter table({"round", "age", "storage share", "blocks retrievable",
                      "alarms?", "aggregates?", "raw samples?"});
  bool alarms_kept = true;
  for (std::size_t id : store.retained_rounds()) {
    const auto q = store.query(id, rng);
    if (!q.has_value()) continue;
    alarms_kept = alarms_kept && q->decoded_levels >= 1;
    table.add_row({std::to_string(q->round_id), std::to_string(q->age),
                   std::to_string(q->locations_allotted),
                   std::to_string(q->blocks_retrievable),
                   q->decoded_levels >= 1 ? "yes" : "lost",
                   q->decoded_levels >= 2 ? "yes" : "lost",
                   q->decoded_levels >= 3 ? "yes" : "lost"});
  }
  std::cout << "\n" << table.to_text();
  if (!alarms_kept) {
    std::cout << "\nALARMS LOST: a retained round no longer decodes its alarm tier.\n";
    return 1;
  }
  std::cout << "\nGraceful aging: old rounds lose detail tiers first, never the\n"
               "alarms — and rounds older than the window are gone by design.\n";
  return 0;
}
