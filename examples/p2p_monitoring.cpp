// P2P session monitoring over a Chord-style DHT — the paper's second
// motivating scenario (Sec. 1: monitoring live streaming sessions without
// a central logging server, which "may morph into a de facto DDoS").
//
// 250 peers log streaming metrics in three tiers: session-health alerts,
// per-peer rate summaries, and verbose traces. Metrics are priority-coded
// into the overlay itself; peers churn away with exponential lifetimes;
// an operator later dials in and decodes — stopping as soon as the tier
// they care about is complete. The common seed tells the operator which
// locations hold the alert tier, so it fetches those first and pulls
// nothing from the other tiers while the alert tier can still decode.
// Exits 1 when an epoch misses the alert tier or pulls a block outside it.
//
// Build & run:  cmake --build build && ./build/examples/p2p_monitoring
#include <iostream>

#include "codes/decoder.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "proto/predistribution.h"
#include "util/table_printer.h"

using namespace prlc;

int main() {
  // 240 metric blocks: 20 alerts, 60 rate summaries, 160 trace chunks.
  const codes::PrioritySpec spec({20, 60, 160});
  const codes::PriorityDistribution dist({0.3, 0.3, 0.4});

  net::ChordParams ring;
  ring.nodes = 250;
  ring.locations = 480;  // 2x the data volume, spread around the ring
  ring.seed = 77;
  ring.two_choices = true;
  net::ChordNetwork overlay(ring);

  proto::ProtocolParams protocol;
  protocol.scheme = codes::Scheme::kPlc;
  protocol.block_size = 32;
  protocol.sparse = true;

  Rng rng(777);
  const auto metrics =
      codes::SourceData<proto::Field>::random(spec.total(), protocol.block_size, rng);
  proto::Predistribution predist(overlay, spec, dist, protocol);
  const auto stats = predist.disseminate(metrics, rng);
  std::cout << "pre-distributed " << spec.total() << " metric blocks into the DHT: "
            << stats.messages << " lookups, "
            << fmt_double(static_cast<double>(stats.total_hops) /
                              static_cast<double>(stats.messages),
                          2)
            << " hops per lookup (O(log W) fingers)\n\n";

  // Peers churn with memoryless session lengths: mean lifetime 30 min,
  // simulated in three 15-minute epochs.
  TablePrinter table({"epoch", "peers alive", "blocks retrievable",
                      "blocks pulled for alerts", "pulled from other tiers",
                      "alert tier complete?"});
  bool claim_holds = true;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    net::apply_exponential_churn(overlay, 30.0, 15.0, rng);
    // The operator only needs tier 1 (alerts) right now: the collector
    // stops as soon as the decoder's strict-priority prefix covers it.
    codes::PriorityDecoder<proto::Field> decoder(protocol.scheme, spec, protocol.block_size);
    proto::CollectorOptions opt;
    opt.target_levels = 1;
    opt.trace = true;  // the fetch log says which tier each pulled block came from
    const auto outcome = proto::collect(predist, decoder, opt, rng);
    const auto& result = outcome.result;
    std::size_t other_tiers = 0;
    for (const proto::FetchAttempt& a : outcome.fetch_log) {
      if (a.delivered && predist.level_of_location(a.location) != 0) ++other_tiers;
    }
    claim_holds = claim_holds && result.target_met && other_tiers == 0;
    table.add_row({std::to_string(epoch * 15) + " min", std::to_string(overlay.alive_count()),
                   std::to_string(result.surviving_locations),
                   std::to_string(result.blocks_retrieved), std::to_string(other_tiers),
                   result.target_met ? "yes" : "NO"});
  }
  std::cout << table.to_text();
  if (!claim_holds) {
    std::cout << "\nEARLY STOPPING FAILED: an epoch missed the alert tier or pulled\n"
                 "blocks from another tier to read it.\n";
    return 1;
  }
  std::cout << "\nEarly stopping: the operator never pulls the whole archive just to\n"
               "read the alert tier — the progressive decoder tells it when to stop.\n";
  return 0;
}
