// Building blocks of perf_pipeline, the repository's end-to-end benchmark
// (see README.md): the workloads, one op of each, the correctness checks
// and the tail rule. perf_pipeline.cpp drives them and writes the report.
//
// Everything here reaches the library through its public entry points
// only, and every input comes from the run's --seed: op i of a run draws
// from its own stream (op_seed), so what it does never depends on how
// many ops ran before it or on the clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "codes/source_data.h"
#include "net/chord_network.h"
#include "net/fault_model.h"
#include "proto/collector.h"
#include "proto/fault_channel.h"
#include "proto/predistribution.h"
#include "sim/cluster_sim.h"
#include "util/gf64_fingerprint.h"

namespace prlc::bench::pipeline {

using Field = proto::Field;

enum class Workload { kSmallObjects, kLargeObjects, kFaultyL1, kClusterLifetime };

inline constexpr Workload kWorkloads[] = {Workload::kSmallObjects, Workload::kLargeObjects,
                                          Workload::kFaultyL1, Workload::kClusterLifetime};

const char* to_string(Workload workload);
std::optional<Workload> try_workload_from_string(std::string_view name);

/// An object workload: one PLC object stored on a Chord ring, churned,
/// then read back over a FaultyChannel with a fingerprint manifest.
struct ObjectShape {
  std::size_t levels = 4;
  std::size_t per_level = 16;    ///< N = levels * per_level source blocks
  std::size_t block_size = 1024;
  std::size_t nodes = 256;       ///< W
  std::size_t locations = 128;   ///< M stored coded blocks
  double churn = 0.3;            ///< fraction of nodes killed between store and read
  net::FaultSpec faults;         ///< default: a fault-free (null-plan) channel
  std::size_t target_levels = 4; ///< the read stops once this many levels decode
  std::size_t pool = 4;          ///< distinct source objects, stored round-robin
};

struct WorkloadSpec {
  Workload workload = Workload::kSmallObjects;
  std::size_t full_ops = 0;    ///< op count of a full fixed-count run
  std::size_t warmup_ops = 0;  ///< untimed ops run in set-up (5% of full_ops)
  ObjectShape object;          ///< the object workloads
  sim::ClusterParams cluster;  ///< cluster_lifetime

  bool is_object() const { return workload != Workload::kClusterLifetime; }
};

WorkloadSpec workload_spec(Workload workload);

/// Seed of op `index` in a run seeded with `seed`.
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index);

/// The deployment object ops reuse: the ring, the predistribution over it
/// and the pool of source objects, all drawn from `seed`.
class ObjectFixture {
 public:
  ObjectFixture(const ObjectShape& shape, std::uint64_t seed);
  ObjectFixture(const ObjectFixture&) = delete;
  ObjectFixture& operator=(const ObjectFixture&) = delete;

  const ObjectShape& shape() const { return shape_; }
  net::ChordNetwork& overlay() { return overlay_; }
  proto::Predistribution& predist() { return predist_; }
  const proto::Predistribution& predist() const { return predist_; }
  std::size_t pool() const { return sources_.size(); }
  const codes::SourceData<Field>& source(std::size_t i) const { return sources_[i]; }
  /// Source object `i` as one byte string (its blocks back to back).
  std::span<const std::uint8_t> source_bytes(std::size_t i) const { return flat_[i]; }

 private:
  ObjectShape shape_;
  net::ChordNetwork overlay_;
  proto::Predistribution predist_;
  std::vector<codes::SourceData<Field>> sources_;
  std::vector<std::vector<std::uint8_t>> flat_;
};

/// What one lifecycle returned, and the host time of each timed step.
struct LifecycleSample {
  double store_us = 0;  ///< disseminate + build_manifest
  double churn_us = 0;  ///< kill_uniform_fraction
  double read_us = 0;   ///< channel + decoder construction and collect()
  std::size_t source = 0;  ///< pool index of the stored object
  proto::DisseminationStats store;
  std::size_t axpy_bytes = 0;
  util::FingerprintManifest manifest;
  proto::CollectionOutcome read;
  proto::InjectedFaults injected;  ///< what the channel injected during the read
  std::vector<std::uint8_t> decoded;  ///< decoded leading source blocks, back to back

  double op_us() const { return store_us + churn_us + read_us; }
};

/// One lifecycle of op `index`: revive every node, store pool object
/// index % pool (disseminate, build_manifest), churn, read with collect()
/// until shape().target_levels decode, and copy out the decoded bytes.
/// `traced` puts each call under an obs::ScopedSpan and asks collect()
/// for its fetch log (replay_read needs it).
LifecycleSample run_lifecycle(ObjectFixture& fx, std::uint64_t seed, std::uint64_t index,
                              bool traced);

/// Sum over stored blocks of arrivals x block size: the axpy bytes one
/// dissemination does, its ideal work.
std::size_t axpy_bytes(const proto::Predistribution& predist);

/// Whether every decoded byte equals the source and the collector flagged
/// exactly the silent faults (bit rot, Byzantine frames) the channel
/// injected.
bool lifecycle_correct(const ObjectFixture& fx, const LifecycleSample& sample);

/// Bytes each read layer handled in one replay.
struct ReplayBytes {
  double fetch = 0;   ///< frames served by FaultyChannel::fetch
  double wire = 0;    ///< frames parsed by decode_wire_view
  double verify = 0;  ///< payload bytes fingerprinted
  double add = 0;     ///< payload bytes fed to PriorityDecoder::add
};

/// Re-run the per-frame work of a traced lifecycle's read, in its fetch
/// order, one span per call: FaultyChannel::fetch ("fetch"),
/// decode_wire_view ("wire_decode"), Fingerprinter fingerprint + combine
/// ("verify"), PriorityDecoder::add ("decode_add"). Frames are fetched
/// from a fault-free channel over the same churned deployment; frames the
/// collector rejected skip the steps it skipped. Call right after
/// run_lifecycle, before the deployment changes.
ReplayBytes replay_read(const ObjectFixture& fx, const LifecycleSample& sample);

/// One cluster lifetime and its host time. A trial that throws, or whose
/// scrubber claims more detections than rot events, is not ok.
struct TrialSample {
  double us = 0;
  sim::LifetimeOutcome outcome;
  bool ok = false;
};

TrialSample run_trial(const sim::ClusterParams& params, std::uint64_t seed,
                      std::uint64_t index);

/// Ops attempted and failed.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// A latency tail: the highest of the percentiles 50, 75, 90, 95, 99 and
/// 99.9 that has at least 10 samples beyond it, by nearest rank.
struct Tail {
  double percentile = 0;
  double value = 0;
};

/// nullopt when no listed percentile has 10 samples beyond it (n < 20).
std::optional<Tail> tail_of(std::span<const double> samples);

}  // namespace prlc::bench::pipeline
