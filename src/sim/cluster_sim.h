// Discrete-event cluster simulator with a priority-aware repair
// scheduler — the million-node, continuous-churn complement to the fixed
// churn waves of the persistence experiments.
//
// One trial is one whole cluster lifetime: W nodes (lazily materialized —
// only nodes holding blocks get any per-node storage beyond one byte of
// liveness), M stored coded blocks partitioned over the priority levels,
// a Poisson failure stream of (time, node) deaths over the alive bitmap
// (sim/failure_process.h; none under FailureModelConfig::Kind::kNone), and
// five event kinds on a deterministic (time, seq) queue:
//
//   * failure — the node dies, its blocks are lost, a replacement join is
//     scheduled, and the lost blocks enter the repair scheduler;
//   * join    — the slot comes back alive with empty storage;
//   * repair  — a repair stream finishes re-encoding one lost block onto
//     a random alive, non-quarantined node;
//   * rot     — a stored block silently corrupts (IntegrityConfig): ground
//     truth degrades now, the scheduler doesn't know yet;
//   * scrub   — periodic fingerprint scan: rotten blocks are detected and
//     fed to the repair scheduler, Byzantine hosts are quarantined.
//
// Decodability is evaluated on the count model (analysis/count_model.h):
// at 10^6 nodes no Galois-field work happens — whether the first k levels
// decode is a function of the per-level surviving-block counts alone,
// which is exactly the regime the paper's analysis works in. The
// replication baseline instead tracks per-source-block copy counts.
//
// The repair scheduler is master-style: it watches the per-level
// decodability margin and, under PriorityAware, always spends the next
// free repair stream on the lowest-numbered (highest-priority) level with
// lost blocks; PriorityBlind repairs in plain loss order at the same
// total bandwidth — the ablation pair behind the "priority-aware repair
// extends level-1 time-to-first-loss" claim. A block is only repairable
// while its level is still decodable (re-encoding draws on live data; a
// lost level cannot be re-encoded), so once a level goes under, its
// outstanding repairs are abandoned. That gate is conservative for PLC,
// where a later lower-level repair could in principle revive the prefix.
//
// Trials shard across runtime::TrialRunner with counter-based seeds;
// every number this module reports is bit-identical at any --threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "proto/experiment_config.h"
#include "sim/failure_process.h"

namespace prlc::sim {

enum class RepairPolicy {
  kNone,           ///< no repair: the pure persistence decay baseline
  kPriorityAware,  ///< lowest level (highest priority) first
  kPriorityBlind,  ///< plain FIFO in loss order
};

const char* to_string(RepairPolicy policy);
std::optional<RepairPolicy> try_repair_policy_from_string(std::string_view name);

/// Repair-bandwidth model: 4 concurrent repair streams (think
/// replacement nodes), each limited to bandwidth/4 block transfers per
/// unit time. Re-encoding one block reads 4 surviving blocks and writes
/// one, so a stream holds a repair for (4 + 1) * 4 / bandwidth time units.
/// Comparing policies at equal `bandwidth` is comparing at equal total
/// repair capacity — only the order differs.
struct RepairConfig {
  RepairPolicy policy = RepairPolicy::kPriorityAware;
  double bandwidth = 8.0;  ///< total blocks transferred per unit time

  /// Time one stream spends repairing one block.
  double repair_duration() const;

  void validate() const;
};

/// Silent-corruption model for the cluster simulator (DESIGN §13): blocks
/// rot at rest under a per-block exponential clock, Byzantine hosts serve
/// forged blocks from the moment they store them, and a periodic scrubber
/// is the only way the repair scheduler learns about either. Ground-truth
/// decodability reflects a rotten block immediately; the repair backlog
/// only sees it once a scrub scan detects it — the detection lag is the
/// quantity the scrub-interval sweep measures. The first detection on a
/// Byzantine host quarantines it: repairs never target quarantined hosts.
struct IntegrityConfig {
  double rot_rate = 0.0;  ///< per-block at-rest rot hazard (events per unit time)
  /// Fraction of node slots that are Byzantine (membership by stateless
  /// hash, so a slot stays Byzantine across fail/rejoin). Blocks stored on
  /// them are forged from birth.
  double byzantine_fraction = 0.0;
  /// Scrub period; 0 disables scrubbing (silent damage is then only
  /// discovered when its host fails loudly).
  double scrub_interval = 0.0;

  bool active() const { return rot_rate > 0.0 || byzantine_fraction > 0.0; }
  void validate() const;
};

/// The Monte-Carlo config plus the churn model, as a value so trials can
/// shard across threads: each trial builds its own Poisson stream from
/// `failure`. Only the simulator reads a churn model this way; the wave
/// sweeps over an overlay take their kill fractions from their own params.
struct ClusterExperiment : proto::ExperimentConfig {
  FailureModelConfig failure;
};

struct ClusterParams {
  std::size_t nodes = 100000;  ///< cluster size W (10^6 is in budget)
  /// Stored coded blocks M; 0 = 2x the spec's source-block count. In
  /// replication mode it must stay 0: storage is 3 copies of every source
  /// block.
  std::size_t locations = 0;
  bool replication = false;            ///< replication baseline instead of experiment.scheme
  double max_time = 50.0;              ///< simulate until here (censoring horizon)
  double replacement_delay = 0.5;      ///< failed slot rejoins empty after this
  std::vector<double> sample_times;    ///< ascending decoded-levels probe times
  /// Monte-Carlo execution (trials/root_seed/threads/scheme/spec) plus
  /// the churn model (experiment.failure).
  ClusterExperiment experiment;
  RepairConfig repair;
  IntegrityConfig integrity;  ///< silent corruption + scrubbing (coded modes only)

  void validate() const;
};

/// Everything one cluster lifetime reports.
struct LifetimeOutcome {
  /// Per level: time the level first became undecodable, censored at
  /// max_time when it never did (check `lost`).
  std::vector<double> first_loss;
  std::vector<std::uint8_t> lost;  ///< per level: ever lost within the horizon
  std::vector<double> levels_at;   ///< decoded levels at params.sample_times
  std::size_t failures = 0;
  std::size_t joins = 0;
  std::size_t repairs_completed = 0;
  std::size_t repairs_dropped = 0;  ///< abandoned: level lost before repair
  double repair_traffic = 0;        ///< blocks transferred by completed repairs
  std::size_t events = 0;           ///< events processed
  std::size_t peak_queue = 0;       ///< max pending events
  std::size_t rot_events = 0;       ///< blocks that silently rotted (incl. forged-at-birth)
  std::size_t rot_detected = 0;     ///< rotten blocks a scrub scan caught
  std::size_t scrub_scans = 0;      ///< scrub ticks executed
  std::size_t quarantined_nodes = 0;  ///< Byzantine hosts quarantined
};

/// Trial aggregate across `experiment.trials` lifetimes.
struct ClusterPoint {
  std::vector<double> mean_first_loss;  ///< per level, censored at max_time
  std::vector<double> loss_fraction;    ///< per level: fraction of trials that lost it
  double mean_ttfl_l1 = 0;              ///< time-to-first-loss of level 1
  double ci95_ttfl_l1 = 0;
  std::vector<double> mean_levels_at;  ///< per params.sample_times entry
  double mean_failures = 0;
  double mean_joins = 0;
  double mean_repairs = 0;
  double mean_repairs_dropped = 0;
  double mean_repair_traffic = 0;
  double mean_events = 0;
  double max_peak_queue = 0;
  double mean_rot_events = 0;
  double mean_rot_detected = 0;
  double mean_scrub_scans = 0;
  double mean_quarantined = 0;
};

/// One cluster lifetime with explicit randomness — the deterministic unit
/// the tests drive directly.
LifetimeOutcome run_cluster_trial(const ClusterParams& params, Rng& rng);

/// Full Monte-Carlo run: params.experiment.trials lifetimes sharded over
/// params.experiment.threads threads, merged in trial order.
ClusterPoint run_cluster_lifetime(const ClusterParams& params);

}  // namespace prlc::sim
