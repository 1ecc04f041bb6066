#include "sim/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/count_model.h"
#include "obs/events.h"
#include "runtime/trial_runner.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/stats.h"

namespace prlc::sim {
namespace {

constexpr std::uint32_t kNoHost = 0xffffffffu;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kRepairStreams = 4;      ///< concurrent repair workers
constexpr std::size_t kRepairFetchBlocks = 4;  ///< surviving blocks read per re-encoded block
constexpr std::size_t kReplicationFactor = 3;  ///< copies per source block (replication mode)

/// One stored coded block (or, in replication mode, one copy).
struct Block {
  std::uint32_t host = kNoHost;
  std::uint32_t level = 0;
  std::uint32_t source = 0;  ///< replication mode: which source block this copies
  /// Bumped every time the block leaves a host; a kRot event carrying an
  /// older generation refers to bytes that no longer exist and is stale.
  std::uint32_t generation = 0;
  /// Silently corrupt: excluded from counts_ (ground truth) but still
  /// occupying its host until a scrub — or the host's failure — frees it.
  bool rotten = false;
};

struct SimEvent {
  enum class Kind : std::uint8_t { kJoin, kRepairDone, kRot, kScrub };
  Kind kind = Kind::kJoin;
  std::uint32_t id = 0;          ///< kJoin: node slot; kRepairDone/kRot: block index
  std::uint32_t generation = 0;  ///< kRot: blocks_[id].generation at schedule time
};

/// All mutable state of one cluster lifetime.
class ClusterTrial {
 public:
  ClusterTrial(const ClusterParams& params, Rng& rng)
      : params_(params),
        spec_(params.experiment.spec()),
        alive_(params.nodes, 1),
        alive_count_(params.nodes),
        rng_(rng),
        counts_(spec_.levels(), 0),
        zero_sources_(spec_.levels(), 0),
        level_queue_(spec_.levels()),
        free_streams_(kRepairStreams) {
    outcome_.first_loss.assign(spec_.levels(), params.max_time);
    outcome_.lost.assign(spec_.levels(), 0);
    outcome_.levels_at.assign(params.sample_times.size(), 0);
    if (params.experiment.failure.kind == FailureModelConfig::Kind::kPoisson) {
      churn_.emplace(params.experiment.failure.churn_rate);
    }
  }

  LifetimeOutcome run();

 private:
  void place_blocks();
  void seed_integrity();
  bool is_byzantine(std::uint32_t node) const;
  void schedule_rot(std::uint32_t block, double now);
  std::size_t decoded_levels() const;
  void record_losses(double now);
  void enqueue_repair(std::uint32_t block);
  void detach_block(std::uint32_t block);
  void lose_block(std::uint32_t block, double now);
  void on_failure(const FailureEvent& event);
  void on_join(std::uint32_t node);
  void on_rot(std::uint32_t block, std::uint32_t generation, double now);
  void on_scrub(double now);
  void on_repair_done(std::uint32_t block, double now);
  void dispatch_repairs(double now);
  bool repairable(const Block& block) const;
  std::optional<std::uint32_t> pop_repair_candidate();
  void drain_samples(double upto);
  void finish(double final_time);

  const ClusterParams& params_;
  codes::PrioritySpec spec_;
  /// One byte of liveness per node slot. Node state beyond this byte is
  /// lazily materialized: only hosts holding blocks appear in host_blocks_.
  std::vector<std::uint8_t> alive_;
  std::size_t alive_count_;
  Rng& rng_;
  std::optional<PoissonFailureProcess> churn_;  ///< none: no loud failures

  std::vector<Block> blocks_;
  /// Lazily materialized node storage: host id -> indices into blocks_.
  /// Looked up and erased by key only, never iterated — determinism is
  /// unaffected by the hash order.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> host_blocks_;
  std::vector<std::size_t> counts_;        ///< surviving coded blocks per level
  std::vector<std::uint32_t> copies_;      ///< replication: copies per source block
  std::vector<std::size_t> zero_sources_;  ///< replication: dead sources per level

  std::uint64_t byz_salt_ = 0;  ///< stateless Byzantine membership hash salt
  std::unordered_set<std::uint32_t> quarantined_;

  EventQueue<SimEvent> queue_;
  std::vector<std::deque<std::uint32_t>> level_queue_;  ///< priority-aware repair backlog
  std::deque<std::uint32_t> fifo_queue_;                ///< priority-blind repair backlog
  std::size_t free_streams_;
  std::size_t decoded_ = 0;   ///< cached decodable prefix
  std::size_t sample_ = 0;    ///< next params_.sample_times index to drain
  bool terminal_ = false;     ///< level 1 lost: nothing can ever be repaired again
  LifetimeOutcome outcome_;

  obs::SeriesId decoded_series_ = obs::timeseries("cluster.decoded_levels");
  obs::SeriesId margin_series_ = obs::timeseries("cluster.margin.l1");
};

void ClusterTrial::place_blocks() {
  const std::size_t nodes = params_.nodes;
  if (params_.replication) {
    // kReplicationFactor copies of every source block, each on an
    // independently uniform node.
    const std::size_t sources = spec_.total();
    copies_.assign(sources, static_cast<std::uint32_t>(kReplicationFactor));
    blocks_.reserve(sources * kReplicationFactor);
    for (std::size_t j = 0; j < sources; ++j) {
      const auto level = static_cast<std::uint32_t>(spec_.level_of_block(j));
      for (std::size_t r = 0; r < kReplicationFactor; ++r) {
        const auto host = static_cast<std::uint32_t>(rng_.uniform(nodes));
        blocks_.push_back(Block{host, level, static_cast<std::uint32_t>(j)});
      }
    }
  } else {
    // M coded blocks split over the levels by largest-remainder
    // apportionment of the priority distribution — the deterministic
    // partition predistribution uses, so a simulated cluster stores the
    // same per-level mix the protocol would.
    const std::size_t coded =
        params_.locations != 0 ? params_.locations : 2 * spec_.total();
    const auto parts =
        codes::apportion_largest_remainder(coded, params_.experiment.distribution().values());
    blocks_.reserve(coded);
    for (std::size_t level = 0; level < parts.size(); ++level) {
      for (std::size_t c = 0; c < parts[level]; ++c) {
        const auto host = static_cast<std::uint32_t>(rng_.uniform(nodes));
        blocks_.push_back(Block{host, static_cast<std::uint32_t>(level), 0});
      }
    }
  }
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    host_blocks_[blocks_[b].host].push_back(b);
    ++counts_[blocks_[b].level];
  }
}

/// Post-placement silent-corruption setup. Everything here is gated on
/// the integrity knobs so an integrity-off trial consumes exactly the
/// draw stream of the pre-integrity simulator.
void ClusterTrial::seed_integrity() {
  const IntegrityConfig& integrity = params_.integrity;
  if (!integrity.active()) return;
  if (integrity.byzantine_fraction > 0.0) byz_salt_ = rng_();
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    if (is_byzantine(blocks_[b].host)) {
      // Forged from birth: the host stores a well-formed lie.
      blocks_[b].rotten = true;
      --counts_[blocks_[b].level];
      ++outcome_.rot_events;
    } else if (integrity.rot_rate > 0.0) {
      schedule_rot(b, 0.0);
    }
  }
  if (integrity.scrub_interval > 0.0 && integrity.scrub_interval <= params_.max_time) {
    queue_.push(integrity.scrub_interval, SimEvent{SimEvent::Kind::kScrub, 0, 0});
  }
}

bool ClusterTrial::is_byzantine(std::uint32_t node) const {
  if (params_.integrity.byzantine_fraction <= 0.0) return false;
  // Stateless membership: 10^6 nodes must not cost 10^6 Bernoulli draws,
  // and a slot must stay Byzantine across fail/rejoin.
  std::uint64_t state = byz_salt_ ^ (0x9e3779b97f4a7c15ULL * (node + 1ULL));
  const double u = static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53;
  return u < params_.integrity.byzantine_fraction;
}

/// Draw the block's next exponential rot time. One draw per call whenever
/// rot_rate > 0 — also when the sample lands past the horizon — so the
/// stream stays aligned across parameter sweeps that share a seed.
void ClusterTrial::schedule_rot(std::uint32_t block, double now) {
  const double u = rng_.uniform_double();
  const double at = now - std::log(1.0 - u) / params_.integrity.rot_rate;
  if (at > params_.max_time) return;
  queue_.push(at, SimEvent{SimEvent::Kind::kRot, block, blocks_[block].generation});
}

std::size_t ClusterTrial::decoded_levels() const {
  if (!params_.replication) {
    return analysis::levels_from_counts(params_.experiment.scheme, spec_, counts_);
  }
  // Replication: level i readable iff every source block in it still has a
  // copy; report prefix semantics like the coded schemes.
  std::size_t k = 0;
  while (k < spec_.levels() && zero_sources_[k] == 0) ++k;
  return k;
}

void ClusterTrial::record_losses(double now) {
  decoded_ = decoded_levels();
  for (std::size_t k = decoded_; k < spec_.levels(); ++k) {
    if (!outcome_.lost[k]) {
      outcome_.lost[k] = 1;
      outcome_.first_loss[k] = now;
    }
  }
  // Level 1 lost is terminal: every repair gate needs a decodable prefix of
  // at least one level (replication: a surviving copy, which a dead source
  // by definition lacks), so from here the cluster only decays.
  if (outcome_.lost[0]) terminal_ = true;
}

void ClusterTrial::enqueue_repair(std::uint32_t block) {
  if (params_.repair.policy == RepairPolicy::kNone || terminal_) return;
  if (params_.repair.policy == RepairPolicy::kPriorityAware) {
    level_queue_[blocks_[block].level].push_back(block);
  } else {
    fifo_queue_.push_back(block);
  }
}

/// Unlink a still-hosted block from its host's lazily materialized list
/// (scrub frees it while the host stays alive; failures bulk-erase the
/// whole list instead).
void ClusterTrial::detach_block(std::uint32_t block) {
  const auto it = host_blocks_.find(blocks_[block].host);
  PRLC_ASSERT(it != host_blocks_.end(), "detaching from an unknown host");
  std::erase(it->second, block);
  if (it->second.empty()) host_blocks_.erase(it);
}

void ClusterTrial::lose_block(std::uint32_t block, double now) {
  Block& b = blocks_[block];
  b.host = kNoHost;
  ++b.generation;
  if (b.rotten) {
    // Already off the count ledger since it rotted; the loud failure just
    // surfaces the loss to the repair scheduler.
    b.rotten = false;
  } else {
    --counts_[b.level];
    if (params_.replication && --copies_[b.source] == 0) ++zero_sources_[b.level];
  }
  enqueue_repair(block);
  (void)now;
}

void ClusterTrial::on_failure(const FailureEvent& event) {
  PRLC_ASSERT(alive_[event.node] != 0, "failing a dead node");
  alive_[event.node] = 0;
  --alive_count_;
  ++outcome_.failures;
  obs::emit(obs::EventType::kNodeFailed, static_cast<double>(event.node));
  queue_.push(event.time + params_.replacement_delay,
              SimEvent{SimEvent::Kind::kJoin, event.node});
  const auto it = host_blocks_.find(event.node);
  if (it == host_blocks_.end()) return;
  for (const std::uint32_t block : it->second) lose_block(block, event.time);
  host_blocks_.erase(it);
  record_losses(event.time);
}

void ClusterTrial::on_join(std::uint32_t node) {
  PRLC_ASSERT(alive_[node] == 0, "joining an alive node");
  alive_[node] = 1;
  ++alive_count_;
  ++outcome_.joins;
}

void ClusterTrial::on_rot(std::uint32_t block, std::uint32_t generation, double now) {
  Block& b = blocks_[block];
  // Stale: the bytes this clock was armed for left the host (failure,
  // scrub, repair round-trip) before the clock fired.
  if (b.generation != generation || b.host == kNoHost || b.rotten) return;
  b.rotten = true;
  --counts_[b.level];
  ++outcome_.rot_events;
  // Ground truth degrades now; the repair scheduler only learns at the
  // next scrub (or when the host dies loudly).
  record_losses(now);
}

void ClusterTrial::on_scrub(double now) {
  ++outcome_.scrub_scans;
  // Full scan in block-index order: detection within one tick is
  // deterministic and independent of hash-map iteration order.
  for (std::uint32_t block = 0; block < blocks_.size(); ++block) {
    Block& b = blocks_[block];
    if (b.host == kNoHost || !b.rotten) continue;
    ++outcome_.rot_detected;
    obs::emit(obs::EventType::kIntegrityViolation, static_cast<double>(b.host),
              static_cast<double>(block));
    if (is_byzantine(b.host) && quarantined_.insert(b.host).second) {
      ++outcome_.quarantined_nodes;
      obs::emit(obs::EventType::kNodeQuarantined, static_cast<double>(b.host));
    }
    detach_block(block);
    b.host = kNoHost;
    b.rotten = false;
    ++b.generation;
    enqueue_repair(block);
  }
  const double next = now + params_.integrity.scrub_interval;
  if (next <= params_.max_time) {
    queue_.push(next, SimEvent{SimEvent::Kind::kScrub, 0, 0});
  }
}

bool ClusterTrial::repairable(const Block& block) const {
  // Re-encoding a level's block draws on live data: coded schemes need the
  // prefix through that level decodable, replication needs a surviving
  // copy of the same source block.
  if (params_.replication) return copies_[block.source] > 0;
  return decoded_ > block.level;
}

std::optional<std::uint32_t> ClusterTrial::pop_repair_candidate() {
  if (params_.repair.policy == RepairPolicy::kPriorityAware) {
    for (auto& q : level_queue_) {
      if (q.empty()) continue;
      const std::uint32_t block = q.front();
      q.pop_front();
      return block;
    }
    return std::nullopt;
  }
  if (fifo_queue_.empty()) return std::nullopt;
  const std::uint32_t block = fifo_queue_.front();
  fifo_queue_.pop_front();
  return block;
}

void ClusterTrial::dispatch_repairs(double now) {
  while (free_streams_ > 0) {
    const auto candidate = pop_repair_candidate();
    if (!candidate.has_value()) return;
    if (!repairable(blocks_[*candidate])) {
      ++outcome_.repairs_dropped;
      continue;  // dropping does not consume the stream
    }
    --free_streams_;
    queue_.push(now + params_.repair.repair_duration(),
                SimEvent{SimEvent::Kind::kRepairDone, *candidate});
  }
}

void ClusterTrial::on_repair_done(std::uint32_t block, double now) {
  ++free_streams_;
  Block& b = blocks_[block];
  // Quarantined hosts never receive repairs. Cheap bound first: alive >
  // |quarantined| guarantees an eligible host; only when that fails count
  // the alive quarantined exactly (set iteration order doesn't matter for
  // a count).
  bool placeable = alive_count_ > quarantined_.size();
  if (!placeable && alive_count_ > 0) {
    std::size_t alive_quarantined = 0;
    for (const std::uint32_t q : quarantined_) alive_quarantined += alive_[q];
    placeable = alive_count_ > alive_quarantined;
  }
  // The level may have gone under while the repair was in flight; the
  // re-encode has nothing valid to draw on, so the work is abandoned.
  if (!repairable(b) || !placeable) {
    ++outcome_.repairs_dropped;
    return;
  }
  std::uint32_t host;
  do {
    host = static_cast<std::uint32_t>(rng_.uniform(params_.nodes));
  } while (alive_[host] == 0 || quarantined_.contains(host));
  b.host = host;
  host_blocks_[host].push_back(block);
  ++outcome_.repairs_completed;
  outcome_.repair_traffic += static_cast<double>(kRepairFetchBlocks + 1);
  if (is_byzantine(host)) {
    // Landed on an undetected Byzantine host: stored forged, never counted.
    b.rotten = true;
    ++outcome_.rot_events;
  } else {
    ++counts_[b.level];
    if (params_.replication && copies_[b.source]++ == 0) --zero_sources_[b.level];
    if (params_.integrity.rot_rate > 0.0) schedule_rot(block, now);
  }
  decoded_ = decoded_levels();  // a repair can revive a higher level (PLC)
}

void ClusterTrial::drain_samples(double upto) {
  while (sample_ < params_.sample_times.size() && params_.sample_times[sample_] < upto) {
    outcome_.levels_at[sample_] = static_cast<double>(decoded_);
    obs::set_logical_time(sample_);
    obs::sample(decoded_series_, static_cast<double>(decoded_));
    const double margin =
        params_.replication
            ? -static_cast<double>(zero_sources_[0])
            : static_cast<double>(counts_[0]) - static_cast<double>(spec_.level_size(0));
    obs::sample(margin_series_, margin);
    ++sample_;
  }
}

void ClusterTrial::finish(double final_time) {
  drain_samples(kInf);
  if (terminal_) {
    // In-flight and queued repairs will never complete; account for them
    // so traffic books balance.
    outcome_.repairs_dropped += kRepairStreams - free_streams_;
    outcome_.repairs_dropped += fifo_queue_.size();
    for (const auto& q : level_queue_) outcome_.repairs_dropped += q.size();
  }
  outcome_.peak_queue = queue_.max_size_seen();
  (void)final_time;
}

LifetimeOutcome ClusterTrial::run() {
  place_blocks();
  seed_integrity();
  // An undersized placement — or one forged hollow by Byzantine hosts —
  // is a loss at t = 0.
  record_losses(0.0);

  while (!terminal_) {
    const double queue_time = queue_.empty() ? kInf : queue_.top().time;
    // Ask the failure stream first, with the next scheduled event as the
    // horizon: failures break (time) ties against scheduled events — a
    // node that dies the instant its repair lands dies holding the
    // repaired block. The horizon also fences randomness (see
    // PoissonFailureProcess::next), keeping the trial's draw order
    // reproducible.
    const double horizon = std::min(queue_time, params_.max_time);
    const auto event = churn_ ? churn_->next(alive_, alive_count_, rng_, horizon)
                              : std::optional<FailureEvent>();
    double now;
    if (event) {
      now = event->time;
      drain_samples(now);
      ++outcome_.events;
      on_failure(*event);
    } else if (queue_time <= params_.max_time) {
      now = queue_time;
      drain_samples(now);
      ++outcome_.events;
      const auto entry = queue_.pop();
      switch (entry.payload.kind) {
        case SimEvent::Kind::kJoin:
          on_join(entry.payload.id);
          break;
        case SimEvent::Kind::kRepairDone:
          on_repair_done(entry.payload.id, entry.time);
          break;
        case SimEvent::Kind::kRot:
          on_rot(entry.payload.id, entry.payload.generation, entry.time);
          break;
        case SimEvent::Kind::kScrub:
          on_scrub(entry.time);
          break;
      }
    } else {
      break;  // nothing left inside the horizon
    }
    if (!terminal_) dispatch_repairs(now);
  }
  finish(params_.max_time);
  return std::move(outcome_);
}

}  // namespace

const char* to_string(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::kNone:
      return "none";
    case RepairPolicy::kPriorityAware:
      return "priority_aware";
    case RepairPolicy::kPriorityBlind:
      return "priority_blind";
  }
  PRLC_ASSERT(false, "unknown repair policy");
}

std::optional<RepairPolicy> try_repair_policy_from_string(std::string_view name) {
  if (name == "none") return RepairPolicy::kNone;
  if (name == "priority_aware" || name == "aware") return RepairPolicy::kPriorityAware;
  if (name == "priority_blind" || name == "blind") return RepairPolicy::kPriorityBlind;
  return std::nullopt;
}

double RepairConfig::repair_duration() const {
  return static_cast<double>(kRepairFetchBlocks + 1) * static_cast<double>(kRepairStreams) /
         bandwidth;
}

void RepairConfig::validate() const {
  PRLC_REQUIRE(bandwidth > 0.0, "repair bandwidth must be positive");
}

void IntegrityConfig::validate() const {
  PRLC_REQUIRE(rot_rate >= 0.0 && std::isfinite(rot_rate),
               "rot rate must be a finite nonnegative hazard");
  PRLC_REQUIRE(byzantine_fraction >= 0.0 && byzantine_fraction <= 1.0,
               "byzantine fraction must be in [0,1]");
  PRLC_REQUIRE(scrub_interval >= 0.0 && std::isfinite(scrub_interval),
               "scrub interval must be finite and nonnegative");
}

void ClusterParams::validate() const {
  PRLC_REQUIRE(nodes > 0, "cluster needs at least one node");
  PRLC_REQUIRE(max_time > 0.0, "max_time must be positive");
  PRLC_REQUIRE(replacement_delay >= 0.0, "replacement delay must be nonnegative");
  PRLC_REQUIRE(!replication || locations == 0,
               "replication mode stores 3 copies of every source block, not locations");
  for (std::size_t i = 1; i < sample_times.size(); ++i) {
    PRLC_REQUIRE(sample_times[i - 1] <= sample_times[i],
                 "sample times must be nondecreasing");
  }
  integrity.validate();
  PRLC_REQUIRE(!replication || !integrity.active(),
               "silent-corruption model needs coded storage; replication mode "
               "has no fingerprintable coded blocks");
  experiment.validate();
  experiment.failure.validate();
  repair.validate();
}

LifetimeOutcome run_cluster_trial(const ClusterParams& params, Rng& rng) {
  return ClusterTrial(params, rng).run();
}

ClusterPoint run_cluster_lifetime(const ClusterParams& params) {
  params.validate();
  runtime::TrialRunner runner(params.experiment.threads);
  const auto outcomes = runner.run(
      params.experiment.trials, params.experiment.root_seed,
      [&params](std::size_t, Rng& rng) { return run_cluster_trial(params, rng); });

  const std::size_t levels = params.experiment.level_sizes.size();
  std::vector<RunningStats> first_loss(levels);
  std::vector<RunningStats> lost(levels);
  std::vector<RunningStats> at(params.sample_times.size());
  RunningStats failures, joins, repairs, dropped, traffic, events;
  RunningStats rotted, detected, scrubs, quarantined;
  double peak = 0;
  // Slot order is trial order: the merge is bit-identical at any --threads.
  for (const LifetimeOutcome& o : outcomes) {
    for (std::size_t k = 0; k < levels; ++k) {
      first_loss[k].add(o.first_loss[k]);
      lost[k].add(o.lost[k] ? 1.0 : 0.0);
    }
    for (std::size_t s = 0; s < at.size(); ++s) at[s].add(o.levels_at[s]);
    failures.add(static_cast<double>(o.failures));
    joins.add(static_cast<double>(o.joins));
    repairs.add(static_cast<double>(o.repairs_completed));
    dropped.add(static_cast<double>(o.repairs_dropped));
    traffic.add(o.repair_traffic);
    events.add(static_cast<double>(o.events));
    rotted.add(static_cast<double>(o.rot_events));
    detected.add(static_cast<double>(o.rot_detected));
    scrubs.add(static_cast<double>(o.scrub_scans));
    quarantined.add(static_cast<double>(o.quarantined_nodes));
    peak = std::max(peak, static_cast<double>(o.peak_queue));
  }

  ClusterPoint point;
  point.mean_first_loss.resize(levels);
  point.loss_fraction.resize(levels);
  for (std::size_t k = 0; k < levels; ++k) {
    point.mean_first_loss[k] = first_loss[k].mean();
    point.loss_fraction[k] = lost[k].mean();
  }
  point.mean_ttfl_l1 = first_loss[0].mean();
  point.ci95_ttfl_l1 = first_loss[0].ci95_halfwidth();
  point.mean_levels_at.resize(at.size());
  for (std::size_t s = 0; s < at.size(); ++s) point.mean_levels_at[s] = at[s].mean();
  point.mean_failures = failures.mean();
  point.mean_joins = joins.mean();
  point.mean_repairs = repairs.mean();
  point.mean_repairs_dropped = dropped.mean();
  point.mean_repair_traffic = traffic.mean();
  point.mean_events = events.mean();
  point.max_peak_queue = peak;
  point.mean_rot_events = rotted.mean();
  point.mean_rot_detected = detected.mean();
  point.mean_scrub_scans = scrubs.mean();
  point.mean_quarantined = quarantined.mean();
  return point;
}

}  // namespace prlc::sim
