// Unified failure-event streams — one churn API for wave experiments and
// the discrete-event cluster simulator.
//
// Before this layer churn was a fixed-wave *call* (net/churn.h killed a
// fraction of an overlay in place) while the simulator direction needed a
// continuous *stream* of failures. FailureProcess unifies the two: a
// process is an iterator over (time, node) failure events drawn against a
// MembershipView of whoever is currently alive. Wave churn is one
// implementation (WaveFailureProcess — byte-identical Rng draws to the
// old kill_uniform_fraction, so every committed baseline is preserved);
// memoryless exponential lifetimes are another (PoissonFailureProcess —
// the aggregate failure stream of W iid Exp(rate) lifetimes, which by
// memorylessness is a Poisson process of rate alive*rate with a uniform
// victim).
//
// Processes are cheap per-trial objects: construct one per cluster
// lifetime, drive it with the trial's Rng, never share across trials.
// All randomness flows through the Rng argument, so trials stay
// counter-seeded and bit-identical at any thread count (see
// runtime/trial_runner.h).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/overlay.h"
#include "net/types.h"
#include "util/random.h"

namespace prlc::sim {

/// What a failure process may ask about the cluster it is killing. Kept
/// minimal so both a geometric Overlay and the simulator's lazily
/// materialized node table can stand behind it.
class MembershipView {
 public:
  virtual ~MembershipView() = default;
  virtual std::size_t nodes() const = 0;        ///< total slots (alive + failed)
  virtual std::size_t alive_count() const = 0;  ///< currently alive
  virtual bool alive(net::NodeId node) const = 0;
};

/// Adapter: any net::Overlay is a MembershipView.
class OverlayMembership final : public MembershipView {
 public:
  explicit OverlayMembership(const net::Overlay& overlay) : overlay_(overlay) {}
  std::size_t nodes() const override { return overlay_.nodes(); }
  std::size_t alive_count() const override { return overlay_.alive_count(); }
  bool alive(net::NodeId node) const override { return overlay_.alive(node); }

 private:
  const net::Overlay& overlay_;
};

/// One failure: node `node` dies at simulation time `time`.
struct FailureEvent {
  double time = 0;
  net::NodeId node = 0;
};

/// A stream of failure events in nondecreasing time order. The caller
/// applies each event to its membership (fail the node) before asking for
/// the next one — victim selection sees the up-to-date alive set.
class FailureProcess {
 public:
  virtual ~FailureProcess() = default;

  /// Telemetry label ("mass_failure", "poisson_churn", ...).
  virtual const char* name() const = 0;

  /// Next failure with time <= until, or nullopt when the stream has no
  /// event inside the horizon (past the last wave; next death further
  /// out; nobody left alive). The horizon is a hard randomness fence:
  /// asking about [0, until] consumes no draws belonging to later events,
  /// so a caller that interleaves other work on the same Rng (collection
  /// rounds between churn points; repair placement between deaths) keeps
  /// a reproducible draw order. Horizons across calls must not decrease.
  virtual std::optional<FailureEvent> next(const MembershipView& view, Rng& rng,
                                           double until) = 0;
};

/// Fixed churn waves: at `time`, kill floor(fraction * alive) nodes
/// chosen uniformly without replacement among the currently alive —
/// exactly the draws net::kill_uniform_fraction has always made, so a
/// wave process driving an overlay reproduces historical experiment
/// streams bit for bit.
class WaveFailureProcess final : public FailureProcess {
 public:
  struct Wave {
    double time = 0;
    double fraction = 0;  ///< of the alive population at fire time, in [0,1]
  };

  /// `waves` must be sorted by nondecreasing time.
  explicit WaveFailureProcess(std::vector<Wave> waves);

  const char* name() const override { return "mass_failure"; }
  std::optional<FailureEvent> next(const MembershipView& view, Rng& rng,
                                   double until) override;

 private:
  std::vector<Wave> waves_;
  std::size_t wave_ = 0;              ///< next wave to materialize
  std::vector<net::NodeId> pending_;  ///< victims of the materialized wave
  std::size_t cursor_ = 0;
  double pending_time_ = 0;
};

/// Continuous churn: every alive node's remaining lifetime is
/// Exp(rate), so the cluster-wide failure stream is a Poisson process of
/// rate alive*rate and the victim is uniform among the alive (the lazily
/// materialized form — no per-node timer is ever scheduled, which is what
/// lets one stream drive 10^6 nodes).
class PoissonFailureProcess final : public FailureProcess {
 public:
  /// `rate`: failures per node per unit time (1 / mean lifetime). Must be
  /// positive.
  explicit PoissonFailureProcess(double rate);

  const char* name() const override { return "poisson_churn"; }
  std::optional<FailureEvent> next(const MembershipView& view, Rng& rng,
                                   double until) override;

  double rate() const { return rate_; }

 private:
  double rate_;
  double now_ = 0;
  /// Gap already drawn but beyond the caller's horizon. The gap is kept
  /// (not redrawn) even though membership may change before it fires —
  /// the standard lazy-superposition approximation; the victim draw waits
  /// until release so it always sees the current alive set.
  std::optional<double> pending_time_;
};

/// Value-type description of a failure process, so ExperimentConfig can
/// carry the churn model across threads and trials (each trial
/// materializes its own process from the shared config).
struct FailureModelConfig {
  enum class Kind {
    kWave,     ///< waves at t = 0, 1, 2, ... with wave_fractions[i]
    kPoisson,  ///< exponential lifetimes at churn_rate
  };
  Kind kind = Kind::kPoisson;
  /// kWave: fraction of the then-alive population killed at t = i.
  std::vector<double> wave_fractions;
  /// kPoisson: failures per node per unit time (1 / mean lifetime).
  double churn_rate = 0.02;

  void validate() const;
};

/// Materialize a process from its description (one per trial).
std::unique_ptr<FailureProcess> make_failure_process(const FailureModelConfig& config);

/// The churn telemetry of one batch of deaths: the churn.nodes_killed and
/// churn.waves counters, the churn.last_alive gauge, one trace instant
/// named `model` plus one alive_nodes trace counter per batch (per-node
/// instants would swamp a trace at simulation scale), and one kNodeFailed
/// journal event per death, in `killed` order. FailureDriver and
/// net/churn's exponential and session models all record through it.
void record_churn(const char* model, std::span<const net::NodeId> killed,
                  std::size_t alive_after);

/// Drives a FailureProcess against an Overlay: pulls events up to a time
/// horizon, fails the nodes, and records them with record_churn. Both the
/// legacy net::kill_uniform_fraction and the persistence experiment's
/// sweep loop run their churn through one of these.
class FailureDriver {
 public:
  FailureDriver(FailureProcess& process, net::Overlay& overlay)
      : process_(process), overlay_(overlay), view_(overlay) {}

  /// Apply every failure with time <= until; returns this call's kills in
  /// event order.
  std::vector<net::NodeId> advance_to(double until, Rng& rng);

 private:
  FailureProcess& process_;
  net::Overlay& overlay_;
  OverlayMembership view_;
};

}  // namespace prlc::sim
