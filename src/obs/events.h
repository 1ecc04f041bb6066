// The telemetry journal: typed events and logical-time series, merged
// deterministically across threads.
//
// Experiments record two kinds of telemetry into one journal:
//   * events — typed records (node_failed, fetch_retry, peel, ...) with up
//     to three numeric arguments, recorded by emit();
//   * samples — one value of a named series (per-level surviving blocks,
//     decodability margin, retry pressure) that the experiment computed
//     itself, recorded by sample().
// Both are stamped with logical time — the experiment's own tick counter
// (churn wave, refresh round, fault-sweep step, coded-block index), never
// the wall clock — so the journal is a deterministic record of *what the
// simulation did*, not of how the host scheduled it. Each kind exports as
// its own JSONL document (--events-jsonl, --timeseries-jsonl).
//
// Determinism contract (the telemetry analogue of TrialRunner's
// counter-based seed streams):
//   * While a TrialScope is open, records go into two bounded per-trial
//     rings, one per kind, in thread-local storage. A trial runs entirely
//     on one thread (TrialRunner invariant), so each ring is in program
//     order and numbers its records with a per-trial, per-kind sequence
//     number; no cross-thread interleaving is possible.
//   * TrialRunner::run() allocates one run id per invocation (on the
//     calling thread, so the id sequence is the program's experiment
//     order) and opens TrialScope(run, trial) around every trial.
//   * At scope exit both rings are flushed into the process-wide journal
//     as one trial record, under a mutex; each export sorts its kind by
//     (run, trial, t, seq). The sort key contains nothing thread-
//     dependent, so the JSONL bytes are identical at any --threads value.
//   * A full ring overwrites its oldest records. The capacity applies per
//     trial and per kind, so which records drop is a function of the trial
//     alone, and one kind never evicts the other.
//
// Zero overhead when disabled: emit() and sample() are a relaxed atomic
// load plus a predictable branch, no allocation, no shared cache line —
// the same contract as the metrics probes (asserted by
// tests/obs/noalloc_guard). Records made outside any TrialScope are
// dropped even when enabled: an ambient buffer shared by arbitrary
// threads could not merge deterministically, so there deliberately isn't
// one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace prlc::obs {

/// The journal's closed event vocabulary. Typed (rather than free-form
/// strings) so emit sites stay allocation-free and downstream tooling can
/// switch on the kind.
enum class EventType : std::uint8_t {
  kNodeFailed,        ///< churn killed a node            (node)
  kRefreshRound,      ///< maintainer refresh completed   (rebuilt, unrecoverable, lost)
  kFetchRetry,        ///< collector retried a fetch      (node, attempt)
  kFetchHedged,       ///< collector issued a hedge fetch (node)
  kBudgetExhausted,   ///< node blacklisted by fault budget (node, faults)
  kWatermarkAdvance,  ///< decoder decoded-prefix grew    (prefix_blocks, equations)
  kPeel,              ///< degree-1 elimination fast path (pivot)
  kIntegrityViolation,  ///< fingerprint caught a forged/rotten frame (node, location)
  kNodeQuarantined,     ///< node removed after an integrity violation (node)
};
inline constexpr std::size_t kEventTypeCount = 9;

/// Stable wire name ("node_failed", "fetch_retry", ...).
const char* to_string(EventType type);

/// Per-type argument names; nullptr past the type's arity. Shared static
/// tables so emit sites pass bare doubles.
struct EventArgNames {
  const char* names[3];
};
const EventArgNames& event_arg_names(EventType type);

/// Stable handle for one named time series; resolve it once outside the
/// trial loop with timeseries() (that takes a mutex), then sample through
/// the handle.
using SeriesId = std::uint32_t;

namespace detail {

extern std::atomic<bool> g_telemetry_enabled;

/// One event record: fixed-size, no heap members, so the hot emit path
/// is a handful of stores into a preallocated ring slot.
struct Event {
  std::uint64_t t;    ///< logical time at emission
  std::uint32_t seq;  ///< per-trial event index
  EventType type;
  std::uint8_t argc;
  double args[3];
};

/// One time-series sample, recorded through the same trial context so
/// both exports share (run, trial, t) coordinates.
struct Sample {
  SeriesId series;
  std::uint32_t seq;  ///< per-trial sample index
  std::uint64_t t;
  double value;
};

/// One kind's per-trial ring: overwrite-oldest once `slots` holds the
/// capacity fixed at scope open. `emitted` counts every record, so it is
/// also the next record's seq and the oldest survivor sits at
/// emitted % capacity once the ring has wrapped.
template <typename Rec>
struct Ring {
  std::vector<Rec> slots;
  std::uint64_t emitted = 0;
};

/// Thread-local recording state for the currently open TrialScope.
struct TrialContext {
  bool active = false;
  std::int64_t run = -1;
  std::uint64_t trial = 0;
  std::uint64_t t = 0;  ///< logical clock, set via set_logical_time()
  Ring<Event> events;
  Ring<Sample> samples;
};

/// One closed trial as the journal keeps it: both rings, each unrolled
/// into emission order.
struct TrialRecord {
  std::int64_t run;
  std::uint64_t trial;
  std::vector<Event> events;
  std::vector<Sample> samples;
};

void emit_slow(EventType type, std::uint8_t argc, double a0, double a1, double a2);
void sample_slow(SeriesId series, double value);
void set_logical_time_slow(std::uint64_t t);

}  // namespace detail

/// The one telemetry switch, for events and samples alike. Starts off;
/// --events-jsonl, --timeseries-jsonl, `prlc metrics` and the tests arm it
/// explicitly.
inline bool telemetry_enabled() {
  return detail::g_telemetry_enabled.load(std::memory_order_relaxed);
}
void set_telemetry_enabled(bool on);

/// Emit one event into the current trial's ring. No-op when telemetry is
/// disabled or no TrialScope is open on this thread.
inline void emit(EventType type) {
  if (telemetry_enabled()) detail::emit_slow(type, 0, 0, 0, 0);
}
inline void emit(EventType type, double a0) {
  if (telemetry_enabled()) detail::emit_slow(type, 1, a0, 0, 0);
}
inline void emit(EventType type, double a0, double a1) {
  if (telemetry_enabled()) detail::emit_slow(type, 2, a0, a1, 0);
}
inline void emit(EventType type, double a0, double a1, double a2) {
  if (telemetry_enabled()) detail::emit_slow(type, 3, a0, a1, a2);
}

/// Find-or-create the handle for series `name` on the global journal.
/// Handles are process-local; the export is keyed by name, so the order
/// in which handles are assigned never shows in the output.
SeriesId timeseries(std::string_view name);

/// Record `value` for `series` at the current trial's logical time.
/// No-op when telemetry is disabled or no TrialScope is open.
inline void sample(SeriesId series, double value) {
  if (telemetry_enabled()) detail::sample_slow(series, value);
}

/// Set the trial-local logical clock; experiments call this once per
/// tick (churn point, refresh wave, fault scale). No-op without a scope.
inline void set_logical_time(std::uint64_t t) {
  if (telemetry_enabled()) detail::set_logical_time_slow(t);
}

/// Next telemetry run id. TrialRunner::run() calls this once per
/// invocation *on the calling thread*, so ids follow the program's
/// experiment order regardless of worker count. reset_telemetry()
/// rewinds it for in-process determinism tests.
std::uint64_t begin_telemetry_run();

/// RAII trial recording scope: opens the thread-local context (saving any
/// enclosing scope — a trial TrialRunner runs on the calling thread nests
/// inside a manual scope in tests) and flushes both rings to the journal
/// on close.
/// Construction is a no-op when telemetry is disabled.
class TrialScope {
 public:
  TrialScope(std::uint64_t run, std::uint64_t trial) {
    if (telemetry_enabled()) open(run, trial);
  }
  ~TrialScope() {
    if (opened_) close();
  }
  TrialScope(const TrialScope&) = delete;
  TrialScope& operator=(const TrialScope&) = delete;

 private:
  void open(std::uint64_t run, std::uint64_t trial);
  void close();

  bool opened_ = false;
  detail::TrialContext saved_;
};

/// Process-wide journal the trial rings flush into.
class Journal {
 public:
  static Journal& global();

  /// See obs::timeseries().
  SeriesId series(std::string_view name);

  /// Ring capacity, per trial and per kind, for scopes opened after the
  /// call.
  void set_trial_capacity(std::size_t cap);
  std::size_t trial_capacity() const;

  /// Ring-overflow losses of both kinds across all flushed trials.
  std::uint64_t dropped() const;
  /// Drop every flushed record and zero dropped(); series handles stay
  /// valid (callers often hold them in function-local statics).
  void clear();

  /// Events, one JSON object per line, sorted by (run, trial, t, seq):
  ///   {"run":0,"trial":3,"t":1,"seq":0,"event":"fetch_retry",
  ///    "node":17,"attempt":1}
  std::string events_jsonl() const;
  /// Samples, one JSON object per line, sorted by (run, trial, t, seq):
  ///   {"run":0,"trial":2,"t":3,"seq":1,"series":"persistence.margin.l1",
  ///    "value":-4}
  /// Both exports are byte-identical for byte-identical experiment
  /// configurations.
  std::string timeseries_jsonl() const;

  // Internal: TrialScope::close() hands its rings over as one record.
  void flush_trial(detail::TrialContext&& ctx);

 private:
  mutable std::mutex mu_;
  std::vector<std::string> series_names_;  ///< SeriesId -> name
  std::vector<detail::TrialRecord> records_;
  std::uint64_t dropped_ = 0;
  std::atomic<std::size_t> capacity_{1u << 16};
};

/// Clear the journal and rewind the run-id counter — the full telemetry
/// reset the in-process determinism tests need between repetitions of
/// the same experiment.
void reset_telemetry();

}  // namespace prlc::obs
