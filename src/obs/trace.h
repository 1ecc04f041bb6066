// Chrome-tracing-format event recorder for simulation timelines.
//
// Simulation code (rounds, churn waves, block placement, refresh) emits
// events through the process-wide recorder; the output is the Trace Event
// Format JSON that chrome://tracing and Perfetto load directly:
//
//   {"traceEvents": [
//     {"name":"trial","cat":"persistence","ph":"B","ts":12,"pid":1,"tid":1},
//     {"name":"node_fail","cat":"churn","ph":"i","ts":40,"pid":1,"tid":1,
//      "s":"p","args":{"node":17}},
//     ...]}
//
// Capture is off by default: emit paths branch on a relaxed atomic and do
// nothing until start() — the same zero-overhead-when-disabled contract
// as the metrics probes. Timestamps are microseconds of steady-clock time
// since start(), appended under a mutex, so the event list is
// monotonically ordered (the trace_test golden check).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prlc::obs {

/// One (key, numeric value) argument attached to a trace event.
using TraceArg = std::pair<std::string_view, double>;

class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// The process-wide recorder the instrumented library paths emit to.
  static TraceRecorder& global();

  /// Begin capturing; resets the clock epoch. Safe to call again (keeps
  /// already-captured events, keeps the original epoch).
  void start();
  /// Stop capturing; captured events remain until clear().
  void stop();
  void clear();
  bool capturing() const { return capturing_.load(std::memory_order_relaxed); }

  /// Instant event (phase "i", process scope).
  void instant(std::string_view name, std::string_view category,
               std::initializer_list<TraceArg> args = {});
  /// Duration events (phases "B"/"E"); must nest per thread, which the
  /// ScopedSpan RAII wrapper guarantees.
  void begin(std::string_view name, std::string_view category,
             std::initializer_list<TraceArg> args = {});
  void end(std::string_view name, std::string_view category);
  /// Counter event (phase "C") — Perfetto renders these as track graphs.
  void count(std::string_view name, std::string_view category,
             std::initializer_list<TraceArg> series);

  std::size_t events() const;

  /// Span-relevant slice of one captured event: just enough for the
  /// profile builder to replay per-thread B/E nesting.
  struct SpanEvent {
    char phase;
    std::uint64_t ts_us;
    std::uint32_t tid;
    std::string name;
  };
  /// Copy of every captured "B"/"E" event in capture order.
  std::vector<SpanEvent> span_events() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"}
  std::string to_json() const;

 private:
  struct Event {
    char phase;
    std::uint64_t ts_us;
    std::uint32_t tid;
    std::string name;
    std::string category;
    std::vector<std::pair<std::string, double>> args;
  };

  void push(char phase, std::string_view name, std::string_view category,
            std::initializer_list<TraceArg> args);

  std::atomic<bool> capturing_{false};
  mutable std::mutex mu_;
  std::uint64_t epoch_ns_ = 0;
  std::vector<Event> events_;
};

/// True when the global recorder is capturing — the cheap guard for emit
/// sites that would otherwise build argument lists for nothing.
inline bool trace_enabled() { return TraceRecorder::global().capturing(); }

/// RAII "B"/"E" pair on the global recorder. A disabled span copies
/// nothing, so it never allocates whatever the name's length.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, std::string_view category,
             std::initializer_list<TraceArg> args = {})
      : active_(trace_enabled()) {
    if (!active_) return;
    name_ = name;
    category_ = category;
    TraceRecorder::global().begin(name_, category_, args);
  }
  ~ScopedSpan() {
    if (active_) TraceRecorder::global().end(name_, category_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  std::string name_;
  std::string category_;
};

}  // namespace prlc::obs
