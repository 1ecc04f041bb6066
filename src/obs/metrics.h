// Process-wide metrics: counters, gauges, log-bucketed latency histograms.
//
// Design contract — zero overhead when disabled:
//   * Every probe (Counter::add, Gauge::set, LatencyHistogram::record)
//     first branches on a single process-wide relaxed atomic flag. When
//     metrics are off the probe is a load + predictable branch and
//     touches no shared cache line, so instrumenting a hot loop does not
//     change its throughput (the perf_codec axpy numbers are the
//     regression check).
//   * The flag starts off; binaries that export metrics (`--metrics-json`,
//     `--trace-json`, `prlc metrics`) call set_enabled(true) before doing
//     work.
//
// Metrics live in a process-wide Registry keyed by hierarchical names
// ("decoder.rows_innovative", "gf256.axpy_bytes"). Lookup is find-or-
// create under a mutex and returns a stable reference, so hot paths
// resolve their metric once into a function-local static and pay only
// the atomic update afterwards:
//
//   static obs::Counter& rows = obs::counter("decoder.rows_received");
//   rows.add();
//
// All metric updates are relaxed atomics: safe under concurrent writers,
// no ordering guarantees between different metrics (readers see a
// near-consistent snapshot, which is all an exporter needs). The one
// export is Registry::to_json(); callers hand the string to
// json::write_file. There is no scope-timer type: timing a scope is
// obs::ScopedSpan's job (obs/trace.h), and the rare duration histogram
// (runtime.trial_ns) records an obs::now_ns() difference itself. A
// per-tick view of a value belongs in the journal (obs/events.h).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace prlc::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// Master probe switch. Starts off; set_enabled() arms it.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value metric (survivor counts, watermark levels). Signed so it
/// can also track deltas via add().
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (enabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raise to `v` if larger (high-watermark tracking).
  void set_max(std::int64_t v) noexcept {
    if (!enabled()) return;
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram of nonnegative integer samples (any magnitude:
/// microseconds, bytes, rows, survivors).
// Bucket i counts samples whose bit width is i, i.e. [2^(i-1), 2^i);
// quantiles interpolate linearly inside the bucket, so a reported
// quantile is within a factor of 2 of the exact order statistic (the
// metrics_test checks this against util/stats' exact quantile()).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 ∈ [0, 64]

  void record(std::uint64_t v) noexcept {
    if (!enabled()) return;
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Approximate quantile (q in [0,1]); 0 when empty. Within 2x of the
  /// exact order statistic by the bucket-width bound.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Process-wide metric registry. Names are unique across kinds: asking
/// for counter("x") after gauge("x") exists is a precondition error —
/// exporters would otherwise emit ambiguous rows.
class Registry {
 public:
  /// The process-wide instance used by the free helpers below.
  static Registry& global();

  /// Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Zero every metric's value; registrations (and references) survive.
  void reset_values();

  /// {"counters": {name: value}, "gauges": {...},
  ///  "histograms": {name: {count, sum, mean, p50, p90, p99, max}}}
  /// Names sorted within each section; stable across runs.
  std::string to_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry& find_or_create(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  // std::map: node-based, so Entry addresses are stable across inserts.
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Shorthands for Registry::global().
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
LatencyHistogram& histogram(std::string_view name);

/// Monotonic nanoseconds (steady clock): the trace layer's timestamps and
/// the benches' stopwatches.
std::uint64_t now_ns() noexcept;

}  // namespace prlc::obs
