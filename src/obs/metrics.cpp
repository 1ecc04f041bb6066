#include "obs/metrics.h"

#include <chrono>

#include "util/check.h"
#include "util/json.h"

namespace prlc::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

double LatencyHistogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double LatencyHistogram::quantile(double q) const {
  PRLC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order must be in [0,1]");
  // Snapshot the buckets once; concurrent writers may race individual
  // increments but each bucket read is atomic.
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  // Rank of the requested order statistic (nearest-rank, 1-based).
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    // Interpolate linearly inside bucket i = [2^(i-1), 2^i) (bucket 0 is
    // the single value 0).
    if (i == 0) return 0.0;
    const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
    const double hi = lo * 2.0;
    const double within =
        static_cast<double>(rank - seen - 1) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * within;
  }
  return static_cast<double>(max_value());
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: usable during static destruction
  return *r;
}

Registry::Entry& Registry::find_or_create(std::string_view name, Kind kind) {
  PRLC_REQUIRE(!name.empty(), "metric name must be nonempty");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    PRLC_REQUIRE(it->second.kind == kind,
                 "metric '" + std::string(name) + "' already registered with another kind");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<LatencyHistogram>();
      break;
  }
  return entries_.emplace(std::string(name), std::move(entry)).first->second;
}

Counter& Registry::counter(std::string_view name) {
  return *find_or_create(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *find_or_create(name, Kind::kGauge).gauge;
}

LatencyHistogram& Registry::histogram(std::string_view name) {
  return *find_or_create(name, Kind::kHistogram).histogram;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->reset();
        break;
      case Kind::kGauge:
        entry.gauge->reset();
        break;
      case Kind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

std::string Registry::to_json() const {
  json::Value counters = json::Value::object();
  json::Value gauges = json::Value::object();
  json::Value histograms = json::Value::object();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) {  // std::map: already sorted
      switch (entry.kind) {
        case Kind::kCounter:
          counters.set(name, entry.counter->value());
          break;
        case Kind::kGauge:
          gauges.set(name, entry.gauge->value());
          break;
        case Kind::kHistogram: {
          const LatencyHistogram& h = *entry.histogram;
          json::Value stats = json::Value::object();
          stats.set("count", h.count());
          stats.set("sum", h.sum());
          stats.set("mean", h.mean());
          stats.set("p50", h.p50());
          stats.set("p90", h.p90());
          stats.set("p99", h.p99());
          stats.set("max", h.max_value());
          histograms.set(name, std::move(stats));
          break;
        }
      }
    }
  }
  json::Value root = json::Value::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root.dump(2);
}

Counter& counter(std::string_view name) { return Registry::global().counter(name); }
Gauge& gauge(std::string_view name) { return Registry::global().gauge(name); }
LatencyHistogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace prlc::obs
