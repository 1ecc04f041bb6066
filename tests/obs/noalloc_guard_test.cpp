// Zero-allocation guard for the telemetry hot paths.
//
// Separate test binary: it replaces the global operator new/delete with
// counting versions, which must not leak into the other test targets.
// The counters only count while armed, so gtest's own allocations stay
// invisible; each probe is exercised inside an armed window and the
// window must close with zero allocations.
//
// Two contracts are asserted:
//   * disabled probes (the default in production) never allocate, and
//   * enabled emit/sample inside an open TrialScope never allocate —
//     the rings preallocate at scope open, the emit is stores only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// One out-of-line delete owns the free(); the other three forward to it.
// Inlined free() calls beside gtest's `new TestClass` would otherwise trip
// GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace prlc::obs {
namespace {

/// Run `body` with the allocation counter armed; return allocations seen.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  body();
  g_armed.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(NoAllocGuard, DisabledProbesNeverAllocate) {
  // Resolve every handle before arming: registration itself allocates.
  Counter& ctr = counter("test.noalloc.counter");
  Gauge& gauge_ = gauge("test.noalloc.gauge");
  LatencyHistogram& hist = histogram("test.noalloc.hist");
  const SeriesId id = timeseries("test.noalloc.series");
  set_enabled(false);
  set_telemetry_enabled(false);
  ASSERT_FALSE(trace_enabled());  // also creates the global recorder

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      ctr.add(1);
      gauge_.set(i);
      hist.record(17);
      // Name and category past any small-string buffer (25 bytes each).
      { ScopedSpan span("test.noalloc.span.25bytes", "test.noalloc.category.25b"); }
      emit(EventType::kPeel, 1.0);
      emit(EventType::kFetchRetry, 1.0, 2.0);
      sample(id, 3.0);
      set_logical_time(static_cast<std::uint64_t>(i));
      TrialScope scope(0, 0);  // disabled: must not open or preallocate
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(NoAllocGuard, EnabledEmitAndSampleAreStoresOnly) {
  const SeriesId id = timeseries("test.noalloc.enabled.series");
  reset_telemetry();
  set_telemetry_enabled(true);
  {
    // Scope open preallocates the rings — outside the armed window.
    TrialScope scope(begin_telemetry_run(), 0);
    const std::uint64_t allocs = allocations_during([&] {
      for (int i = 0; i < 1000; ++i) {
        set_logical_time(static_cast<std::uint64_t>(i));
        emit(EventType::kPeel, static_cast<double>(i));
        emit(EventType::kWatermarkAdvance, 1.0, 2.0);
        sample(id, static_cast<double>(i));
      }
    });
    EXPECT_EQ(allocs, 0u);
  }
  set_telemetry_enabled(false);
  reset_telemetry();
}

}  // namespace
}  // namespace prlc::obs
