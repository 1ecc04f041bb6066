#include "runtime/thread_pool.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace prlc::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_thread_count() : threads;
  obs::gauge("runtime.pool.threads").set(static_cast<std::int64_t>(n));
  // Resolved once per pool: registry lookups are mutex-guarded.
  for (std::size_t t = 0; t < n; ++t) {
    const std::string prefix = "runtime.pool.t" + std::to_string(t);
    probes_.push_back({&obs::counter(prefix + ".busy_ns"), &obs::counter(prefix + ".tasks")});
  }
  for (std::size_t t = 1; t < n; ++t) workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::size_t n, Call call, void* fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    PRLC_REQUIRE(!busy_, "for_each_index called while a loop of this pool is running");
    if (n == 0) return;
    busy_ = true;
    // A worker that woke after the previous loop ended may still read it.
    done_cv_.wait(lk, [&] { return active_ == 0; });
    call_ = call;
    fn_ = fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    remaining_.store(n, std::memory_order_relaxed);
    error_index_ = n;
    ++loop_;
  }
  start_cv_.notify_all();
  drain(0);
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return remaining_.load(std::memory_order_acquire) == 0; });
  busy_ = false;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::worker_loop(std::size_t thread) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || loop_ != seen; });
      if (stop_) return;
      seen = loop_;
      ++active_;
    }
    drain(thread);
    std::lock_guard<std::mutex> lk(mu_);
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::drain(std::size_t thread) {
  std::size_t i = 0;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < n_) {
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    try {
      call_(fn_, i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
    probes_[thread].tasks->add();
    if (timed) probes_[thread].busy_ns->add(obs::now_ns() - t0);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_one();
    }
  }
}

}  // namespace prlc::runtime
