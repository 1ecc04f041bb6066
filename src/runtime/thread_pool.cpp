#include "runtime/thread_pool.h"

#include <string>

#include "obs/metrics.h"

namespace prlc::runtime {

namespace {

// Which pool (if any) owns the current thread. Lets submit() push onto
// the owning worker's deque and lets nested pools coexist: a worker of
// pool A creating pool B is an external client of B.
thread_local ThreadPool* t_pool = nullptr;
thread_local std::size_t t_index = 0;

}  // namespace

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_thread_count() : threads;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  obs::gauge("runtime.pool.threads").set(static_cast<std::int64_t>(n));
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_index = index;
  // Resolved once per worker: registry lookups are mutex-guarded.
  obs::Counter& busy_ns = obs::counter("runtime.pool.t" + std::to_string(index) + ".busy_ns");
  obs::Counter& tasks_run = obs::counter("runtime.pool.t" + std::to_string(index) + ".tasks");
  for (;;) {
    auto task = take_task();
    if (task.has_value()) {
      const bool timed = obs::enabled();
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      run_task(*task);
      if (timed) {
        busy_ns.add(obs::now_ns() - t0);
        tasks_run.add();
      }
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    if (stop_) return;  // queues drained (the take above failed)
    wake_cv_.wait(lk, [&] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t target;
  if (t_pool == this) {
    target = t_index;  // depth-first on the owning worker, thieves take FIFO
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lk(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Empty critical section: a worker between its predicate check and the
  // cv block holds wake_mu_, so taking it here makes the notify visible.
  { std::lock_guard<std::mutex> lk(wake_mu_); }
  wake_cv_.notify_one();
}

std::optional<std::function<void()>> ThreadPool::take_task() {
  static obs::Counter& taken = obs::counter("runtime.pool.tasks");
  static obs::Counter& steals = obs::counter("runtime.pool.steals");
  const std::size_t n = queues_.size();
  const bool local = t_pool == this;
  const std::size_t home = local ? t_index : 0;
  if (local) {
    Queue& q = *queues_[home];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.back());
      q.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      taken.add();
      return task;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (home + 1 + k) % n;
    if (local && idx == home) continue;
    Queue& q = *queues_[idx];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.front());
      q.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      taken.add();
      if (local) steals.add();
      return task;
    }
  }
  return std::nullopt;
}

bool ThreadPool::try_run_one() {
  auto task = take_task();
  if (!task.has_value()) return false;
  static obs::Counter& helper_runs = obs::counter("runtime.pool.helper_runs");
  helper_runs.add();
  run_task(*task);
  return true;
}

void ThreadPool::run_task(std::function<void()>& task) {
  // submit()/for_each_index() wrappers capture exceptions themselves, so
  // a throw escaping here is an internal-enqueue bug; let it terminate
  // loudly rather than vanish.
  task();
}

}  // namespace prlc::runtime
