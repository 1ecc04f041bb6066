// Fixed-size thread pool with one operation, for_each_index(n, fn): the
// calling thread and the pool's persistent workers claim indices from one
// shared atomic counter until all n calls have run. TrialRunner runs one
// Monte-Carlo trial per index and PayloadCodec::encode one block of rows;
// claiming one index at a time balances trials whose latencies vary 10x.
//
//   * ThreadPool(N) runs every loop on exactly N threads: N-1 workers plus
//     the caller. ThreadPool(1) starts no thread and runs loops inline.
//   * Every index runs even when some throw; the loop then rethrows the
//     exception of the lowest failing index, whatever the thread count.
//   * One loop at a time: calling for_each_index from inside fn, or from
//     another thread while a loop runs, throws PreconditionError.
//
// Per-thread utilization lands in the obs registry as
// "runtime.pool.t<i>.busy_ns" and ".tasks"; t0 is the calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace prlc::obs {
class Counter;
}

namespace prlc::runtime {

class ThreadPool {
 public:
  /// `threads` threads, the calling thread included; 0 = one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads every loop runs on, the calling thread included.
  std::size_t thread_count() const { return probes_.size(); }

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static std::size_t default_thread_count() {
    return std::max(1u, std::thread::hardware_concurrency());
  }

  /// Run fn(i) for every i in [0, n) on the pool's threads; once all n calls
  /// have run, rethrow the exception of the lowest index that threw, if any.
  template <typename F>
  void for_each_index(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run(n, [](void* f, std::size_t i) { (*static_cast<Fn*>(f))(i); },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  using Call = void (*)(void* fn, std::size_t index);
  struct Probes {
    obs::Counter* busy_ns;
    obs::Counter* tasks;
  };

  void run(std::size_t n, Call call, void* fn);
  void worker_loop(std::size_t thread);
  /// Claim and run indices of the current loop until none are left.
  void drain(std::size_t thread);

  std::vector<Probes> probes_;  // one per thread; [0] is the caller

  // Loop state, guarded by mu_ except the two index counters. The caller
  // writes a loop's fields while no worker is active_, bumps loop_ to wake
  // the workers and returns once remaining_ is 0; a late worker finds no
  // index left, so it never calls fn after that.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  bool busy_ = false;
  std::uint64_t loop_ = 0;
  std::size_t active_ = 0;  // workers inside drain()
  Call call_ = nullptr;
  void* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};       // next index to claim
  std::atomic<std::size_t> remaining_{0};  // indices not yet run
  std::size_t error_index_ = 0;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace prlc::runtime
