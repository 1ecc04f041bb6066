// Deterministic discrete-event queue: a binary heap (std::push_heap /
// std::pop_heap) with the earliest (fire time, insertion sequence) on top.
//
// std::priority_queue over doubles alone would leave simultaneous events
// (repairs completing in lockstep) in unspecified
// relative order — and the simulator's bit-identical-at-any-thread-count
// contract cannot tolerate "unspecified". The tie-break by a per-queue
// monotone sequence number makes the order total: two events never
// compare equal, so pop order is a pure function of push order (every
// valid heap pops the same sequence), and a whole cluster lifetime replays
// identically from its seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace prlc::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time = 0;
    std::uint64_t seq = 0;  ///< insertion order; the total-order tie-break
    Payload payload{};

    /// Strict weak ordering by (time, seq); seq is unique per queue, so
    /// this is a total order.
    bool before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::size_t max_size_seen() const { return max_size_; }

  /// Earliest pending entry; requires non-empty.
  const Entry& top() const {
    PRLC_REQUIRE(!heap_.empty(), "top() on an empty event queue");
    return heap_.front();
  }

  void push(double time, Payload payload) {
    heap_.push_back(Entry{time, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), later);
    if (heap_.size() > max_size_) max_size_ = heap_.size();
  }

  /// Pop the earliest entry; requires non-empty.
  Entry pop() {
    PRLC_REQUIRE(!heap_.empty(), "pop() on an empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry out = std::move(heap_.back());
    heap_.pop_back();
    return out;
  }

 private:
  /// The std heap algorithms keep the greatest entry on top, so the
  /// earliest entry must compare greatest.
  static bool later(const Entry& a, const Entry& b) { return b.before(a); }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace prlc::sim
