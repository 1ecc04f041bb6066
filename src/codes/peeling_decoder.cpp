#include "codes/peeling_decoder.h"

#include <algorithm>
#include <deque>

namespace prlc::codes {

PeelingDecoder::PeelingDecoder(std::size_t unknowns)
    : decoded_(unknowns, false), waiters_(unknowns) {
  PRLC_REQUIRE(unknowns > 0, "decoder needs at least one unknown");
}

std::size_t PeelingDecoder::add(std::span<const std::size_t> indices) {
  PRLC_REQUIRE(!indices.empty(), "a symbol must cover at least one source block");
  // Validate the *raw* index span, before decoded blocks are dropped from
  // it: a duplicate is rejected even when its block is already decoded.
  for (std::size_t i : indices) {
    PRLC_REQUIRE(i < decoded_.size(), "symbol index out of range");
  }
  scratch_.assign(indices.begin(), indices.end());
  std::sort(scratch_.begin(), scratch_.end());
  PRLC_REQUIRE(std::adjacent_find(scratch_.begin(), scratch_.end()) == scratch_.end(),
               "symbol indices must be distinct");

  Symbol sym;
  for (std::size_t i : indices) {
    if (!decoded_[i]) sym.pending.push_back(i);
  }

  std::size_t newly = 0;
  if (sym.pending.empty()) return 0;  // fully redundant
  if (sym.pending.size() == 1) {
    resolve(sym.pending[0], newly);
    return newly;
  }
  const std::size_t id = symbols_.size();
  for (std::size_t i : sym.pending) waiters_[i].push_back(id);
  symbols_.push_back(std::move(sym));
  ++buffered_;
  return 0;
}

void PeelingDecoder::retire(Symbol& sym) {
  sym.retired = true;
  --buffered_;
  // Release the buffer outright (clear() keeps capacity): resident memory
  // stays bounded by the live symbol set.
  std::vector<std::size_t>().swap(sym.pending);
}

void PeelingDecoder::resolve(std::size_t first, std::size_t& newly) {
  std::deque<std::size_t> queue{first};
  while (!queue.empty()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    if (decoded_[i]) continue;
    decoded_[i] = true;
    ++decoded_count_;
    ++newly;
    // Reduce every buffered symbol waiting on i.
    for (std::size_t id : waiters_[i]) {
      Symbol& sym = symbols_[id];
      if (sym.retired) continue;
      const auto it = std::find(sym.pending.begin(), sym.pending.end(), i);
      if (it == sym.pending.end()) continue;
      sym.pending.erase(it);
      if (sym.pending.size() == 1) {
        const std::size_t last = sym.pending[0];
        if (!decoded_[last]) queue.push_back(last);
        retire(sym);
      } else if (sym.pending.empty()) {
        retire(sym);
      }
    }
    waiters_[i].clear();
  }
}

}  // namespace prlc::codes
