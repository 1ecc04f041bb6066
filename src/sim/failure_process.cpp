#include "sim/failure_process.h"

#include <cmath>

#include "util/check.h"

namespace prlc::sim {

PoissonFailureProcess::PoissonFailureProcess(double rate) : rate_(rate) {
  PRLC_REQUIRE(rate > 0.0, "poisson churn rate must be positive");
}

std::optional<FailureEvent> PoissonFailureProcess::next(std::span<const std::uint8_t> alive,
                                                        std::size_t alive_count, Rng& rng,
                                                        double until) {
  if (!pending_time_.has_value()) {
    if (alive_count == 0) return std::nullopt;
    // Superposition of `alive_count` iid Exp(rate) clocks: the next failure
    // is Exp(alive_count * rate) away and hits a uniformly random alive node.
    const double u = rng.uniform_double();  // in [0, 1) => 1 - u > 0
    pending_time_ = now_ - std::log(1.0 - u) / (rate_ * static_cast<double>(alive_count));
  }
  if (*pending_time_ > until) return std::nullopt;  // keep the drawn gap cached
  now_ = *pending_time_;
  pending_time_.reset();
  // Rejection-sample the victim over the slots. Expected iterations are
  // slots/alive — O(1) while the population stays healthy, which the
  // simulator's replacement model guarantees.
  while (true) {
    const auto v = static_cast<std::uint32_t>(rng.uniform(alive.size()));
    if (alive[v] != 0) return FailureEvent{now_, v};
  }
}

void FailureModelConfig::validate() const {
  switch (kind) {
    case Kind::kNone:
      return;
    case Kind::kPoisson:
      PRLC_REQUIRE(churn_rate > 0.0, "poisson churn rate must be positive");
      return;
  }
  PRLC_ASSERT(false, "unknown failure model kind");
}

}  // namespace prlc::sim
