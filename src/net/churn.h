// Node churn and failure models (Sec. 2: "all nodes in the network may
// depart or fail unpredictably").
//
// Three models churn an overlay in place:
//  * uniform mass failure — a fraction f of nodes dies simultaneously
//    (battery exhaustion waves, correlated crashes, snapshot churn);
//  * exponential lifetimes — each node dies independently by elapsed time
//    t with probability 1 - exp(-t / mean_lifetime) (memoryless session
//    lengths, the classic P2P churn model);
//  * session churn — nodes leave and rejoin empty.
// Each records its deaths the same way: the churn.* counters, one trace
// instant per batch and one node_failed journal event per death.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/overlay.h"
#include "util/random.h"

namespace prlc::net {

/// Kill floor(fraction * alive_count) alive nodes chosen uniformly at
/// random without replacement; returns the killed node ids. This is the
/// wave model of the persistence, fault and refresh sweeps; the cluster
/// simulator's continuous churn is sim::PoissonFailureProcess.
std::vector<NodeId> kill_uniform_fraction(Overlay& overlay, double fraction, Rng& rng);

/// Kill each currently-alive node independently with probability
/// 1 - exp(-elapsed / mean_lifetime); returns the killed node ids.
std::vector<NodeId> apply_exponential_churn(Overlay& overlay, double mean_lifetime,
                                            double elapsed, Rng& rng);

/// Death probability of the exponential-lifetime model.
double exponential_death_probability(double mean_lifetime, double elapsed);

/// One step of a join/leave session model (P2P churn is turnover, not
/// just decay): every alive node departs with `leave_prob`; every failed
/// node rejoins with `rejoin_prob` — as a *new* incarnation with empty
/// storage (see Overlay::generation). Returns {left, rejoined} counts.
std::pair<std::size_t, std::size_t> apply_session_churn(Overlay& overlay, double leave_prob,
                                                        double rejoin_prob, Rng& rng);

}  // namespace prlc::net
