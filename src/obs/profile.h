// Span aggregation: fold TraceRecorder "B"/"E" events into a self/total
// time profile tree.
//
// The trace is a flat, mutex-ordered event list; spans nest per thread
// (ScopedSpan guarantees LIFO within a thread). The builder replays one
// B/E stack per tid and merges same-named children at each level, so
// `decode` called 50 times under `trial` becomes one node with count 50.
// Threads merge into the same tree — a span name means the same work
// regardless of which thread ran it.
//
// Robustness over strictness: an unmatched "E" is ignored, and spans left
// open at the end of the trace are closed at the last observed timestamp,
// so a profile can be built from a trace that was stopped mid-run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace prlc::obs {

struct ProfileNode {
  std::string name;
  std::uint64_t count = 0;     ///< times a span with this name+path closed
  std::uint64_t total_us = 0;  ///< wall time including children
  std::uint64_t self_us = 0;   ///< total minus time attributed to children
  std::vector<ProfileNode> children;  ///< sorted by name
};

/// Aggregate the recorder's captured spans into a forest under a synthetic
/// root named "root" (total = sum of top-level spans). Deterministic for a
/// fixed event list: children sorted by name at every level.
ProfileNode build_profile(const TraceRecorder& rec);
ProfileNode build_profile(const std::vector<TraceRecorder::SpanEvent>& events);

/// {"name","count","total_us","self_us","children":[...]} — children in
/// name order, matching the in-memory tree.
std::string profile_to_json(const ProfileNode& root);

/// Indented human-readable rendering for `prlc metrics`:
///   root                total 1234us
///     decode   x50      total 1000us  self 400us
std::string profile_to_text(const ProfileNode& root);

}  // namespace prlc::obs
