#include "obs/events.h"

#include <algorithm>

#include "util/check.h"
#include "util/json.h"

namespace prlc::obs {

namespace detail {

namespace {

/// The currently recording trial, one per thread. Only TrialScope mutates
/// `active`; the record paths read it.
thread_local TrialContext t_ctx;

std::atomic<std::uint64_t> g_next_run{0};

/// Ring write shared by events and samples: overwrite-oldest once the
/// preallocated capacity is full.
template <typename Rec>
void ring_push(Ring<Rec>& ring, Rec rec) {
  const std::size_t cap = Journal::global().trial_capacity();
  if (ring.slots.size() < cap) {
    ring.slots.push_back(rec);
  } else if (cap > 0) {
    ring.slots[static_cast<std::size_t>(ring.emitted % cap)] = rec;
  }
  ++ring.emitted;
}

/// Unroll a ring into chronological order: when it overflowed, the oldest
/// surviving record sits at emitted % size.
template <typename Rec>
std::vector<Rec> ring_unroll(Ring<Rec>& ring) {
  std::vector<Rec>& slots = ring.slots;
  if (ring.emitted > slots.size() && !slots.empty()) {
    std::rotate(slots.begin(),
                slots.begin() + static_cast<std::ptrdiff_t>(ring.emitted % slots.size()),
                slots.end());
  }
  return std::move(slots);
}

}  // namespace

std::atomic<bool> g_telemetry_enabled{false};

void emit_slow(EventType type, std::uint8_t argc, double a0, double a1, double a2) {
  TrialContext& ctx = t_ctx;
  if (!ctx.active) return;
  ring_push(ctx.events, Event{ctx.t, static_cast<std::uint32_t>(ctx.events.emitted), type,
                              argc, {a0, a1, a2}});
}

void sample_slow(SeriesId series, double value) {
  TrialContext& ctx = t_ctx;
  if (!ctx.active) return;
  ring_push(ctx.samples,
            Sample{series, static_cast<std::uint32_t>(ctx.samples.emitted), ctx.t, value});
}

void set_logical_time_slow(std::uint64_t t) {
  if (t_ctx.active) t_ctx.t = t;
}

}  // namespace detail

void set_telemetry_enabled(bool on) {
  detail::g_telemetry_enabled.store(on, std::memory_order_relaxed);
}

SeriesId timeseries(std::string_view name) { return Journal::global().series(name); }

std::uint64_t begin_telemetry_run() {
  return detail::g_next_run.fetch_add(1, std::memory_order_relaxed);
}

void TrialScope::open(std::uint64_t run, std::uint64_t trial) {
  using detail::t_ctx;
  saved_ = std::move(t_ctx);
  t_ctx = detail::TrialContext{};
  t_ctx.active = true;
  t_ctx.run = static_cast<std::int64_t>(run);
  t_ctx.trial = trial;
  const std::size_t cap = Journal::global().trial_capacity();
  t_ctx.events.slots.reserve(cap);
  t_ctx.samples.slots.reserve(cap);
  opened_ = true;
}

void TrialScope::close() {
  using detail::t_ctx;
  if (t_ctx.events.emitted > 0 || t_ctx.samples.emitted > 0) {
    Journal::global().flush_trial(std::move(t_ctx));
  }
  t_ctx = std::move(saved_);
}

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kNodeFailed:
      return "node_failed";
    case EventType::kRefreshRound:
      return "refresh_round";
    case EventType::kFetchRetry:
      return "fetch_retry";
    case EventType::kFetchHedged:
      return "fetch_hedged";
    case EventType::kBudgetExhausted:
      return "budget_exhausted";
    case EventType::kWatermarkAdvance:
      return "watermark_advance";
    case EventType::kPeel:
      return "peel";
    case EventType::kIntegrityViolation:
      return "integrity_violation";
    case EventType::kNodeQuarantined:
      return "node_quarantined";
  }
  PRLC_ASSERT(false, "unknown event type");
}

const EventArgNames& event_arg_names(EventType type) {
  static const EventArgNames kTables[kEventTypeCount] = {
      /* kNodeFailed       */ {{"node", nullptr, nullptr}},
      /* kRefreshRound     */ {{"rebuilt", "unrecoverable", "lost"}},
      /* kFetchRetry       */ {{"node", "attempt", nullptr}},
      /* kFetchHedged      */ {{"node", nullptr, nullptr}},
      /* kBudgetExhausted  */ {{"node", "faults", nullptr}},
      /* kWatermarkAdvance */ {{"prefix_blocks", "equations", nullptr}},
      /* kPeel             */ {{"pivot", nullptr, nullptr}},
      /* kIntegrityViolation */ {{"node", "location", nullptr}},
      /* kNodeQuarantined    */ {{"node", nullptr, nullptr}},
  };
  const auto idx = static_cast<std::size_t>(type);
  PRLC_ASSERT(idx < kEventTypeCount, "unknown event type");
  return kTables[idx];
}

Journal& Journal::global() {
  static Journal* j = new Journal();  // leaked: see Registry::global
  return *j;
}

SeriesId Journal::series(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < series_names_.size(); ++i) {
    if (series_names_[i] == name) return static_cast<SeriesId>(i);
  }
  series_names_.emplace_back(name);
  return static_cast<SeriesId>(series_names_.size() - 1);
}

void Journal::set_trial_capacity(std::size_t cap) {
  capacity_.store(cap, std::memory_order_relaxed);
}

std::size_t Journal::trial_capacity() const {
  return capacity_.load(std::memory_order_relaxed);
}

std::uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Journal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_ = 0;
}

void Journal::flush_trial(detail::TrialContext&& ctx) {
  const std::uint64_t lost = (ctx.events.emitted - ctx.events.slots.size()) +
                             (ctx.samples.emitted - ctx.samples.slots.size());
  detail::TrialRecord record{ctx.run, ctx.trial, detail::ring_unroll(ctx.events),
                             detail::ring_unroll(ctx.samples)};
  std::lock_guard<std::mutex> lock(mu_);
  dropped_ += lost;
  records_.push_back(std::move(record));
}

namespace {

/// One kind's export: its records from every trial sorted by
/// (run, trial, t, seq), one JSON object per line. `fields` appends the
/// kind's own keys after the four coordinates.
template <typename Rec, typename Fields>
std::string export_jsonl(const std::vector<detail::TrialRecord>& records,
                         std::vector<Rec> detail::TrialRecord::*ring, Fields&& fields) {
  struct Flat {
    const detail::TrialRecord* trial;
    const Rec* rec;
  };
  std::vector<Flat> flat;
  for (const detail::TrialRecord& r : records) {
    for (const Rec& rec : r.*ring) flat.push_back(Flat{&r, &rec});
  }
  std::stable_sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    if (a.trial->run != b.trial->run) return a.trial->run < b.trial->run;
    if (a.trial->trial != b.trial->trial) return a.trial->trial < b.trial->trial;
    if (a.rec->t != b.rec->t) return a.rec->t < b.rec->t;
    return a.rec->seq < b.rec->seq;
  });
  std::string out;
  for (const Flat& f : flat) {
    json::Value line = json::Value::object();
    line.set("run", json::Value(f.trial->run));
    line.set("trial", json::Value(f.trial->trial));
    line.set("t", json::Value(f.rec->t));
    line.set("seq", json::Value(static_cast<std::uint64_t>(f.rec->seq)));
    fields(line, *f.rec);
    out += line.dump(-1);
    out.push_back('\n');
  }
  return out;
}

}  // namespace

std::string Journal::events_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  return export_jsonl(records_, &detail::TrialRecord::events,
                      [](json::Value& line, const detail::Event& e) {
                        line.set("event", json::Value(to_string(e.type)));
                        const EventArgNames& names = event_arg_names(e.type);
                        for (std::size_t a = 0; a < e.argc && names.names[a] != nullptr; ++a) {
                          line.set(names.names[a], json::Value(e.args[a]));
                        }
                      });
}

std::string Journal::timeseries_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  return export_jsonl(records_, &detail::TrialRecord::samples,
                      [this](json::Value& line, const detail::Sample& s) {
                        line.set("series", json::Value(s.series < series_names_.size()
                                                           ? series_names_[s.series]
                                                           : std::string("unknown")));
                        line.set("value", json::Value(s.value));
                      });
}

void reset_telemetry() {
  Journal::global().clear();
  detail::g_next_run.store(0, std::memory_order_relaxed);
}

}  // namespace prlc::obs
