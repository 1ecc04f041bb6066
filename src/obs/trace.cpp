#include "obs/trace.h"

#include "obs/metrics.h"
#include "util/json.h"

namespace prlc::obs {

namespace {

/// Per-thread trace ordinal, assigned on a thread's first push. The main
/// (first-emitting) thread gets tid 1, matching the historical constant.
std::atomic<std::uint32_t> g_next_tid{1};

std::uint32_t this_thread_tid() {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* r = new TraceRecorder();  // leaked: see Registry::global
  return *r;
}

void TraceRecorder::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch_ns_ == 0) epoch_ns_ = now_ns();
  capturing_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::stop() { capturing_.store(false, std::memory_order_relaxed); }

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  epoch_ns_ = 0;
}

void TraceRecorder::push(char phase, std::string_view name, std::string_view category,
                         std::initializer_list<TraceArg> args) {
  if (!capturing()) return;
  const std::uint64_t now = now_ns();
  const std::uint32_t tid = this_thread_tid();
  std::lock_guard<std::mutex> lock(mu_);
  Event& e = events_.emplace_back();
  e.phase = phase;
  e.ts_us = (now - epoch_ns_) / 1000;
  e.tid = tid;
  e.name = name;
  e.category = category;
  e.args.reserve(args.size());
  for (const auto& [k, v] : args) e.args.emplace_back(std::string(k), v);
}

void TraceRecorder::instant(std::string_view name, std::string_view category,
                            std::initializer_list<TraceArg> args) {
  push('i', name, category, args);
}

void TraceRecorder::begin(std::string_view name, std::string_view category,
                          std::initializer_list<TraceArg> args) {
  push('B', name, category, args);
}

void TraceRecorder::end(std::string_view name, std::string_view category) {
  push('E', name, category, {});
}

void TraceRecorder::count(std::string_view name, std::string_view category,
                          std::initializer_list<TraceArg> series) {
  push('C', name, category, series);
}

std::size_t TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceRecorder::SpanEvent> TraceRecorder::span_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanEvent> out;
  for (const Event& e : events_) {
    if (e.phase != 'B' && e.phase != 'E') continue;
    out.push_back(SpanEvent{e.phase, e.ts_us, e.tid, e.name});
  }
  return out;
}

std::string TraceRecorder::to_json() const {
  json::Value list = json::Value::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      json::Value ev = json::Value::object();
      ev.set("name", e.name);
      ev.set("cat", e.category);
      ev.set("ph", std::string(1, e.phase));
      ev.set("ts", e.ts_us);
      ev.set("pid", 1);
      ev.set("tid", static_cast<std::uint64_t>(e.tid));
      if (e.phase == 'i') ev.set("s", "p");  // process-scoped instant
      if (!e.args.empty()) {
        json::Value args = json::Value::object();
        for (const auto& [k, v] : e.args) args.set(k, v);
        ev.set("args", std::move(args));
      }
      list.push_back(std::move(ev));
    }
  }
  json::Value root = json::Value::object();
  root.set("traceEvents", std::move(list));
  root.set("displayTimeUnit", "ms");
  return root.dump(1);
}

}  // namespace prlc::obs
