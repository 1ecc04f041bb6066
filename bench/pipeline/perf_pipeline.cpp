// perf_pipeline — the repository's end-to-end benchmark (see README.md).
//
//   perf_pipeline <workload> [--seed N] [--seconds S] [--trials N]
//                 [--json out.json] [--trace-json trace.json]
//
// One closed-loop client on one thread runs ops of one workload back to
// back: an object lifecycle (store, churn, read, verify) or a cluster
// lifetime. Set-up builds the workload's fixture and runs its untimed
// warm-up ops, three times; setup_s is the median. Timed ops then run for
// --seconds (default 10), or exactly --trials ops, or, under
// PRLC_BENCH_FAST=1, 2% of the workload's full op count.
//
// Untraced, the result carries the end-to-end metrics. With --trace-json
// the run is the per-layer one. Half the time (a quarter of a fixed op
// count) runs untraced: the baseline for trace.overhead_frac. The other
// half (quarter) runs with obs metrics on and every library call under an
// obs::ScopedSpan, after which the read's per-frame work is replayed one
// span per call (pipeline::replay_read). The trace file keeps the last
// traced op's timeline.
//
// The last line of stdout is the result:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// --json writes it together with the host block, the deterministic
// outcomes and the latency tails. Exit status: 0, 1 when any op failed
// its check, 64 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gf/gf256_kernels.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/stats.h"

namespace {

using namespace prlc;
using namespace prlc::bench::pipeline;
using Clock = std::chrono::steady_clock;

constexpr int kUsageExit = 64;  // EX_USAGE
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMinTimedOps = 20;  // a time budget never yields fewer
constexpr double kDefaultSeconds = 10.0;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n"
            << "usage: perf_pipeline <small_objects|large_objects|faulty_l1|"
               "cluster_lifetime>\n"
            << "         [--seed N] [--seconds S] [--trials N] [--json out] "
               "[--trace-json trace]\n";
  std::exit(kUsageExit);
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(const std::vector<double>& v) { return v.empty() ? 0.0 : quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// How many timed ops a phase runs: exactly `ops`, else until `seconds`.
struct Budget {
  std::optional<std::size_t> ops;
  double seconds = kDefaultSeconds;

  bool more(std::size_t done, Clock::time_point start) const {
    if (ops) return done < *ops;
    return done < kMinTimedOps || seconds_since(start) < seconds;
  }
};

/// Host time of each timed op, by step (object ops fill all four).
struct Latencies {
  std::vector<double> op, store, churn, read;
};

/// Per-op sums of everything the library reports about an op. For a
/// fixed seed and op count every field repeats exactly.
struct Counts {
  std::size_t ops = 0;
  double messages = 0, hops = 0, axpy_bytes = 0;
  double attempts = 0, retrieved = 0, innovative = 0, retries = 0, hedges = 0;
  double blocks_lost = 0, quarantined = 0, wire_rejects = 0, integrity_rejects = 0;
  double levels = 0;
  std::vector<double> sim_latency_us;
  double events = 0, peak_queue = 0, repairs = 0, scrubs = 0;
  double rot_events = 0, rot_detected = 0, ttfl_l1 = 0, l1_lost = 0;

  void add(const LifecycleSample& s) {
    ++ops;
    messages += static_cast<double>(s.store.messages);
    hops += static_cast<double>(s.store.total_hops);
    axpy_bytes += static_cast<double>(s.axpy_bytes);
    const proto::CollectionOutcome& r = s.read;
    // Every fetch attempt ends as exactly one delivery or one detected fault.
    attempts += static_cast<double>(r.result.blocks_retrieved + r.faults.total());
    retrieved += static_cast<double>(r.result.blocks_retrieved);
    innovative += static_cast<double>(r.result.innovative_blocks);
    retries += static_cast<double>(r.retries);
    hedges += static_cast<double>(r.hedges);
    blocks_lost += static_cast<double>(r.blocks_lost);
    quarantined += static_cast<double>(r.quarantined_nodes);
    wire_rejects += static_cast<double>(r.faults.wire_errors);
    integrity_rejects += static_cast<double>(r.faults.integrity_violations);
    levels += static_cast<double>(r.result.decoded_levels);
    sim_latency_us.push_back(static_cast<double>(r.sim_elapsed_us));
  }

  void add(const TrialSample& s) {
    ++ops;
    const sim::LifetimeOutcome& o = s.outcome;
    events += static_cast<double>(o.events);
    peak_queue = std::max(peak_queue, static_cast<double>(o.peak_queue));
    repairs += static_cast<double>(o.repairs_completed);
    scrubs += static_cast<double>(o.scrub_scans);
    rot_events += static_cast<double>(o.rot_events);
    rot_detected += static_cast<double>(o.rot_detected);
    if (!o.first_loss.empty()) {
      ttfl_l1 += o.first_loss[0];
      l1_lost += o.lost[0] != 0 ? 1.0 : 0.0;
    }
  }

  double per_op(double sum) const { return ratio(sum, static_cast<double>(ops)); }
};

/// Call count and wall time of the benchmark's own spans, summed over
/// traced ops: the top-level ones and the replay's per-call ones. Spans
/// the library opens inside them are not counted again.
struct SpanLedger {
  struct Entry {
    std::uint64_t count = 0;
    double total_us = 0;
  };
  std::map<std::string, Entry> by_name;

  void add(const obs::ProfileNode& root) {
    for (const obs::ProfileNode& span : root.children) {
      add_span(span);
      if (span.name == "replay") {
        for (const obs::ProfileNode& call : span.children) add_span(call);
      }
    }
  }

  double total_us(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.total_us;
  }

 private:
  void add_span(const obs::ProfileNode& span) {
    Entry& e = by_name[span.name];
    e.count += span.count;
    e.total_us += static_cast<double>(span.total_us);
  }
};

/// What the traced phase measures beyond spans.
struct TracedTotals {
  std::size_t ops = 0;
  double axpy_bytes = 0, manifest_bytes = 0, back_elim_rows = 0;
  ReplayBytes replay;
};

json::Value host_block() {
  json::Value host = json::Value::object();
  host.set("cores", static_cast<double>(std::thread::hardware_concurrency()));
  host.set("gf_kernel", gf::gf256_kernel_name(gf::gf256_active_kernel()));
  json::Value flags = json::Value::object();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  flags.set("avx2", __builtin_cpu_supports("avx2") != 0);
  flags.set("avx512f", __builtin_cpu_supports("avx512f") != 0);
  flags.set("gfni", __builtin_cpu_supports("gfni") != 0);
  flags.set("vpclmulqdq", __builtin_cpu_supports("vpclmulqdq") != 0);
  flags.set("pclmul", __builtin_cpu_supports("pclmul") != 0);
#else
  for (const char* f : {"avx2", "avx512f", "gfni", "vpclmulqdq", "pclmul"}) flags.set(f, false);
#endif
  host.set("cpu_flags", std::move(flags));
  host.set("build_type", PRLC_BUILD_TYPE);
  host.set("compiler", PRLC_COMPILER);
  return host;
}

/// Best of five ~20 ms bursts of `body`, which processes `bytes` per call.
template <typename Body>
double peak_gbps(std::size_t bytes, Body body) {
  double best = 0;
  for (int burst = 0; burst < 5; ++burst) {
    const Clock::time_point start = Clock::now();
    std::size_t calls = 0;
    do {
      for (int i = 0; i < 16; ++i) body();
      calls += 16;
    } while (seconds_since(start) < 0.02);
    best = std::max(best, static_cast<double>(calls * bytes) / seconds_since(start) / 1e9);
  }
  return best;
}

/// The active GF(256) kernel's axpy on 16 KiB rows: the store's ceiling.
double axpy_peak_gbps() {
  constexpr std::size_t kRow = 16 * 1024;
  std::vector<std::uint8_t> x(kRow), y(kRow);
  for (std::size_t i = 0; i < kRow; ++i) x[i] = static_cast<std::uint8_t>(i * 131 + 7);
  const gf::Gf256KernelOps& ops = gf::gf256_active_ops();
  return peak_gbps(kRow, [&] { ops.axpy(y.data(), x.data(), 0x53, kRow); });
}

/// memcpy between 8 MiB buffers (the size of the largest working set):
/// the ceiling of the byte-streaming layers (manifest, verify).
double memcpy_gbps() {
  constexpr std::size_t kBytes = 8 << 20;
  std::vector<std::uint8_t> a(kBytes, 1), b(kBytes, 2);
  bool flip = false;
  return peak_gbps(kBytes, [&] {
    std::memcpy(flip ? a.data() : b.data(), flip ? b.data() : a.data(), kBytes);
    flip = !flip;
  });
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report
/// the launcher's peak (a Python parent's ~13 MiB) when that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // in KiB
}

void put(json::Value& metrics, const char* name, double value, const char* unit) {
  json::Value m = json::Value::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, std::move(m));
}

json::Value tails_point(const char* phase, const std::vector<double>& us) {
  json::Value p = json::Value::object();
  p.set("phase", phase);
  p.set("samples", static_cast<double>(us.size()));
  p.set("p50_us", median(us));
  if (const auto tail = tail_of(us)) {
    p.set("percentile", tail->percentile);
    p.set("tail_us", tail->value);
  }
  return p;
}

json::Value named_series(const char* name, json::Value points) {
  json::Value series = json::Value::object();
  series.set("name", name);
  series.set("points", std::move(points));
  return series;
}

/// The per-layer metrics that come from Counts alone. For a fixed seed
/// and op count they repeat exactly, so they double as the outcomes series
/// prlc_bench_diff compares. Layers a workload does not run read 0.
void put_counts(json::Value& m, const Counts& c) {
  put(m, "store.axpy_bytes_per_op", c.per_op(c.axpy_bytes), "B");
  put(m, "store.messages_per_op", c.per_op(c.messages), "count");
  put(m, "store.hops_per_op", c.per_op(c.hops), "count");
  put(m, "read.attempts_per_op", c.per_op(c.attempts), "count");
  put(m, "read.retries_per_op", c.per_op(c.retries), "count");
  put(m, "read.hedges_per_op", c.per_op(c.hedges), "count");
  put(m, "read.blocks_lost_per_op", c.per_op(c.blocks_lost), "count");
  put(m, "read.quarantined_per_op", c.per_op(c.quarantined), "count");
  put(m, "read.useful_fetch_ratio", ratio(c.innovative, c.attempts), "frac");
  put(m, "read.wire_rejects_per_op", c.per_op(c.wire_rejects), "count");
  put(m, "read.integrity_rejects_per_op", c.per_op(c.integrity_rejects), "count");
  put(m, "read.innovative_ratio", ratio(c.innovative, c.retrieved), "frac");
  put(m, "read.levels_decoded_mean", c.per_op(c.levels), "levels");
  put(m, "read.sim_latency_p50", median(c.sim_latency_us), "sim_us");
  put(m, "sim.events_per_trial", c.per_op(c.events), "count");
  put(m, "sim.peak_queue", c.peak_queue, "count");
  put(m, "sim.repairs_per_trial", c.per_op(c.repairs), "count");
  put(m, "sim.scrubs_per_trial", c.per_op(c.scrubs), "count");
  put(m, "sim.rot_detected_ratio", ratio(c.rot_detected, c.rot_events), "frac");
  put(m, "sim.ttfl_l1_mean", c.per_op(c.ttfl_l1), "sim_time");
  put(m, "sim.l1_loss_frac", c.per_op(c.l1_lost), "frac");
}

json::Value outcomes_point(const Counts& c) {
  json::Value metrics = json::Value::object();
  put_counts(metrics, c);
  json::Value p = json::Value::object();
  p.set("ops", static_cast<double>(c.ops));
  for (const auto& [name, metric] : metrics.members()) p.set(name, metric.at("value"));
  return p;
}

/// The per-layer ledger (see README.md for which end-to-end metric each
/// entry should move): the counts, then what the traced half measured.
void put_layers(json::Value& m, const Counts& c, const SpanLedger& spans,
                const TracedTotals& t, const Latencies& untraced, const Latencies& traced) {
  put_counts(m, c);
  const double axpy_peak = axpy_peak_gbps();
  const double memcpy_peak = memcpy_gbps();
  put(m, "gf.axpy_peak_gbps", axpy_peak, "GB/s");
  put(m, "host.memcpy_gbps", memcpy_peak, "GB/s");

  const double disseminate = spans.total_us("disseminate");
  const double manifest = spans.total_us("manifest");
  const double churn = spans.total_us("churn");
  const double collect = spans.total_us("collect");
  const double fetch = spans.total_us("fetch");
  const double wire = spans.total_us("wire_decode");
  const double verify = spans.total_us("verify");
  const double add = spans.total_us("decode_add");
  const double timed = disseminate + manifest + churn + collect;
  // bytes per microsecond = MB/s; GB/s is a further 1e3.
  const auto gbps = [](double bytes, double us) { return ratio(bytes, us) / 1e3; };
  const auto bytes_per_s = [](double bytes, double us) { return ratio(bytes, us) * 1e6; };

  put(m, "store.disseminate_share", ratio(disseminate, timed), "frac");
  const double axpy = gbps(t.axpy_bytes, disseminate);
  put(m, "store.axpy_gbps", axpy, "GB/s");
  put(m, "store.axpy_ceiling_frac", ratio(axpy, axpy_peak), "frac");
  put(m, "store.manifest_share", ratio(manifest, timed), "frac");
  put(m, "store.manifest_bytes_per_s", bytes_per_s(t.manifest_bytes, manifest), "B/s");
  put(m, "store.manifest_ceiling_frac", ratio(gbps(t.manifest_bytes, manifest), memcpy_peak),
      "frac");
  put(m, "churn.share", ratio(churn, timed), "frac");

  put(m, "read.collect_share", ratio(collect, timed), "frac");
  put(m, "read.attributed_frac", ratio(fetch + wire + verify + add, collect), "frac");
  put(m, "read.fetch_share", ratio(fetch, timed), "frac");
  put(m, "read.fetch_bytes_per_s", bytes_per_s(t.replay.fetch, fetch), "B/s");
  put(m, "read.wire_decode_share", ratio(wire, timed), "frac");
  put(m, "read.wire_decode_bytes_per_s", bytes_per_s(t.replay.wire, wire), "B/s");
  put(m, "read.verify_share", ratio(verify, timed), "frac");
  put(m, "read.verify_bytes_per_s", bytes_per_s(t.replay.verify, verify), "B/s");
  put(m, "read.verify_ceiling_frac", ratio(gbps(t.replay.verify, verify), memcpy_peak), "frac");
  put(m, "read.decode_add_share", ratio(add, timed), "frac");
  put(m, "read.decode_add_bytes_per_s", bytes_per_s(t.replay.add, add), "B/s");
  put(m, "decoder.back_elim_rows_per_op",
      ratio(t.back_elim_rows, static_cast<double>(t.ops)), "count");

  double trial_us = 0;
  for (const double us : untraced.op) trial_us += us;
  for (const double us : traced.op) trial_us += us;
  put(m, "sim.events_per_s", ratio(c.events, trial_us) * 1e6, "1/s");

  put(m, "trace.overhead_frac", ratio(median(traced.op), median(untraced.op)) - 1.0, "frac");
}

json::Value spans_json(const SpanLedger& spans) {
  json::Value out = json::Value::object();
  for (const auto& [name, e] : spans.by_name) {
    json::Value v = json::Value::object();
    v.set("count", static_cast<double>(e.count));
    v.set("total_us", e.total_us);
    out.set(name, std::move(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kKeep);
  Flags flags;
  double seconds = kDefaultSeconds;
  try {
    flags = Flags::parse(argc - 1, argv + 1);
    seconds = flags.get_double("seconds", kDefaultSeconds);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  if (!(seconds > 0) || !std::isfinite(seconds)) {
    usage_error("--seconds wants a positive duration");
  }
  if (!flags.unused().empty()) usage_error("unknown flag --" + flags.unused().front());
  if (flags.positional().size() != 1) usage_error("expected exactly one workload");
  const std::optional<Workload> workload = try_workload_from_string(flags.positional()[0]);
  if (!workload) usage_error("unknown workload '" + flags.positional()[0] + "'");

  const bench::Options& opts = bench::options();
  const WorkloadSpec spec = workload_spec(*workload);
  const std::uint64_t seed = opts.seed_or(1);
  const bool traced = !opts.trace_json_path.empty();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  if (traced) {  // parse_args armed both; each phase sets its own
    recorder.stop();
    obs::set_enabled(false);
  }

  std::optional<std::size_t> fixed_ops = opts.trials;
  if (!fixed_ops && bench::fast_mode()) fixed_ops = std::max<std::size_t>(2, spec.full_ops / 50);
  const std::size_t warmup = bench::fast_mode() ? 1 : spec.warmup_ops;
  Budget budget{fixed_ops, seconds};
  if (traced) {
    if (budget.ops) budget.ops = std::max<std::size_t>(1, *budget.ops / 4);
    budget.seconds /= 2;
  }

  Tally tally;
  Counts counts;
  std::unique_ptr<ObjectFixture> fixture;

  // One op. Warm-up ops pass no latencies; traced ops also pass totals,
  // which asks for the fetch log and a replay of the read.
  obs::Counter& back_elim = obs::counter("decoder.back_elim_rows");
  const auto run_op = [&](std::uint64_t index, Latencies* lat, TracedTotals* totals) {
    if (!spec.is_object()) {
      const TrialSample s = run_trial(spec.cluster, seed, index);
      tally.record(s.ok);
      if (lat == nullptr) return;
      counts.add(s);
      lat->op.push_back(s.us);
      return;
    }
    const std::uint64_t back_elim_before = back_elim.value();
    const LifecycleSample s = run_lifecycle(*fixture, seed, index, totals != nullptr);
    tally.record(lifecycle_correct(*fixture, s));
    if (lat == nullptr) return;
    counts.add(s);
    lat->op.push_back(s.op_us());
    lat->store.push_back(s.store_us);
    lat->churn.push_back(s.churn_us);
    lat->read.push_back(s.read_us);
    if (totals == nullptr) return;
    ++totals->ops;
    totals->back_elim_rows += static_cast<double>(back_elim.value() - back_elim_before);
    totals->axpy_bytes += static_cast<double>(s.axpy_bytes);
    totals->manifest_bytes += static_cast<double>(fixture->source_bytes(s.source).size());
    obs::ScopedSpan span("replay", "pipeline");
    const ReplayBytes r = replay_read(*fixture, s);
    totals->replay.fetch += r.fetch;
    totals->replay.wire += r.wire;
    totals->replay.verify += r.verify;
    totals->replay.add += r.add;
  };

  // --- Set-up: fixture and warm-up ops, kSetupReps times on the same inputs.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    if (spec.is_object()) {
      fixture.reset();
      fixture = std::make_unique<ObjectFixture>(spec.object, seed);
    }
    for (std::size_t i = 0; i < warmup; ++i) run_op(i, nullptr, nullptr);
    setup_s.push_back(seconds_since(start));
  }

  // --- Timed ops.
  std::uint64_t next_op = warmup;
  Latencies untraced, traced_lat;
  const Clock::time_point untraced_start = Clock::now();
  while (budget.more(untraced.op.size(), untraced_start)) {
    run_op(next_op++, &untraced, nullptr);
  }
  SpanLedger spans;
  TracedTotals totals;
  if (traced) {
    obs::set_enabled(true);
    const Clock::time_point traced_start = Clock::now();
    while (budget.more(traced_lat.op.size(), traced_start)) {
      recorder.clear();  // keeps only the last op's timeline for the trace file
      recorder.start();
      run_op(next_op++, &traced_lat, &totals);
      recorder.stop();
      spans.add(obs::build_profile(recorder));
    }
  }

  // --- Result.
  json::Value metrics = json::Value::object();
  if (traced) {
    put_layers(metrics, counts, spans, totals, untraced, traced_lat);
  } else {
    put(metrics, "setup_s", median(setup_s), "s");
    put(metrics, "op_p50_us", median(untraced.op), "us");
    put(metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
  }

  json::Value line = json::Value::object();
  line.set("correct", tally.failed == 0);
  line.set("attempted", static_cast<double>(tally.attempted));
  line.set("failed", static_cast<double>(tally.failed));
  line.set("metrics", metrics);

  if (!opts.json_path.empty()) {
    json::Value report = line;
    report.set("bench", "perf_pipeline");
    report.set("workload", to_string(*workload));
    json::Value config = json::Value::object();
    config.set("seed", static_cast<double>(seed));
    config.set("traced", traced);
    config.set("fast_mode", bench::fast_mode());
    config.set("seconds", seconds);
    config.set("timed_ops", static_cast<double>(untraced.op.size() + traced_lat.op.size()));
    config.set("warmup_ops", static_cast<double>(warmup));
    config.set("setup_reps", static_cast<double>(kSetupReps));
    config.set("host", host_block());
    report.set("config", std::move(config));
    if (traced) report.set("spans", spans_json(spans));
    json::Value tails = json::Value::array();
    tails.push_back(tails_point("op", untraced.op));
    if (spec.is_object()) {
      tails.push_back(tails_point("store", untraced.store));
      tails.push_back(tails_point("churn", untraced.churn));
      tails.push_back(tails_point("read", untraced.read));
    }
    json::Value outcomes = json::Value::array();
    outcomes.push_back(outcomes_point(counts));
    // prlc_bench_diff compares "series": outcomes exactly, tails by tolerance.
    json::Value series = json::Value::array();
    series.push_back(named_series("outcomes", std::move(outcomes)));
    series.push_back(named_series("tails", std::move(tails)));
    report.set("series", std::move(series));
    json::write_file(opts.json_path, report.dump(2));
  }
  bench::finalize(nullptr);
  std::cout << line.dump() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}
