// Microbenchmarks — throughput of the coding substrate (google-benchmark).
//
// Not a paper figure; engineering numbers for the library itself: field
// kernels, encoder throughput, progressive-decoder cost at the paper's
// scales, batch RREF — and the payload sweep: PayloadCodec encode/decode
// over real multi-MB objects across (payload, chunk, thread) grids, the
// numbers behind BENCH_codec.json. The sweep runs first (a custom timed
// loop, not google-benchmark) so its series is series[0] of --json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "codec/payload_codec.h"
#include "codes/decoder.h"
#include "codes/encoder.h"
#include "gf/aligned_buffer.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "linalg/gauss_jordan.h"
#include "linalg/progressive_decoder.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/gf64_fingerprint.h"
#include "util/random.h"

namespace {

using namespace prlc;
using F = gf::Gf256;

// --- payload sweep ---------------------------------------------------------

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::ScopedTimer::now_ns() - start_ns) * 1e-9;
}

struct SweepMeasurement {
  double encode_s = 0;
  double decode_s = 0;
  std::vector<std::vector<std::uint8_t>> coded;      // encode outputs
  std::vector<std::vector<std::uint8_t>> eliminated; // decode-consumed buffers
};

/// One timed encode + decode pass of `codec` over the given rows/source.
SweepMeasurement run_codec_pass(const codec::PayloadCodec& codec,
                                std::span<const std::vector<std::uint8_t>> rows,
                                const codes::SourceData<F>& source) {
  SweepMeasurement m;
  const std::uint64_t t0 = obs::ScopedTimer::now_ns();
  m.coded = codec.encode(rows, source);
  m.encode_s = seconds_since(t0);

  m.eliminated = m.coded;  // decode eliminates in place; keep coded pristine
  const std::uint64_t t1 = obs::ScopedTimer::now_ns();
  const auto result = codec.decode(rows, m.eliminated);
  m.decode_s = seconds_since(t1);
  benchmark::DoNotOptimize(result.rank);
  return m;
}

bool same_buffers(const std::vector<std::vector<std::uint8_t>>& a,
                  const std::vector<std::vector<std::uint8_t>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// PayloadCodec throughput grid: payload-size x chunk-size x threads, PLC
/// over 4 uniform levels. Reports bytes/s (object bytes per wall second)
/// and speedup against the serial single-threaded reference path, and
/// cross-checks that every multithreaded run produced bit-identical
/// encode outputs and eliminated payload buffers.
void run_payload_sweep(bench::BenchReport& report) {
  const bench::Options& opt = bench::options();
  const bool fast = bench::fast_mode();

  std::vector<std::size_t> payload_sizes;
  if (opt.payload_bytes) {
    payload_sizes = {*opt.payload_bytes};
  } else if (fast) {
    payload_sizes = {std::size_t{1} << 20};
  } else {
    payload_sizes = {std::size_t{4} << 20, std::size_t{64} << 20};
  }
  std::vector<std::size_t> chunk_sizes;
  if (opt.chunk_bytes) {
    chunk_sizes = {*opt.chunk_bytes};
  } else if (fast) {
    chunk_sizes = {std::size_t{32} << 10};
  } else {
    chunk_sizes = {std::size_t{32} << 10, std::size_t{128} << 10};
  }
  std::vector<std::size_t> thread_counts;
  if (opt.threads != 0) {
    thread_counts = {opt.threads};
  } else if (fast) {
    thread_counts = {1, 2};
  } else {
    thread_counts = {1, 2, 4, 8};
  }

  const std::size_t levels = 4;
  const std::size_t n = fast ? 16 : 64;  // source blocks (levels x n/levels)
  Rng rng(opt.seed_or(0x5eedc0dec));

  std::printf("payload sweep: PLC, %zu levels, N=%zu\n", levels, n);
  for (const std::size_t requested : payload_sizes) {
    const std::size_t block_size = std::max<std::size_t>(1, requested / n);
    const std::size_t object_bytes = block_size * n;
    const auto spec = codes::PrioritySpec::uniform(levels, n / levels);
    const auto source = codes::SourceData<F>::random(n, block_size, rng);
    // Lowest-priority PLC rows span all N source blocks: dense rows, the
    // worst-case (and steady-state) payload workload.
    const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec);
    std::vector<std::vector<std::uint8_t>> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back(enc.encode(levels - 1, rng).coeffs);
    }

    for (const std::size_t chunk : chunk_sizes) {
      const codec::PayloadCodec serial_codec(codes::Scheme::kPlc, spec,
                                             {.chunk_bytes = chunk});
      // Untimed warm-up so the timed serial baseline is not paying the
      // first-touch page faults the later pool runs avoid.
      run_codec_pass(serial_codec, rows, source);
      const SweepMeasurement serial = run_codec_pass(serial_codec, rows, source);

      for (const std::size_t threads : thread_counts) {
        runtime::ThreadPool pool(threads);
        const codec::PayloadCodec codec(codes::Scheme::kPlc, spec,
                                        {.chunk_bytes = chunk, .pool = &pool});
        const SweepMeasurement run = run_codec_pass(codec, rows, source);
        const bool identical = same_buffers(run.coded, serial.coded) &&
                               same_buffers(run.eliminated, serial.eliminated);
        PRLC_REQUIRE(identical, "multithreaded codec output diverged from serial");

        const double enc_bps = static_cast<double>(object_bytes) / run.encode_s;
        const double dec_bps = static_cast<double>(object_bytes) / run.decode_s;
        report.add_point("payload_sweep",
                         {{"payload_bytes", json::Value(static_cast<std::int64_t>(object_bytes))},
                          {"chunk_bytes", json::Value(static_cast<std::int64_t>(chunk))},
                          {"threads", json::Value(static_cast<std::int64_t>(threads))},
                          {"encode_bytes_per_s", json::Value(enc_bps)},
                          {"decode_bytes_per_s", json::Value(dec_bps)},
                          {"encode_speedup_vs_serial", json::Value(serial.encode_s / run.encode_s)},
                          {"decode_speedup_vs_serial", json::Value(serial.decode_s / run.decode_s)},
                          {"identical_to_serial", json::Value(identical)}});
        std::printf(
            "  payload %9zu  chunk %7zu  threads %zu  encode %8.1f MB/s (x%.2f)  "
            "decode %8.1f MB/s (x%.2f)\n",
            object_bytes, chunk, threads, enc_bps * 1e-6, serial.encode_s / run.encode_s,
            dec_bps * 1e-6, serial.decode_s / run.decode_s);
      }
    }
  }
}

void BM_GfMul(benchmark::State& state) {
  Rng rng(1);
  std::uint8_t a = static_cast<std::uint8_t>(1 + rng.uniform(255));
  std::uint8_t x = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    x = F::mul(a, x ^ 1);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_GfMul);

void BM_GfAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::uint8_t> x(n);
  std::vector<std::uint8_t> y(n);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    F::axpy(std::span<std::uint8_t>(y), 0x1D, std::span<const std::uint8_t>(x));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfAxpy)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

// Per-variant kernel throughput (MB/s in the "bytes_per_second" counter).
// One row per compiled + runtime-supported variant, so BENCH output
// records both the dispatch decision and the speedup over the seed's
// byte-wise reference loop.
void BM_GfKernelAxpy(benchmark::State& state, gf::Gf256Kernel kernel) {
  const auto& ops = gf::gf256_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::uint8_t> x(n);
  std::vector<std::uint8_t> y(n);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    ops.axpy(y.data(), x.data(), 0x1D, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GfKernelMulRegion(benchmark::State& state, gf::Gf256Kernel kernel) {
  const auto& ops = gf::gf256_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<std::uint8_t> src(n);
  std::vector<std::uint8_t> dst(n);
  for (auto& v : src) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    ops.mul_region(dst.data(), src.data(), 0x8F, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GfAxpyBatch(benchmark::State& state) {
  // The decoder back-elimination shape: one source row applied to many
  // target rows through the cache-tiled batch entry point.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 32;
  Rng rng(9);
  std::vector<std::uint8_t> x(n);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  std::vector<std::vector<std::uint8_t>> targets(rows, std::vector<std::uint8_t>(n));
  std::vector<std::uint8_t*> ptrs;
  std::vector<std::uint8_t> coeffs;
  for (auto& t : targets) ptrs.push_back(t.data());
  for (std::size_t r = 0; r < rows; ++r) {
    coeffs.push_back(static_cast<std::uint8_t>(1 + rng.uniform(255)));
  }
  using F = gf::Gf256;
  for (auto _ : state) {
    F::axpy_batch(std::span<std::uint8_t* const>(ptrs),
                  std::span<const std::uint8_t>(coeffs), std::span<const std::uint8_t>(x));
    benchmark::DoNotOptimize(targets.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * rows));
}
BENCHMARK(BM_GfAxpyBatch)->Arg(4096)->Arg(65536);

void BM_GfCombineBatch(benchmark::State& state) {
  // The store's shape: coded blocks folded from 64 source blocks of 32 KiB
  // through the tile-major batch entry point. Bytes counted are source
  // bytes folded in, so the rate reads as effective axpy throughput.
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(12);
  gf::AlignedVector<std::uint8_t> sources(k * n);
  for (auto& v : sources) v = static_cast<std::uint8_t>(rng.uniform(256));
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t j = 0; j < k; ++j) srcs.push_back(sources.data() + j * n);
  std::vector<std::vector<std::uint8_t>> coeffs(rows);
  std::vector<const std::uint8_t*> coeff_rows;
  for (auto& row : coeffs) {
    for (std::size_t j = 0; j < k; ++j) {
      row.push_back(static_cast<std::uint8_t>(1 + rng.uniform(255)));
    }
    coeff_rows.push_back(row.data());
  }
  std::vector<std::vector<std::uint8_t>> dsts(rows, std::vector<std::uint8_t>(n));
  std::vector<std::uint8_t*> ptrs;
  for (auto& d : dsts) ptrs.push_back(d.data());
  for (auto _ : state) {
    gf::gf256_combine_batch(ptrs.data(), coeff_rows.data(), rows, srcs.data(), k, n);
    benchmark::DoNotOptimize(dsts.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * k * n));
}
BENCHMARK(BM_GfCombineBatch)->Args({16, 64, 32768});

// Integrity-check tiers: the wire CRC and the homomorphic fingerprint
// each read every payload byte of a fetched frame.
void BM_Crc32Kernel(benchmark::State& state, Crc32Kernel kernel) {
  const auto& ops = crc32_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<std::uint8_t> data(n);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.crc32(data, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_FingerprintKernel(benchmark::State& state, util::FingerprintKernel kernel) {
  const auto& ops = util::fingerprint_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::uint8_t> data(n);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.uniform(256));
  const util::Fingerprinter fp(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.fingerprint(fp, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void register_kernel_benchmarks() {
  for (gf::Gf256Kernel k : gf::gf256_compiled_kernels()) {
    if (!gf256_kernel_runtime_ok(k)) continue;
    const std::string suffix = gf::gf256_kernel_name(k);
    for (long n : {4096L, 65536L}) {
      benchmark::RegisterBenchmark(("BM_GfKernelAxpy/" + suffix).c_str(), BM_GfKernelAxpy, k)
          ->Arg(n);
      benchmark::RegisterBenchmark(("BM_GfKernelMulRegion/" + suffix).c_str(),
                                   BM_GfKernelMulRegion, k)
          ->Arg(n);
    }
  }
  for (Crc32Kernel k : crc32_compiled_kernels()) {
    if (!crc32_kernel_runtime_ok(k)) continue;
    const std::string suffix = crc32_kernel_name(k);
    for (long n : {1024L, 4096L, 32768L}) {
      benchmark::RegisterBenchmark(("BM_Crc32Kernel/" + suffix).c_str(), BM_Crc32Kernel, k)
          ->Arg(n);
    }
  }
  for (util::FingerprintKernel k : util::fingerprint_compiled_kernels()) {
    if (!util::fingerprint_kernel_runtime_ok(k)) continue;
    const std::string suffix = util::fingerprint_kernel_name(k);
    for (long n : {1024L, 4096L, 32768L}) {
      benchmark::RegisterBenchmark(("BM_FingerprintKernel/" + suffix).c_str(),
                                   BM_FingerprintKernel, k)
          ->Arg(n);
    }
  }
}

void BM_EncodeBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto spec = codes::PrioritySpec::uniform(4, n / 4);
  const auto source = codes::SourceData<F>::random(n, 64, rng);
  const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec, {}, &source);
  for (auto _ : state) {
    auto block = enc.encode(3, rng);
    benchmark::DoNotOptimize(block.payload.data());
  }
}
BENCHMARK(BM_EncodeBlock)->Arg(256)->Arg(1024);

void BM_ProgressiveDecodeFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const auto spec = codes::PrioritySpec::uniform(4, n / 4);
  const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec);
  const auto dist = codes::PriorityDistribution::uniform(4);
  // Pre-generate blocks outside the timed region.
  std::vector<codes::CodedBlock<F>> blocks;
  for (std::size_t i = 0; i < n + 16; ++i) blocks.push_back(enc.encode_random(dist, rng));
  for (auto _ : state) {
    codes::PriorityDecoder<F> dec(codes::Scheme::kPlc, spec);
    for (const auto& b : blocks) {
      if (dec.rank() == n) break;
      dec.add(b);
    }
    benchmark::DoNotOptimize(dec.decoded_levels());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProgressiveDecodeFull)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_BatchRref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const auto m = linalg::Matrix<F>::random(n, n, rng);
  for (auto _ : state) {
    auto copy = m;
    const auto info = linalg::rref(copy);
    benchmark::DoNotOptimize(info.rank);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BatchRref)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SparseEncode(benchmark::State& state) {
  Rng rng(6);
  const auto spec = codes::PrioritySpec::uniform(4, 256);  // N = 1024
  codes::EncoderOptions opt;
  opt.model = codes::CoefficientModel::kSparse;
  const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec, opt);
  for (auto _ : state) {
    auto block = enc.encode(3, rng);
    benchmark::DoNotOptimize(block.coeffs.data());
  }
}
BENCHMARK(BM_SparseEncode);

// --- telemetry probe overhead ----------------------------------------------
//
// The disabled-path contract (obs/events.h): a metrics counter add, an
// event emit and a time-series sample each cost a relaxed load plus a
// predictable branch when the subsystem is off. The Disabled/Enabled pair
// is the regression row for that claim; tests/obs/noalloc_guard_test
// asserts the allocation half of it.

void BM_TelemetryProbesDisabled(benchmark::State& state) {
  const bool metrics_before = obs::enabled();
  const bool events_before = obs::events_enabled();
  const bool timeseries_before = obs::timeseries_enabled();
  obs::set_enabled(false);
  obs::set_events_enabled(false);
  obs::set_timeseries_enabled(false);
  static obs::Counter& ctr = obs::counter("perf.telemetry_probe");
  const obs::SeriesId series = obs::timeseries("perf.telemetry_probe");
  for (auto _ : state) {
    ctr.add();
    obs::emit(obs::EventType::kPeel, 1.0);
    obs::sample(series, 1.0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  obs::set_enabled(metrics_before);
  obs::set_events_enabled(events_before);
  obs::set_timeseries_enabled(timeseries_before);
}
BENCHMARK(BM_TelemetryProbesDisabled);

void BM_TelemetryProbesEnabled(benchmark::State& state) {
  const bool metrics_before = obs::enabled();
  const bool events_before = obs::events_enabled();
  const bool timeseries_before = obs::timeseries_enabled();
  obs::set_enabled(true);
  obs::set_events_enabled(true);
  obs::set_timeseries_enabled(true);
  static obs::Counter& ctr = obs::counter("perf.telemetry_probe");
  const obs::SeriesId series = obs::timeseries("perf.telemetry_probe");
  {
    obs::TrialScope scope(obs::begin_telemetry_run(), 0);
    for (auto _ : state) {
      ctr.add();
      obs::emit(obs::EventType::kPeel, 1.0);
      obs::sample(series, 1.0);
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  obs::set_enabled(metrics_before);
  obs::set_events_enabled(events_before);
  obs::set_timeseries_enabled(timeseries_before);
  // Drop the rings this loop filled so a --events-jsonl run of the other
  // benches is not polluted with benchmark probes.
  obs::EventJournal::global().clear();
  obs::TimeSeriesRecorder::global().clear();
}
BENCHMARK(BM_TelemetryProbesEnabled);

// Console output as usual, plus every finished run mirrored into the
// BenchReport for --json (name, adjusted times, user counters such as
// bytes_per_second).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::vector<std::pair<std::string, json::Value>> fields;
      fields.emplace_back("name", json::Value(run.benchmark_name()));
      fields.emplace_back("iterations", json::Value(static_cast<std::int64_t>(run.iterations)));
      fields.emplace_back("real_time", json::Value(run.GetAdjustedRealTime()));
      fields.emplace_back("cpu_time", json::Value(run.GetAdjustedCPUTime()));
      fields.emplace_back("time_unit",
                          json::Value(benchmark::GetTimeUnitString(run.time_unit)));
      for (const auto& [name, counter] : run.counters) {
        fields.emplace_back(name, json::Value(counter.value));
      }
      report_.add_point("benchmarks", std::move(fields));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json/--metrics-json/--trace-json (and arm obs) before the
  // first field op below resolves kernel dispatch, so the dispatch-
  // decision gauges land in the metrics dump. Leftover --benchmark_*
  // flags belong to google-benchmark, so keep them.
  bench::parse_args(argc, argv, bench::UnknownArgs::kKeep);
  std::printf("gf256 kernel dispatch: %s (compiled:", gf::gf256_active_ops().name);
  for (gf::Gf256Kernel k : gf::gf256_compiled_kernels()) {
    std::printf(" %s%s", gf::gf256_kernel_name(k),
                gf::gf256_kernel_runtime_ok(k) ? "" : "[no-cpu]");
  }
  std::printf(")\n");
  std::printf("integrity kernel dispatch: crc32 %s, fingerprint %s\n",
              crc32_kernel_name(crc32_active_kernel()),
              util::fingerprint_kernel_name(util::fingerprint_active_kernel()));
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("perf_codec");
  report.set_config("dispatch", json::Value(gf::gf256_active_ops().name));
  report.set_config("crc32_dispatch", json::Value(crc32_kernel_name(crc32_active_kernel())));
  report.set_config("fingerprint_dispatch",
                    json::Value(util::fingerprint_kernel_name(util::fingerprint_active_kernel())));
  report.set_config("gf_tile_bytes",
                    json::Value(static_cast<std::int64_t>(gf::kGf256TileBytes)));
  // The payload sweep goes first so its series lands at series[0] of the
  // --json report (smoke_codec's prlc_json_check paths rely on that).
  run_payload_sweep(report);
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  bench::finalize(&report);
  benchmark::Shutdown();
  return 0;
}
