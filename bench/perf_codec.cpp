// Microbenchmarks — throughput of the coding substrate (google-benchmark).
//
// Not a paper figure; engineering numbers for the library itself: field
// kernels, encoder throughput, progressive-decoder cost at the paper's
// scales, batch RREF — and the payload sweep: gf256_combine_batch encode
// and PriorityDecoder decode over real multi-MB objects, checked against
// the source, the numbers behind BENCH_codec.json. The sweep runs first (a
// custom timed loop, not google-benchmark) so its series is series[0] of
// --json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "codes/decoder.h"
#include "codes/encoder.h"
#include "gf/aligned_buffer.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "linalg/gauss_jordan.h"
#include "linalg/progressive_decoder.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/gf64_fingerprint.h"
#include "util/random.h"

namespace {

using namespace prlc;
using F = gf::Gf256;

// --- payload sweep ---------------------------------------------------------

/// Median wall seconds of five calls of `run`. Each call's result goes to
/// `keep` after its clock stops, so checking or freeing it is never timed.
template <typename Run, typename Keep>
double median_seconds(Run&& run, Keep&& keep) {
  std::array<double, 5> seconds{};
  for (double& s : seconds) {
    const std::uint64_t start_ns = obs::now_ns();
    auto result = run();
    s = static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
    keep(std::move(result));
  }
  std::ranges::sort(seconds);
  return seconds[seconds.size() / 2];
}

/// Payload throughput per payload size, PLC over 4 uniform levels. Encode
/// allocates the coded payloads and fills them with one serial
/// gf256_combine_batch call over the coefficient rows and the source
/// blocks, the store's product; decode runs codes::PriorityDecoder, and
/// every decoded block must equal its source block. Every figure is the median of five timed runs (a fresh decoder
/// each), after one untimed warm-up encode. Reports bytes/s (object bytes
/// per wall second). Returns false when a check fails, so the run fails
/// instead of reporting a throughput for wrong bytes.
bool run_payload_sweep(bench::BenchReport& report) {
  const bench::Options& opt = bench::options();
  const bool fast = bench::fast_mode();

  std::vector<std::size_t> payload_sizes;
  if (opt.payload_bytes) {
    payload_sizes = {*opt.payload_bytes};
  } else if (fast) {
    payload_sizes = {std::size_t{1} << 20};
  } else {
    payload_sizes = {std::size_t{64} << 10, std::size_t{1} << 20, std::size_t{4} << 20,
                     std::size_t{16} << 20, std::size_t{64} << 20};
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
    // worst-case (and steady-state) payload workload. Draw them until they
    // reach full rank, so every timed decode recovers the whole object.
    const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec);
    codes::PriorityDecoder<F> rank_probe(codes::Scheme::kPlc, spec);
    std::vector<std::vector<std::uint8_t>> rows;
    while (rank_probe.rank() < n) {
      rows.push_back(enc.encode(levels - 1, rng).coeffs);
      rank_probe.add(levels - 1, rows.back(), {});
    }

    std::vector<const std::uint8_t*> row_ptrs;
    for (const auto& row : rows) row_ptrs.push_back(row.data());
    std::vector<const std::uint8_t*> sources;
    for (std::size_t j = 0; j < n; ++j) sources.push_back(source.block(j).data());
    const auto encode = [&] {
      std::vector<std::vector<std::uint8_t>> out(rows.size(),
                                                 std::vector<std::uint8_t>(block_size));
      std::vector<std::uint8_t*> dsts;
      for (auto& payload : out) dsts.push_back(payload.data());
      gf::gf256_combine_batch(dsts.data(), row_ptrs.data(), rows.size(), sources.data(), n,
                              block_size);
      return out;
    };
    // Untimed warm-up, so the first timed encode does not pay the
    // first-touch page faults the later ones avoid.
    auto coded = encode();
    const double encode_s =
        median_seconds(encode, [&](auto encoded) { coded = std::move(encoded); });

    std::optional<codes::PriorityDecoder<F>> decoder;
    const double decode_s = median_seconds(
        [&] {
          codes::PriorityDecoder<F> fresh(codes::Scheme::kPlc, spec, block_size);
          for (std::size_t b = 0; b < rows.size(); ++b) fresh.add(levels - 1, rows[b], coded[b]);
          return fresh;
        },
        [&](codes::PriorityDecoder<F> done) { decoder.emplace(std::move(done)); });
    for (std::size_t j = 0; j < n; ++j) {
      const auto want = source.block(j);
      if (!decoder->is_block_decoded(j) ||
          !std::ranges::equal(decoder->recovered(j), want)) {
        std::fprintf(stderr, "error: payload %zu: source block %zu did not decode intact\n",
                     object_bytes, j);
        return false;
      }
    }

    const double enc_bps = static_cast<double>(object_bytes) / encode_s;
    const double dec_bps = static_cast<double>(object_bytes) / decode_s;
    report.add_point("payload_sweep",
                     {{"payload_bytes", json::Value(static_cast<std::int64_t>(object_bytes))},
                      {"encode_bytes_per_s", json::Value(enc_bps)},
                      {"decode_bytes_per_s", json::Value(dec_bps)}});
    std::printf("  payload %9zu  encode %8.1f MB/s  decode %8.1f MB/s (%zu rows, all %zu "
                "blocks verified)\n",
                object_bytes, enc_bps * 1e-6, dec_bps * 1e-6, rows.size(), n);
  }
  return true;
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

// The store's product on each tier: 128 PLC rows over 64 source blocks,
// 32 rows per level with supports of 16, 32, 48 and 64 sources, the
// coefficient rows of a dense four-level store. Bytes counted are source
// bytes folded in (nonzero terms x block bytes), so the rate reads as
// effective axpy throughput.
void BM_GfKernelCombine(benchmark::State& state, gf::Gf256Kernel kernel) {
  const auto& ops = gf::gf256_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSources = 64;
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kLevels = 4;
  Rng rng(13);
  gf::AlignedVector<std::uint8_t> sources(kSources * n);
  for (auto& v : sources) v = static_cast<std::uint8_t>(rng.uniform(256));
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t j = 0; j < kSources; ++j) srcs.push_back(sources.data() + j * n);
  std::vector<std::vector<std::uint8_t>> coeffs(kRows, std::vector<std::uint8_t>(kSources, 0));
  std::vector<const std::uint8_t*> coeff_rows;
  std::size_t terms = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::size_t width = (r / (kRows / kLevels) + 1) * (kSources / kLevels);
    for (std::size_t j = 0; j < width; ++j) {
      coeffs[r][j] = static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    terms += width;
    coeff_rows.push_back(coeffs[r].data());
  }
  std::vector<std::vector<std::uint8_t>> dsts(kRows, std::vector<std::uint8_t>(n));
  std::vector<std::uint8_t*> ptrs;
  for (auto& d : dsts) ptrs.push_back(d.data());
  for (auto _ : state) {
    ops.combine(ptrs.data(), coeff_rows.data(), kRows, srcs.data(), kSources, n);
    benchmark::DoNotOptimize(dsts.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(terms * n));
}

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
    for (long n : {1024L, 4096L, 32768L}) {
      benchmark::RegisterBenchmark(("BM_GfKernelCombine/" + suffix).c_str(), BM_GfKernelCombine,
                                   k)
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
  const bool telemetry_before = obs::telemetry_enabled();
  obs::set_enabled(false);
  obs::set_telemetry_enabled(false);
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
  obs::set_telemetry_enabled(telemetry_before);
}
BENCHMARK(BM_TelemetryProbesDisabled);

void BM_TelemetryProbesEnabled(benchmark::State& state) {
  const bool metrics_before = obs::enabled();
  const bool telemetry_before = obs::telemetry_enabled();
  obs::set_enabled(true);
  obs::set_telemetry_enabled(true);
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
  obs::set_telemetry_enabled(telemetry_before);
  // Drop the rings this loop filled so a --events-jsonl run of the other
  // benches is not polluted with benchmark probes.
  obs::Journal::global().clear();
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
  bench::parse_args(argc, argv, bench::UnknownArgs::kKeep, {"--payload-bytes", "--json"});
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
  if (!run_payload_sweep(report)) return 1;
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  bench::finalize(&report);
  benchmark::Shutdown();
  return 0;
}
