// Ablation — sparse encoding + progressive decoding at N up to 1e5.
//
// Two claims are measured, both in machine-readable form (--json):
//
//  1. Dense regime (N = 500): ns_per_equation for dense-model blocks fed
//     as full-width spans, and for sparse-model blocks fed both as
//     (index, value) pairs and as the same equations expanded to dense
//     spans. Both feeds land in the same work row and the same forward
//     scan, so the pairs cost no more than the spans.
//
//  2. Large N (1e4..1e5): with O(ln w)-sparse chunked coefficients
//     (EncoderOptions.chunk_size, after "Expander Chunked Codes") the
//     decode cost per equation stays near-flat as N grows 10x — every
//     row window stays inside its block's chunk, so total decode cost is
//     near-linear in the number of equations. The decoded fraction and
//     the decoder's storage statistics (stored rows, peel operations,
//     resident coefficient bytes) are reported per point.
//
// The curves themselves are unchanged by any of this: the sparse emitter
// consumes the RNG exactly like the dense one, and the progressive decoder
// solves exactly what batch Gauss-Jordan does (tests/linalg fuzz).
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codes/coded_block.h"
#include "codes/encoder.h"
#include "gf/gf256.h"
#include "linalg/progressive_decoder.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;
using F = gf::Gf256;

struct RunResult {
  std::size_t equations = 0;
  double decode_ns = 0;           ///< wall time of the add loop only
  std::size_t decoded_prefix = 0;
  std::size_t decoded_levels = 0;
  std::size_t rows = 0;           ///< stored pivot rows: the decoder's rank
  linalg::ProgressiveDecoder<F>::Stats stats;

  double ns_per_equation() const {
    return equations == 0 ? 0.0 : decode_ns / static_cast<double>(equations);
  }
};

/// Generate `m` coded blocks up front, then time only the decode loop.
/// `sparse_feed` feeds blocks as (index, value) pairs through add_sparse,
/// which keeps generation memory at O(nnz) per block; otherwise they are
/// expanded to full-width spans first.
RunResult run_decode(codes::Scheme scheme, const codes::PrioritySpec& spec,
                     const codes::EncoderOptions& enc_opts, std::size_t m,
                     std::uint64_t seed, bool sparse_feed) {
  const codes::PriorityEncoder<F> encoder(scheme, spec, enc_opts, nullptr);
  const auto dist = codes::PriorityDistribution::uniform(spec.levels());
  Rng rng(seed);

  RunResult out;
  out.equations = m;
  linalg::ProgressiveDecoder<F> decoder(spec.total());
  if (sparse_feed) {
    std::vector<codes::SparseCodedBlock<F>> blocks;
    blocks.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      blocks.push_back(encoder.encode_sparse_random(dist, rng));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& b : blocks) decoder.add_sparse(b.indices, b.values);
    const auto t1 = std::chrono::steady_clock::now();
    out.decode_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  } else {
    std::vector<codes::CodedBlock<F>> blocks;
    blocks.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      blocks.push_back(encoder.encode_random(dist, rng));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& b : blocks) decoder.add(b.coeffs);
    const auto t1 = std::chrono::steady_clock::now();
    out.decode_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
  out.decoded_prefix = decoder.decoded_prefix();
  out.decoded_levels = spec.levels_covered_by_prefix(out.decoded_prefix);
  out.rows = decoder.rank();
  out.stats = decoder.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--scheme", "--json"});
  bench::banner("Ablation — sparse coding x progressive decoder",
                "Decode cost per equation: dense regime (N=500) and chunked "
                "sparse runs at N = 1e4..1e5.");
  const std::uint64_t seed = bench::options().seed_or(0);
  bench::BenchReport report("abl_sparsity");

  // ---- 1. Dense regime: feed overhead at small N --------------------------
  {
    const auto spec = codes::PrioritySpec::uniform(5, 100);  // N = 500
    const std::size_t m = bench::options().trials_or(625, 625);  // 1.25 N: decodes fully
    report.set_config("small_n", static_cast<double>(spec.total()));

    TablePrinter table({"model", "feed", "decode ms", "ns/equation", "decoded prefix"});
    struct Case {
      const char* model_name;
      codes::CoefficientModel model;
      bool sparse_feed;
    };
    const Case cases[] = {
        {"dense-uniform", codes::CoefficientModel::kDenseUniform, false},
        {"sparse c=3", codes::CoefficientModel::kSparse, false},
        {"sparse c=3", codes::CoefficientModel::kSparse, true},
    };
    for (const auto& c : cases) {
      codes::EncoderOptions enc;
      enc.model = c.model;
      enc.sparsity_factor = 3.0;
      // Same seed for both feeds of the sparse model: identical equations,
      // so the timing difference is purely the feed path.
      const auto r = run_decode(codes::Scheme::kPlc, spec, enc, m,
                                seed + (c.model == codes::CoefficientModel::kSparse ? 23 : 19),
                                c.sparse_feed);
      table.add_row({c.model_name, c.sparse_feed ? "sparse pairs" : "dense span",
                     fmt_double(r.decode_ns / 1e6, 3), fmt_double(r.ns_per_equation(), 0),
                     std::to_string(r.decoded_prefix)});
      report.add_point("small_n_overhead",
                       {{"model", std::string(c.model_name)},
                        {"feed", std::string(c.sparse_feed ? "sparse" : "dense")},
                        {"n", static_cast<double>(spec.total())},
                        {"equations", static_cast<double>(r.equations)},
                        {"decode_ns", r.decode_ns},
                        {"ns_per_equation", r.ns_per_equation()},
                        {"decoded_prefix", static_cast<double>(r.decoded_prefix)}});
    }
    table.emit("abl_sparsity_small_n");
  }

  // ---- 2. Chunked sparse decoding at N = 1e4 .. 1e5 -----------------------
  {
    const std::size_t chunk = 256;
    const double redundancy = 1.3;
    std::vector<std::size_t> sizes = {10000, 31623, 100000};
    std::vector<double> factors = {1.5, 3.0};
    if (bench::fast_mode()) {
      sizes = {10000};
      factors = {3.0};
    }
    report.set_config("chunk_size", static_cast<double>(chunk));
    report.set_config("redundancy", redundancy);

    TablePrinter table({"scheme", "N", "c", "decode ms", "ns/equation", "decoded frac",
                        "peel ops", "rows", "coef MiB"});
    for (const auto scheme : {codes::Scheme::kRlc, codes::Scheme::kPlc}) {
      if (!bench::options().scheme_enabled(scheme)) continue;
      for (const std::size_t n : sizes) {
        for (const double c : factors) {
          const auto spec = codes::PrioritySpec::uniform(5, n / 5);
          codes::EncoderOptions enc;
          enc.model = codes::CoefficientModel::kSparse;
          enc.sparsity_factor = c;
          enc.chunk_size = chunk;
          const auto m = static_cast<std::size_t>(redundancy * static_cast<double>(n));
          const auto r = run_decode(scheme, spec, enc, m, seed + 31 + n + sizes.size(),
                                    /*sparse_feed=*/true);
          const double frac =
              static_cast<double>(r.decoded_prefix) / static_cast<double>(spec.total());
          table.add_row({std::string(codes::to_string(scheme)), std::to_string(n),
                         fmt_double(c, 1), fmt_double(r.decode_ns / 1e6, 1),
                         fmt_double(r.ns_per_equation(), 0), fmt_double(frac, 3),
                         std::to_string(r.stats.peel_ops), std::to_string(r.rows),
                         fmt_double(static_cast<double>(r.stats.coef_bytes) / (1024.0 * 1024.0), 1)});
          report.add_point(
              std::string("hybrid_large_n/") + codes::to_string(scheme),
              {{"n", static_cast<double>(n)},
               {"sparsity_factor", c},
               {"chunk_size", static_cast<double>(chunk)},
               {"equations", static_cast<double>(r.equations)},
               {"decode_ns", r.decode_ns},
               {"ns_per_equation", r.ns_per_equation()},
               {"decoded_fraction", frac},
               {"decoded_levels", static_cast<double>(r.decoded_levels)},
               {"peel_ops", static_cast<double>(r.stats.peel_ops)},
               {"rows", static_cast<double>(r.rows)},
               {"coef_bytes", static_cast<double>(r.stats.coef_bytes)}});
        }
      }
    }
    table.emit("abl_sparsity_large_n");
  }

  std::cout << "\nExpected shape: ns/equation stays near-flat as N grows 10x\n"
               "(every row window stays inside its block's chunk, so decode cost is\n"
               "near-linear in equations), and the sparse feed at small N costs no\n"
               "more than expanding the same equations to dense spans.\n";
  bench::finalize(&report);
  return 0;
}
