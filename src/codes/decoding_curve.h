// Monte-Carlo decoding-curve simulation (Sec. 5 methodology).
//
// The paper's figures plot "expected number of decoded priority levels"
// against "number of coded blocks processed", averaged over 100
// independent experiments with 95% confidence intervals. This driver
// reproduces that: per trial it streams randomly generated coded blocks
// (levels drawn from the priority distribution) into a fresh decoder and
// samples the decoded-level count at each requested block count. Within a
// trial the block counts share one stream — each prefix of an i.i.d.
// sequence is itself a valid random sample, and the decoder is exactly
// the "decode as blocks accumulate" process of Sec. 3.2.
#pragma once

#include <vector>

#include "codes/decoder.h"
#include "codes/encoder.h"
#include "gf/field_concept.h"
#include "runtime/trial_runner.h"
#include "util/check.h"
#include "util/random.h"
#include "util/stats.h"

namespace prlc::codes {

struct CurvePoint {
  std::size_t coded_blocks = 0;  ///< M — blocks processed
  double mean_levels = 0;        ///< average decoded priority levels
  double ci95_levels = 0;        ///< 95% CI half-width over trials
  double mean_blocks = 0;        ///< average decoded source-block prefix
  double ci95_blocks = 0;
};

struct CurveOptions {
  std::vector<std::size_t> block_counts;  ///< M values, strictly increasing
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< TrialRunner convention: 0 = hardware, 1 = serial
  EncoderOptions encoder;   ///< coefficient model (dense/sparse)
};

/// Simulate the decoding curve for one (scheme, spec, distribution).
template <gf::FieldPolicy F>
std::vector<CurvePoint> simulate_decoding_curve(Scheme scheme, const PrioritySpec& spec,
                                                const PriorityDistribution& dist,
                                                const CurveOptions& options) {
  PRLC_REQUIRE(!options.block_counts.empty(), "need at least one block count");
  PRLC_REQUIRE(options.trials > 0, "need at least one trial");
  for (std::size_t i = 1; i < options.block_counts.size(); ++i) {
    PRLC_REQUIRE(options.block_counts[i - 1] < options.block_counts[i],
                 "block counts must be strictly increasing");
  }
  PRLC_REQUIRE(dist.levels() == spec.levels(), "distribution/spec level mismatch");

  const std::size_t points = options.block_counts.size();

  // One immutable encoder shared by all trials (stateless per call).
  const PriorityEncoder<F> encoder(scheme, spec, options.encoder, nullptr);

  struct TrialSample {
    std::vector<double> levels;
    std::vector<double> blocks;
  };
  runtime::TrialRunner runner(options.threads);
  const auto samples = runner.run(
      options.trials, options.seed, [&](std::size_t, Rng& rng) {
        PriorityDecoder<F> decoder(scheme, spec, 0);
        TrialSample sample;
        sample.levels.reserve(points);
        sample.blocks.reserve(points);
        std::size_t next_point = 0;
        const std::size_t max_blocks = options.block_counts.back();
        for (std::size_t m = 1; m <= max_blocks; ++m) {
          decoder.add(encoder.encode_random(dist, rng));
          if (m == options.block_counts[next_point]) {
            sample.levels.push_back(static_cast<double>(decoder.decoded_levels()));
            sample.blocks.push_back(static_cast<double>(decoder.decoded_prefix_blocks()));
            ++next_point;
          }
        }
        PRLC_ASSERT(next_point == points, "curve sampling missed a checkpoint");
        return sample;
      });

  // Ordered merge in trial order — keeps the curve bit-identical across
  // thread counts (see runtime/trial_runner.h).
  std::vector<RunningStats> level_stats(points);
  std::vector<RunningStats> block_stats(points);
  for (const TrialSample& sample : samples) {
    for (std::size_t i = 0; i < points; ++i) {
      level_stats[i].add(sample.levels[i]);
      block_stats[i].add(sample.blocks[i]);
    }
  }

  std::vector<CurvePoint> curve(points);
  for (std::size_t i = 0; i < points; ++i) {
    curve[i].coded_blocks = options.block_counts[i];
    curve[i].mean_levels = level_stats[i].mean();
    curve[i].ci95_levels = level_stats[i].ci95_halfwidth();
    curve[i].mean_blocks = block_stats[i].mean();
    curve[i].ci95_blocks = block_stats[i].ci95_halfwidth();
  }
  return curve;
}

/// Evenly spaced block counts from `lo` to `hi` (inclusive, deduplicated).
std::vector<std::size_t> make_block_counts(std::size_t lo, std::size_t hi, std::size_t points);

}  // namespace prlc::codes
