#include "codec/payload_codec.h"

#include <algorithm>
#include <utility>

#include "gf/gf256_kernels.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::codec {

PayloadCodec::PayloadCodec(codes::PrioritySpec spec, runtime::ThreadPool* pool)
    : spec_(std::move(spec)), pool_(pool) {
  PRLC_REQUIRE(spec_.total() > 0, "priority spec has no source blocks");
}

std::vector<std::vector<std::uint8_t>> PayloadCodec::encode(
    std::span<const std::vector<std::uint8_t>> coeff_rows,
    const codes::SourceData<F>& source) const {
  obs::ScopedSpan span("codec.encode", "codec");
  PRLC_REQUIRE(source.blocks() == spec_.total(),
               "source data does not match the priority spec");
  const std::size_t n = spec_.total();
  const std::size_t payload = source.block_size();
  PRLC_REQUIRE(payload > 0, "source blocks are empty");

  std::vector<const std::uint8_t*> sources(n);
  for (std::size_t j = 0; j < n; ++j) sources[j] = source.block(j).data();
  std::vector<const std::uint8_t*> rows(coeff_rows.size());
  for (std::size_t b = 0; b < rows.size(); ++b) {
    PRLC_REQUIRE(coeff_rows[b].size() == n, "coefficient row width mismatch");
    rows[b] = coeff_rows[b].data();
  }
  std::vector<std::vector<std::uint8_t>> out(coeff_rows.size(),
                                             std::vector<std::uint8_t>(payload));
  std::vector<std::uint8_t*> outs(out.size());
  for (std::size_t b = 0; b < out.size(); ++b) outs[b] = out[b].data();

  // Each part computes whole rows, so the bytes do not depend on how many
  // parts the pool runs.
  const std::size_t parts =
      pool_ == nullptr || out.empty() ? 1 : std::min(out.size(), pool_->thread_count());
  const auto encode_part = [&](std::size_t p) {
    const std::size_t begin = out.size() * p / parts;
    const std::size_t end = out.size() * (p + 1) / parts;
    gf::gf256_combine_batch(outs.data() + begin, rows.data() + begin, end - begin,
                            sources.data(), n, payload);
  };
  if (parts <= 1) {
    encode_part(0);
  } else {
    pool_->for_each_index(parts, encode_part);
  }
  return out;
}

codes::CodedBlock<gf::Gf256> PayloadCodec::recombine(
    std::span<const std::vector<std::uint8_t>> coeff_rows,
    std::span<const std::span<const std::uint8_t>> payloads,
    std::span<const std::uint8_t> gamma, std::size_t level) const {
  obs::ScopedSpan span("codec.recombine", "codec");
  PRLC_REQUIRE(coeff_rows.size() == payloads.size() && coeff_rows.size() == gamma.size(),
               "survivor rows, payloads and gamma must align");
  PRLC_REQUIRE(!coeff_rows.empty(), "recombination needs at least one survivor");
  const std::size_t n = spec_.total();
  const std::size_t payload_size = payloads.front().size();
  std::vector<const std::uint8_t*> rows(coeff_rows.size());
  std::vector<const std::uint8_t*> survivors(payloads.size());
  for (std::size_t i = 0; i < coeff_rows.size(); ++i) {
    PRLC_REQUIRE(coeff_rows[i].size() == n, "survivor row width mismatch");
    PRLC_REQUIRE(payloads[i].size() == payload_size && payload_size > 0,
                 "survivor payloads must share one nonzero size");
    rows[i] = coeff_rows[i].data();
    survivors[i] = payloads[i].data();
  }

  // Coefficients and payload are each one gamma row of the combine
  // product, over the survivors' coefficient rows and payloads.
  codes::CodedBlock<F> block;
  block.level = level;
  block.coeffs.resize(n);
  block.payload.resize(payload_size);
  std::uint8_t* coeffs = block.coeffs.data();
  std::uint8_t* payload = block.payload.data();
  const std::uint8_t* weights = gamma.data();
  gf::gf256_combine_batch(&coeffs, &weights, 1, rows.data(), rows.size(), n);
  gf::gf256_combine_batch(&payload, &weights, 1, survivors.data(), survivors.size(),
                          payload_size);
  return block;
}

}  // namespace prlc::codec
