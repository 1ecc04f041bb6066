#include "codec/payload_codec.h"

#include <algorithm>
#include <utility>

#include "codec/op_graph.h"
#include "linalg/progressive_decoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::codec {

PayloadCodec::PayloadCodec(codes::Scheme scheme, codes::PrioritySpec spec,
                           CodecOptions options)
    : scheme_(scheme),
      spec_(std::move(spec)),
      chunk_bytes_(options.chunk_bytes),
      pool_(options.pool) {
  PRLC_REQUIRE(spec_.total() > 0, "priority spec has no source blocks");
  PRLC_REQUIRE(chunk_bytes_ > 0, "chunk size must be positive");
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

PayloadDecodeResult PayloadCodec::decode(
    std::span<const std::vector<std::uint8_t>> coeff_rows,
    std::span<std::vector<std::uint8_t>> payloads) const {
  obs::ScopedSpan span("codec.decode", "codec");
  PRLC_REQUIRE(coeff_rows.size() == payloads.size(),
               "one payload buffer per coefficient row required");
  const std::size_t n = spec_.total();
  std::size_t payload_size = 0;
  for (const auto& p : payloads) {
    if (payload_size == 0) payload_size = p.size();
    PRLC_REQUIRE(p.size() == payload_size && !p.empty(),
                 "payload buffers must share one nonzero size");
  }

  // Phase 1: coefficient-only elimination, recording the payload-row
  // schedule instead of touching payload bytes.
  linalg::ProgressiveDecoder<F> coef_decoder(n);
  linalg::EliminationSchedule schedule;
  coef_decoder.set_schedule_recorder(&schedule);
  {
    obs::ScopedSpan coef("codec.decode.coefficients", "codec");
    for (const auto& row : coeff_rows) {
      PRLC_REQUIRE(row.size() == n, "coefficient row width mismatch");
      coef_decoder.add(row);
    }
  }

  // Phase 2: replay the schedule over the payload buffers as a graph.
  OpGraph graph(chunk_bytes_);
  {
    obs::ScopedSpan build("codec.decode.build", "codec");
    std::vector<std::uint32_t> buf_ids(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      buf_ids[i] = graph.add_buffer(payloads[i].data(), payload_size);
    }
    using Sched = linalg::EliminationSchedule;
    for (const auto& op : schedule.ops) {
      switch (op.kind) {
        case Sched::OpKind::kAxpy:
          graph.axpy(buf_ids[op.target], buf_ids[op.source], op.factor);
          break;
        case Sched::OpKind::kScale:
          graph.scale(buf_ids[op.target], op.factor);
          break;
      }
    }
    graph.finalize();
  }
  {
    obs::ScopedSpan exec("codec.decode.execute", "codec");
    graph.run(pool_);
  }

  PayloadDecodeResult result;
  result.rank = coef_decoder.rank();
  result.decoded_prefix = coef_decoder.decoded_prefix();
  result.decoded_levels = spec_.levels_covered_by_prefix(result.decoded_prefix);
  result.blocks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!coef_decoder.is_decoded(i)) continue;
    const std::uint32_t input = schedule.pivot_input[i];
    PRLC_ASSERT(input != linalg::EliminationSchedule::kNoInput,
                "decoded unknown without a bound input buffer");
    result.blocks[i].decoded = true;
    result.blocks[i].payload = payloads[input];
  }
  return result;
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
  std::size_t payload_size = 0;
  for (const auto& p : payloads) {
    if (payload_size == 0) payload_size = p.size();
    PRLC_REQUIRE(p.size() == payload_size && !p.empty(),
                 "survivor payloads must share one nonzero size");
  }

  codes::CodedBlock<F> block;
  block.level = level;
  block.coeffs.assign(n, 0);
  for (std::size_t i = 0; i < coeff_rows.size(); ++i) {
    PRLC_REQUIRE(coeff_rows[i].size() == n, "survivor row width mismatch");
    if (gamma[i] == 0) continue;
    F::axpy(std::span<std::uint8_t>(block.coeffs), gamma[i],
            std::span<const std::uint8_t>(coeff_rows[i]));
  }
  block.payload.assign(payload_size, 0);

  OpGraph graph(chunk_bytes_);
  const std::uint32_t out = graph.add_buffer(block.payload.data(), payload_size);
  bool first = true;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (gamma[i] == 0) continue;
    const std::uint32_t src = graph.add_const_buffer(payloads[i].data(), payload_size);
    if (first) {
      graph.mul_region(out, src, gamma[i]);
      first = false;
    } else {
      graph.axpy(out, src, gamma[i]);
    }
  }
  if (first) graph.zero(out);
  graph.finalize();
  graph.run(pool_);
  return block;
}

}  // namespace prlc::codec
