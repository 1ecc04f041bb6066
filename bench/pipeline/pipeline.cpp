#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "codes/decoder.h"
#include "codes/wire_format.h"
#include "net/churn.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::bench::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kCategory = "pipeline";

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

net::ChordParams ring_params(const ObjectShape& shape, std::uint64_t seed) {
  net::ChordParams params;
  params.nodes = shape.nodes;
  params.locations = shape.locations;
  params.seed = seed;
  return params;
}

proto::ProtocolParams protocol_params(const ObjectShape& shape) {
  proto::ProtocolParams params;
  params.scheme = codes::Scheme::kPlc;
  params.block_size = shape.block_size;
  return params;
}

}  // namespace

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kSmallObjects: return "small_objects";
    case Workload::kLargeObjects: return "large_objects";
    case Workload::kFaultyL1: return "faulty_l1";
    case Workload::kClusterLifetime: return "cluster_lifetime";
  }
  return "?";
}

std::optional<Workload> try_workload_from_string(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

WorkloadSpec workload_spec(Workload workload) {
  WorkloadSpec spec;
  spec.workload = workload;
  switch (workload) {
    case Workload::kSmallObjects:
      // 64 KiB objects: the working set fits in L2, per-frame fixed costs
      // dominate.
      spec.full_ops = 2000;
      spec.object.block_size = 1024;
      spec.object.pool = 8;
      break;
    case Workload::kLargeObjects:
      // 2 MiB objects, 4 MiB stored: byte kernels dominate.
      spec.full_ops = 200;
      spec.object.block_size = 32 * 1024;
      spec.object.pool = 2;
      break;
    case Workload::kFaultyL1: {
      // The highest-priority level first, through every collector fault path.
      spec.full_ops = 1000;
      spec.object.block_size = 4 * 1024;
      spec.object.target_levels = 1;
      net::FaultSpec& f = spec.object.faults;
      f.timeout_rate = 0.05;
      f.transient_rate = 0.05;
      f.corrupt_rate = 0.03;
      f.truncate_rate = 0.02;
      f.crash_rate = 0.01;
      f.bitrot_rate = 0.02;
      f.byzantine_fraction = 0.03;
      f.slow_fraction = 0.1;
      break;
    }
    case Workload::kClusterLifetime: {
      // No GF or payload work at all: the bypass for data-path changes.
      spec.full_ops = 120;
      sim::ClusterParams& p = spec.cluster;
      p.nodes = 100000;
      p.max_time = 40.0;
      p.experiment.level_sizes = {8, 16, 24};
      p.experiment.failure.kind = sim::FailureModelConfig::Kind::kPoisson;
      p.experiment.failure.churn_rate = 0.1;
      p.repair.policy = sim::RepairPolicy::kPriorityAware;
      p.repair.bandwidth = 8.0;
      p.integrity.rot_rate = 0.02;
      p.integrity.scrub_interval = 1.0;
      break;
    }
  }
  spec.warmup_ops = spec.full_ops / 20;
  return spec;
}

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0xd1b54a32d192ed03ULL * (index + 1));
  return splitmix64_next(state);
}

ObjectFixture::ObjectFixture(const ObjectShape& shape, std::uint64_t seed)
    : shape_(shape),
      overlay_(ring_params(shape, seed)),
      predist_(overlay_, codes::PrioritySpec::uniform(shape.levels, shape.per_level),
               codes::PriorityDistribution::uniform(shape.levels), protocol_params(shape)) {
  Rng rng(seed);
  const std::size_t blocks = shape.levels * shape.per_level;
  for (std::size_t i = 0; i < shape.pool; ++i) {
    sources_.push_back(codes::SourceData<Field>::random(blocks, shape.block_size, rng));
    std::vector<std::uint8_t>& flat = flat_.emplace_back();
    flat.reserve(blocks * shape.block_size);
    for (std::size_t j = 0; j < blocks; ++j) {
      const auto row = sources_.back().block(j);
      flat.insert(flat.end(), row.begin(), row.end());
    }
  }
}

LifecycleSample run_lifecycle(ObjectFixture& fx, std::uint64_t seed, std::uint64_t index,
                              bool traced) {
  const ObjectShape& shape = fx.shape();
  net::ChordNetwork& overlay = fx.overlay();
  for (net::NodeId v = 0; v < overlay.nodes(); ++v) overlay.revive_node(v);
  Rng rng(op_seed(seed, index));
  LifecycleSample s;
  s.source = index % fx.pool();

  const Clock::time_point t0 = Clock::now();
  {
    obs::ScopedSpan span("disseminate", kCategory);
    s.store = fx.predist().disseminate(fx.source(s.source), rng);
  }
  {
    obs::ScopedSpan span("manifest", kCategory);
    s.manifest = util::build_manifest(rng(), fx.source_bytes(s.source), shape.block_size);
  }
  const Clock::time_point t1 = Clock::now();
  {
    obs::ScopedSpan span("churn", kCategory);
    net::kill_uniform_fraction(overlay, shape.churn, rng);
  }
  const Clock::time_point t2 = Clock::now();

  // The fault plan and the channel are the harness, not the read.
  proto::FaultyChannel channel(fx.predist(), net::FaultPlan(shape.faults, overlay.nodes(), rng));
  proto::CollectorOptions options;
  options.target_levels = shape.target_levels;
  options.manifest = &s.manifest;
  options.trace = traced;
  std::optional<codes::PriorityDecoder<Field>> decoder;
  const Clock::time_point t3 = Clock::now();
  {
    obs::ScopedSpan span("collect", kCategory);
    decoder.emplace(codes::Scheme::kPlc, fx.predist().spec(), shape.block_size);
    s.read = proto::collect(channel, *decoder, options, rng);
  }
  const Clock::time_point t4 = Clock::now();

  s.store_us = us_between(t0, t1);
  s.churn_us = us_between(t1, t2);
  s.read_us = us_between(t3, t4);
  s.axpy_bytes = axpy_bytes(fx.predist());
  s.injected = channel.injected();
  const std::size_t blocks = decoder->decoded_prefix_blocks();
  s.decoded.reserve(blocks * shape.block_size);
  for (std::size_t j = 0; j < blocks; ++j) {
    const auto row = decoder->recovered(j);
    s.decoded.insert(s.decoded.end(), row.begin(), row.end());
  }
  return s;
}

std::size_t axpy_bytes(const proto::Predistribution& predist) {
  std::size_t arrivals = 0;
  for (net::LocationId loc = 0; loc < predist.overlay().locations(); ++loc) {
    if (const proto::StoredBlock* slot = predist.stored(loc)) arrivals += slot->arrivals;
  }
  return arrivals * predist.params().block_size;
}

bool lifecycle_correct(const ObjectFixture& fx, const LifecycleSample& sample) {
  const std::span<const std::uint8_t> want = fx.source_bytes(sample.source);
  if (sample.decoded.size() != sample.read.result.decoded_blocks * fx.shape().block_size ||
      sample.decoded.size() > want.size() ||
      !std::equal(sample.decoded.begin(), sample.decoded.end(), want.begin())) {
    return false;
  }
  return sample.read.faults.integrity_violations ==
         sample.injected.bitrot_frames + sample.injected.byzantine_frames;
}

ReplayBytes replay_read(const ObjectFixture& fx, const LifecycleSample& sample) {
  const proto::Predistribution& predist = fx.predist();
  proto::FaultyChannel channel(predist);
  codes::PriorityDecoder<Field> decoder(codes::Scheme::kPlc, predist.spec(),
                                        fx.shape().block_size);
  std::optional<util::Fingerprinter> fingerprinter;
  {
    // collect() builds one Fingerprinter per read; its tables are verify work.
    obs::ScopedSpan span("verify", kCategory);
    fingerprinter.emplace(sample.manifest.seed);
  }
  Rng rng(0);  // a null-plan fetch draws nothing
  std::vector<std::uint8_t> scratch(predist.spec().total());
  std::size_t mismatches = 0;
  ReplayBytes bytes;
  for (const proto::FetchAttempt& attempt : sample.read.fetch_log) {
    if (attempt.fault != net::FaultClass::kNone) continue;  // no frame arrived
    proto::FetchReply reply;
    {
      obs::ScopedSpan span("fetch", kCategory);
      reply = channel.fetch(attempt.location, rng);
    }
    bytes.fetch += static_cast<double>(reply.bytes.size());
    codes::WireBlockView view;
    std::span<const std::uint8_t> coeffs;
    {
      obs::ScopedSpan span("wire_decode", kCategory);
      view = codes::decode_wire_view(reply.bytes);
      coeffs = view.dense_coeffs;
      if (!view.dense()) {
        view.expand_coeffs(scratch);
        coeffs = scratch;
      }
    }
    bytes.wire += static_cast<double>(reply.bytes.size());
    if (attempt.wire_rejected) continue;
    {
      obs::ScopedSpan span("verify", kCategory);
      if (fingerprinter->fingerprint(view.payload) !=
          fingerprinter->combine(coeffs, sample.manifest.fingerprints)) {
        ++mismatches;
      }
    }
    bytes.verify += static_cast<double>(view.payload.size());
    if (!attempt.delivered) continue;
    {
      obs::ScopedSpan span("decode_add", kCategory);
      decoder.add(view.level, coeffs, view.payload);
    }
    bytes.add += static_cast<double>(view.payload.size());
  }
  PRLC_ASSERT(mismatches == 0, "a frame from a fault-free channel failed its fingerprint");
  return bytes;
}

TrialSample run_trial(const sim::ClusterParams& params, std::uint64_t seed,
                      std::uint64_t index) {
  Rng rng(op_seed(seed, index));
  TrialSample s;
  const Clock::time_point t0 = Clock::now();
  try {
    obs::ScopedSpan span("trial", kCategory);
    s.outcome = sim::run_cluster_trial(params, rng);
    s.ok = s.outcome.rot_detected <= s.outcome.rot_events;
  } catch (const std::exception&) {
    s.ok = false;
  }
  s.us = us_between(t0, Clock::now());
  return s;
}

std::optional<Tail> tail_of(std::span<const double> samples) {
  // Percentiles in tenths, so ranks are exact integer arithmetic.
  static constexpr std::size_t kTenths[] = {999, 990, 950, 900, 750, 500};
  const std::size_t n = samples.size();
  for (const std::size_t tenths : kTenths) {
    const std::size_t rank = (tenths * n + 999) / 1000;  // nearest rank, 1-based
    if (rank == 0 || n - rank < 10) continue;
    std::vector<double> sorted(samples.begin(), samples.end());
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     sorted.end());
    return Tail{static_cast<double>(tenths) / 10.0, sorted[rank - 1]};
  }
  return std::nullopt;
}

}  // namespace prlc::bench::pipeline
