#include "proto/predistribution.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gf/gf256_kernels.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "net/sensor_network.h"
#include "util/check.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

TEST(Apportion, LargestRemainderExact) {
  const std::vector<double> w = {0.5, 0.25, 0.25};
  const auto parts = apportion_largest_remainder(8, w);
  EXPECT_EQ(parts, (std::vector<std::size_t>{4, 2, 2}));
}

TEST(Apportion, RoundsWithinOne) {
  const std::vector<double> w = {0.5138, 0.0768, 0.4094};  // Table 1, Case 1
  const auto parts = apportion_largest_remainder(1000, w);
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    total += parts[i];
    EXPECT_NEAR(static_cast<double>(parts[i]), 1000 * w[i], 1.0);
  }
  EXPECT_EQ(total, 1000u);
}

TEST(Apportion, ZeroWeightGetsZero) {
  const std::vector<double> w = {0.0, 0.6149, 0.3851};  // Table 1, Case 2
  const auto parts = apportion_largest_remainder(500, w);
  EXPECT_EQ(parts[0], 0u);
  EXPECT_EQ(parts[1] + parts[2], 500u);
}

TEST(Apportion, Validates) {
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(apportion_largest_remainder(5, zero), PreconditionError);
  const std::vector<double> neg = {1.0, -0.5};
  EXPECT_THROW(apportion_largest_remainder(5, neg), PreconditionError);
}

struct Fixture {
  PrioritySpec spec{std::vector<std::size_t>{4, 6, 10}};  // N = 20
  PriorityDistribution dist{std::vector<double>{0.3, 0.3, 0.4}};
  net::ChordParams net_params;
  Fixture() {
    net_params.nodes = 60;
    net_params.locations = 40;
    net_params.seed = 11;
  }
};

TEST(Predistribution, PartitionSizesFollowDistribution) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  ProtocolParams params;
  params.scheme = Scheme::kPlc;
  const Predistribution pd(overlay, f.spec, f.dist, params);
  std::vector<std::size_t> counts(3, 0);
  for (net::LocationId loc = 0; loc < overlay.locations(); ++loc) {
    ++counts[pd.level_of_location(loc)];
  }
  EXPECT_EQ(counts[0], 12u);
  EXPECT_EQ(counts[1], 12u);
  EXPECT_EQ(counts[2], 16u);
}

TEST(Predistribution, StoredBlocksMatchSchemeSupport) {
  for (Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    Fixture f;
    net::ChordNetwork overlay(f.net_params);
    ProtocolParams params;
    params.scheme = scheme;
    params.block_size = 8;
    Predistribution pd(overlay, f.spec, f.dist, params);
    Rng rng(101);
    const auto source = codes::SourceData<Field>::random(f.spec.total(), 8, rng);
    pd.disseminate(source, rng);
    for (net::LocationId loc = 0; loc < overlay.locations(); ++loc) {
      const StoredBlock* slot = pd.stored(loc);
      ASSERT_NE(slot, nullptr);
      const std::size_t level = pd.level_of_location(loc);
      EXPECT_EQ(slot->block.level, level);
      std::size_t begin = 0;
      std::size_t end = f.spec.total();
      if (scheme == Scheme::kSlc) {
        begin = f.spec.level_begin(level);
        end = f.spec.level_end(level);
      } else if (scheme == Scheme::kPlc) {
        end = f.spec.level_end(level);
      }
      for (std::size_t j = 0; j < f.spec.total(); ++j) {
        if (j < begin || j >= end) {
          ASSERT_EQ(slot->block.coeffs[j], 0)
              << codes::to_string(scheme) << " loc " << loc << " col " << j;
        } else {
          ASSERT_NE(slot->block.coeffs[j], 0);  // dense mode: every support
        }
      }
    }
  }
}

TEST(Predistribution, StoredPayloadIsLinearCombination) {
  // Block sizes below every vector width, unaligned, and spanning several
  // kernel tiles with a tail; the expected payload uses the reference tier.
  const gf::Gf256KernelOps& reference = gf::gf256_kernel_ops(gf::Gf256Kernel::kReference);
  for (const std::size_t block_size : {std::size_t{8}, std::size_t{1000},
                                       3 * gf::kGf256TileBytes + 37}) {
    for (const Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
      for (const bool sparse : {false, true}) {
        for (const bool churned : {false, true}) {
          Fixture f;
          net::ChordNetwork overlay(f.net_params);
          Rng rng(102);
          if (churned) net::kill_uniform_fraction(overlay, 0.3, rng);
          ProtocolParams params;
          params.scheme = scheme;
          params.block_size = block_size;
          params.sparse = sparse;
          Predistribution pd(overlay, f.spec, f.dist, params);
          const auto source = codes::SourceData<Field>::random(f.spec.total(), block_size, rng);
          pd.disseminate(source, rng);
          for (net::LocationId loc = 0; loc < overlay.locations(); ++loc) {
            const StoredBlock* slot = pd.stored(loc);
            ASSERT_NE(slot, nullptr);
            std::vector<Field::Symbol> expect(block_size, 0);
            std::size_t terms = 0;
            for (std::size_t j = 0; j < f.spec.total(); ++j) {
              if (slot->block.coeffs[j] == 0) continue;
              ++terms;
              reference.axpy(expect.data(), source.block(j).data(), slot->block.coeffs[j],
                             block_size);
            }
            EXPECT_EQ(slot->arrivals, terms);
            ASSERT_EQ(slot->block.payload, expect)
                << codes::to_string(scheme) << " block_size " << block_size << " sparse "
                << sparse << " churned " << churned << " loc " << loc;
          }
        }
      }
    }
  }
}

TEST(Predistribution, DisseminationStatsAccounting) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  ProtocolParams params;
  params.scheme = Scheme::kSlc;
  params.block_size = 4;
  Predistribution pd(overlay, f.spec, f.dist, params);
  Rng rng(103);
  const auto source = codes::SourceData<Field>::random(f.spec.total(), 4, rng);
  const auto stats = pd.disseminate(source, rng);
  // Dense SLC: every location receives its whole level: messages =
  // sum_loc a_{level(loc)} = 12*4 + 12*6 + 16*10.
  EXPECT_EQ(stats.messages, 12u * 4 + 12u * 6 + 16u * 10);
  EXPECT_EQ(stats.failed_routes, 0u);
  EXPECT_GT(stats.max_node_load, 0u);
  EXPECT_GE(static_cast<double>(stats.max_node_load), stats.mean_node_load);
}

TEST(Predistribution, SparseModeReducesMessages) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  ProtocolParams dense;
  dense.scheme = Scheme::kPlc;
  ProtocolParams sparse = dense;
  sparse.sparse = true;
  sparse.sparsity_factor = 2.0;
  Rng rng(104);
  const auto source = codes::SourceData<Field>::random(f.spec.total(), dense.block_size, rng);
  Predistribution pd_dense(overlay, f.spec, f.dist, dense);
  Predistribution pd_sparse(overlay, f.spec, f.dist, sparse);
  const auto s1 = pd_dense.disseminate(source, rng);
  const auto s2 = pd_sparse.disseminate(source, rng);
  EXPECT_LT(s2.messages, s1.messages);
  // Sparse row weight: ceil(2 ln(width)), clamped.
  for (net::LocationId loc = 0; loc < overlay.locations(); ++loc) {
    const StoredBlock* slot = pd_sparse.stored(loc);
    ASSERT_NE(slot, nullptr);
    const std::size_t width = f.spec.level_end(pd_sparse.level_of_location(loc));
    const auto target = std::min<std::size_t>(
        width, static_cast<std::size_t>(std::ceil(2.0 * std::log(std::max<double>(2.0, width)))));
    EXPECT_EQ(slot->arrivals, target);
  }
}

TEST(Predistribution, WorksOnSensorOverlay) {
  Fixture f;
  net::SensorParams sp;
  sp.nodes = 120;
  sp.locations = 40;
  sp.seed = 13;
  net::SensorNetwork overlay(sp);
  ProtocolParams params;
  params.scheme = Scheme::kPlc;
  Predistribution pd(overlay, f.spec, f.dist, params);
  Rng rng(105);
  const auto source = codes::SourceData<Field>::random(f.spec.total(), params.block_size, rng);
  const auto stats = pd.disseminate(source, rng);
  EXPECT_EQ(stats.failed_routes, 0u);
  EXPECT_GT(stats.total_hops, 0u);
  EXPECT_EQ(pd.surviving_locations().size(), overlay.locations());
}

TEST(Predistribution, SurvivingLocationsShrinkWithFailures) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  ProtocolParams params;
  Predistribution pd(overlay, f.spec, f.dist, params);
  Rng rng(106);
  const auto source = codes::SourceData<Field>::random(f.spec.total(), params.block_size, rng);
  pd.disseminate(source, rng);
  const std::size_t before = pd.surviving_locations().size();
  // Kill every placement owner of the first five locations.
  for (net::LocationId loc = 0; loc < 5; ++loc) {
    overlay.fail_node(pd.stored(loc)->owner);
  }
  EXPECT_LT(pd.surviving_locations().size(), before);
}

TEST(Predistribution, ValidatesInputs) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  ProtocolParams params;
  EXPECT_THROW(Predistribution(overlay, f.spec, PriorityDistribution::uniform(2), params),
               PreconditionError);
  Predistribution pd(overlay, f.spec, f.dist, params);
  Rng rng(107);
  const auto wrong_count = codes::SourceData<Field>::random(5, params.block_size, rng);
  EXPECT_THROW(pd.disseminate(wrong_count, rng), PreconditionError);
  const auto wrong_size = codes::SourceData<Field>::random(f.spec.total(), 3, rng);
  EXPECT_THROW(pd.disseminate(wrong_size, rng), PreconditionError);
}

}  // namespace
}  // namespace prlc::proto
