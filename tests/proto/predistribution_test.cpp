#include "proto/predistribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

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

/// Every stored block of `got` equals the one of `want` (both absent, or
/// equal owner, owner generation, arrival count, level, coefficients and
/// payload), and so do their dissemination stats.
void expect_same_store(const Predistribution& got, const DisseminationStats& got_stats,
                       const Predistribution& want, const DisseminationStats& want_stats) {
  EXPECT_EQ(got_stats.messages, want_stats.messages);
  EXPECT_EQ(got_stats.total_hops, want_stats.total_hops);
  EXPECT_EQ(got_stats.failed_routes, want_stats.failed_routes);
  EXPECT_EQ(got_stats.max_node_load, want_stats.max_node_load);
  EXPECT_EQ(got_stats.mean_node_load, want_stats.mean_node_load);
  EXPECT_EQ(got_stats.capacity_spills, want_stats.capacity_spills);
  EXPECT_EQ(got_stats.capacity_overflows, want_stats.capacity_overflows);
  for (net::LocationId loc = 0; loc < want.overlay_locations().size(); ++loc) {
    const StoredBlock* a = got.stored(loc);
    const StoredBlock* b = want.stored(loc);
    ASSERT_EQ(a == nullptr, b == nullptr) << "loc " << loc;
    if (a == nullptr) continue;
    EXPECT_EQ(a->owner, b->owner) << "loc " << loc;
    EXPECT_EQ(a->owner_generation, b->owner_generation) << "loc " << loc;
    EXPECT_EQ(a->arrivals, b->arrivals) << "loc " << loc;
    EXPECT_EQ(a->block.level, b->block.level) << "loc " << loc;
    EXPECT_EQ(a->block.coeffs, b->block.coeffs) << "loc " << loc;
    EXPECT_EQ(a->block.payload, b->block.payload) << "loc " << loc;
  }
}

TEST(Predistribution, DisseminatingAgainEqualsAFreshStore) {
  // A second dissemination replaces the first: after heavy churn the store
  // must equal a fresh store's from the same Rng state, locations left
  // empty included. Dense PLC on a Chord ring; sparse PLC on a sensor
  // field with room for one block per node, where churn empties locations
  // (capacity overflow, partitioned routes).
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    Fixture f;
    std::unique_ptr<net::Overlay> overlay;
    if (sparse) {
      net::SensorParams sp;
      sp.nodes = 60;
      sp.locations = 40;
      sp.seed = 17;
      overlay = std::make_unique<net::SensorNetwork>(sp);
    } else {
      overlay = std::make_unique<net::ChordNetwork>(f.net_params);
    }
    ProtocolParams params;
    params.scheme = Scheme::kPlc;
    params.block_size = 1000;
    params.sparse = sparse;
    params.node_capacity = sparse ? 1 : 0;
    Predistribution store(*overlay, f.spec, f.dist, params);
    Rng rng(111);
    Rng churn(112);
    const auto source = codes::SourceData<Field>::random(f.spec.total(), params.block_size, rng);
    store.disseminate(source, rng);
    const std::size_t stored_before = store.surviving_locations().size();
    net::kill_uniform_fraction(*overlay, 0.7, churn);
    Rng fresh_rng = rng;
    const DisseminationStats stats = store.disseminate(source, rng);
    Predistribution fresh(*overlay, f.spec, f.dist, params);
    const DisseminationStats fresh_stats = fresh.disseminate(source, fresh_rng);
    expect_same_store(store, stats, fresh, fresh_stats);
    EXPECT_EQ(rng(), fresh_rng());  // the same draws, in the same order
    if (sparse) {
      EXPECT_LT(store.surviving_locations().size(), stored_before);
    }
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

// Ten of the fixture's 40 overlay locations, in no particular order.
const std::vector<net::LocationId> kListed{37, 2, 19, 11, 30, 5, 23, 8, 14, 33};

TEST(Predistribution, StoreOverALocationListPartitionsInListOrder) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  const Predistribution pd(overlay, f.spec, f.dist, ProtocolParams{}, kListed);
  EXPECT_EQ(pd.overlay_locations(), kListed);
  // 10 * (0.3, 0.3, 0.4) locations per level, levels ascending along the list.
  const std::vector<std::size_t> levels{0, 0, 0, 1, 1, 1, 2, 2, 2, 2};
  for (net::LocationId loc = 0; loc < kListed.size(); ++loc) {
    EXPECT_EQ(pd.level_of_location(loc), levels[loc]) << loc;
  }
  EXPECT_THROW(pd.level_of_location(10), PreconditionError);
}

TEST(Predistribution, StoreOverALocationListPlacesOnTheListedOwners) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  ProtocolParams params;
  params.block_size = 8;
  Predistribution pd(overlay, f.spec, f.dist, params, kListed);
  Rng rng(108);
  const auto source = codes::SourceData<Field>::random(f.spec.total(), 8, rng);
  pd.disseminate(source, rng);
  for (net::LocationId loc = 0; loc < kListed.size(); ++loc) {
    ASSERT_NE(pd.stored(loc), nullptr);
    EXPECT_EQ(pd.stored(loc)->owner, overlay.owner_of(kListed[loc])) << loc;
  }
  // A rebuilt block goes to the listed location's current owner too.
  overlay.fail_node(pd.stored(4)->owner);
  codes::CodedBlock<Field> rebuilt = pd.stored(4)->block;
  pd.store_rebuilt(4, std::move(rebuilt));
  EXPECT_EQ(pd.stored(4)->owner, overlay.owner_of(kListed[4]));
  EXPECT_TRUE(pd.stored(4)->retrievable(overlay));
}

TEST(Predistribution, StoreOverALocationListListsOnlyItsOwnLocations) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  Predistribution pd(overlay, f.spec, f.dist, ProtocolParams{}, kListed);
  Rng rng(109);
  pd.disseminate(codes::SourceData<Field>::random(f.spec.total(), 16, rng), rng);
  net::kill_uniform_fraction(overlay, 0.5, rng);
  const auto surviving = pd.surviving_locations();
  const auto lost = pd.lost_locations();
  EXPECT_FALSE(surviving.empty());
  EXPECT_FALSE(lost.empty());
  std::vector<net::LocationId> all = surviving;
  all.insert(all.end(), lost.begin(), lost.end());
  std::sort(all.begin(), all.end());
  std::vector<net::LocationId> own(kListed.size());
  std::iota(own.begin(), own.end(), net::LocationId{0});
  EXPECT_EQ(all, own);  // each store location exactly once, no overlay id
}

TEST(Predistribution, ShrinkToDropsTheLowestPriorityTail) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  Predistribution pd(overlay, f.spec, f.dist, ProtocolParams{}, kListed);
  Rng rng(110);
  pd.disseminate(codes::SourceData<Field>::random(f.spec.total(), 16, rng), rng);
  EXPECT_EQ(pd.shrink_to(7), (std::vector<net::LocationId>{33, 14, 8}));
  EXPECT_EQ(pd.overlay_locations(),
            std::vector<net::LocationId>(kListed.begin(), kListed.begin() + 7));
  EXPECT_THROW(pd.stored(7), PreconditionError);
  EXPECT_EQ(pd.surviving_locations().size(), 7u);
  EXPECT_EQ(pd.level_of_location(6), 2u);  // the kept blocks keep their levels
  EXPECT_TRUE(pd.shrink_to(9).empty());    // never grows
  EXPECT_EQ(pd.shrink_to(0).size(), 7u);
  EXPECT_TRUE(pd.surviving_locations().empty());
  EXPECT_TRUE(pd.lost_locations().empty());
}

TEST(Predistribution, RejectsALocationListOutsideTheOverlay) {
  Fixture f;
  net::ChordNetwork overlay(f.net_params);
  EXPECT_THROW(Predistribution(overlay, f.spec, f.dist, ProtocolParams{}, {0, 1, 40}),
               PreconditionError);
  EXPECT_THROW(Predistribution(overlay, f.spec, f.dist, ProtocolParams{}, {0, 1}),
               PreconditionError);  // fewer locations than levels
}

}  // namespace
}  // namespace prlc::proto
