// Parameterized end-to-end sweeps: for every combination of overlay
// family, coding scheme, sparse mode, and capacity limit, the full
// pipeline (deploy -> disseminate -> churn -> collect -> decode ->
// verify payloads) must behave identically in its guarantees.
#include <gtest/gtest.h>

#include <memory>

#include "codes/decoder.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "proto/deployment.h"
#include "proto/predistribution.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

struct E2eCase {
  const char* name;
  OverlayKind overlay;
  Scheme scheme;
  bool sparse;
  std::size_t capacity;  // 0 = unlimited
};

std::ostream& operator<<(std::ostream& os, const E2eCase& c) { return os << c.name; }

class EndToEnd : public ::testing::TestWithParam<E2eCase> {
 protected:
  static constexpr std::size_t kNodes = 120;
  static constexpr std::size_t kLocations = 72;  // 3x the data volume

  ProtocolParams make_params() const {
    ProtocolParams params;
    params.scheme = GetParam().scheme;
    params.block_size = 6;
    params.sparse = GetParam().sparse;
    params.sparsity_factor = 4.0;
    params.node_capacity = GetParam().capacity;
    return params;
  }
};

TEST_P(EndToEnd, CleanNetworkRecoversAndVerifiesEverything) {
  const PrioritySpec spec({4, 8, 12});  // N = 24
  const PriorityDistribution dist({0.3, 0.3, 0.4});
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam().overlay));
  auto overlay = make_overlay(GetParam().overlay, kNodes, kLocations, false, rng());
  Predistribution pd(*overlay, spec, dist, make_params());
  const auto source = codes::SourceData<Field>::random(spec.total(), 6, rng);
  const auto stats = pd.disseminate(source, rng);
  ASSERT_EQ(stats.failed_routes, 0u);
  ASSERT_EQ(stats.capacity_overflows, 0u);
  if (GetParam().capacity > 0) {
    ASSERT_LE(stats.max_node_load, GetParam().capacity);
  }

  const auto [result, verified] = collect_and_verify(pd, source, rng);
  EXPECT_EQ(result.decoded_levels, 3u) << "3x overprovisioning must decode all";
  EXPECT_TRUE(verified);
}

TEST_P(EndToEnd, ChurnNeverProducesWrongData) {
  const PrioritySpec spec({4, 8, 12});
  const PriorityDistribution dist = PriorityDistribution::uniform(3);
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam().scheme));
  auto overlay = make_overlay(GetParam().overlay, kNodes, kLocations, false, rng());
  Predistribution pd(*overlay, spec, dist, make_params());
  const auto source = codes::SourceData<Field>::random(spec.total(), 6, rng);
  pd.disseminate(source, rng);
  net::kill_uniform_fraction(*overlay, 0.6, rng);

  codes::PriorityDecoder<Field> decoder(GetParam().scheme, spec, 6);
  collect(pd, decoder, {}, rng);
  // Whatever survives, every decoded block must be byte-exact.
  ASSERT_EQ(wrong_decode_fraction(decoder, source), 0.0);
}

TEST_P(EndToEnd, DecodedLevelsMonotoneUnderIncreasingChurn) {
  const PrioritySpec spec({4, 8, 12});
  const PriorityDistribution dist = PriorityDistribution::uniform(3);
  Rng rng(3000);
  auto overlay = make_overlay(GetParam().overlay, kNodes, kLocations, false, rng());
  Predistribution pd(*overlay, spec, dist, make_params());
  const auto source = codes::SourceData<Field>::random(spec.total(), 6, rng);
  pd.disseminate(source, rng);

  std::size_t last_levels = spec.levels();
  std::size_t last_surviving = kLocations + 1;
  for (int wave = 0; wave < 5; ++wave) {
    net::kill_uniform_fraction(*overlay, 0.3, rng);
    codes::PriorityDecoder<Field> decoder(GetParam().scheme, spec, 6);
    const auto result = collect(pd, decoder, {}, rng).result;
    EXPECT_LT(result.surviving_locations, last_surviving);
    last_surviving = result.surviving_locations + 1;  // allow equality at 0
    // Not strictly monotone per-wave (collection order is irrelevant,
    // survivors only shrink) — levels can only stay or drop.
    EXPECT_LE(result.decoded_levels, last_levels);
    last_levels = result.decoded_levels;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EndToEnd,
    ::testing::Values(
        E2eCase{"chord_plc_dense", OverlayKind::kChord, Scheme::kPlc, false, 0},
        E2eCase{"chord_slc_dense", OverlayKind::kChord, Scheme::kSlc, false, 0},
        E2eCase{"chord_rlc_dense", OverlayKind::kChord, Scheme::kRlc, false, 0},
        E2eCase{"chord_plc_sparse", OverlayKind::kChord, Scheme::kPlc, true, 0},
        E2eCase{"chord_plc_capacity", OverlayKind::kChord, Scheme::kPlc, false, 2},
        E2eCase{"sensor_plc_dense", OverlayKind::kSensor, Scheme::kPlc, false, 0},
        E2eCase{"sensor_slc_dense", OverlayKind::kSensor, Scheme::kSlc, false, 0},
        E2eCase{"sensor_plc_sparse", OverlayKind::kSensor, Scheme::kPlc, true, 0},
        E2eCase{"sensor_plc_capacity", OverlayKind::kSensor, Scheme::kPlc, false, 2},
        E2eCase{"sensor_rlc_sparse", OverlayKind::kSensor, Scheme::kRlc, true, 0}),
    [](const ::testing::TestParamInfo<E2eCase>& info) { return info.param.name; });

}  // namespace
}  // namespace prlc::proto
