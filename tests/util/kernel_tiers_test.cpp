#include "util/kernel_tiers.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.h"

namespace prlc {
namespace {

// A toy family shaped like the real ones: a portable tier first, vector
// tiers last. The CPU checks are plain functions the cases choose from, so
// a check can fail on any host.
enum class ToyKernel { kReference = 0, kWide, kWider };

struct ToyOps {
  const char* name;
};

bool cpu_yes() { return true; }
bool cpu_no() { return false; }

TEST(KernelTable, EnumValuePastAShortTableIsNotCompiled) {
  // A build without the vector tiers: the table stops after the reference.
  static constexpr KernelTier<ToyOps> kTiers[] = {{{"reference"}}};
  constexpr KernelTable<ToyKernel, ToyOps> table{kTiers};
  EXPECT_EQ(table.compiled(), std::vector<ToyKernel>{ToyKernel::kReference});
  EXPECT_TRUE(table.runtime_ok(ToyKernel::kReference));
  for (const ToyKernel k : {ToyKernel::kWide, ToyKernel::kWider}) {
    EXPECT_FALSE(table.runtime_ok(k));
    EXPECT_THROW(table.ops(k), PreconditionError);
  }
  EXPECT_STREQ(table.ops(ToyKernel::kReference).name, "reference");
}

TEST(KernelTable, BestSkipsACompiledTierWhoseCheckFails) {
  static constexpr KernelTier<ToyOps> kTiers[] = {
      {{"reference"}}, {{"wide"}, cpu_yes}, {{"wider"}, cpu_no}};
  constexpr KernelTable<ToyKernel, ToyOps> table{kTiers};
  EXPECT_EQ(table.compiled(),
            (std::vector<ToyKernel>{ToyKernel::kReference, ToyKernel::kWide, ToyKernel::kWider}));
  EXPECT_EQ(table.best(), ToyKernel::kWide);
  // Compiled but not runnable: its ops are still reachable (a test or a
  // benchmark checks runtime_ok before it calls through them).
  EXPECT_FALSE(table.runtime_ok(ToyKernel::kWider));
  EXPECT_STREQ(table.ops(ToyKernel::kWider).name, "wider");

  static constexpr KernelTier<ToyOps> kAllRun[] = {
      {{"reference"}}, {{"wide"}, cpu_yes}, {{"wider"}, cpu_yes}};
  EXPECT_EQ((KernelTable<ToyKernel, ToyOps>{kAllRun}.best()), ToyKernel::kWider);
}

TEST(KernelTable, ReferenceDispatchesWhenNothingElseCan) {
  // The GF(2^8) family off x86: the reference is the whole table.
  static constexpr KernelTier<ToyOps> kReferenceOnly[] = {{{"reference"}}};
  EXPECT_EQ((KernelTable<ToyKernel, ToyOps>{kReferenceOnly}.best()), ToyKernel::kReference);
  // Every vector tier compiled, none runnable on this CPU.
  static constexpr KernelTier<ToyOps> kNoneRun[] = {
      {{"reference"}}, {{"wide"}, cpu_no}, {{"wider"}, cpu_no}};
  EXPECT_EQ((KernelTable<ToyKernel, ToyOps>{kNoneRun}.best()), ToyKernel::kReference);
}

}  // namespace
}  // namespace prlc
