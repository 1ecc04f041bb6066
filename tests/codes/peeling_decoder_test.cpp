#include "codes/peeling_decoder.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/random.h"

namespace prlc::codes {
namespace {

TEST(PeelingDecoder, DegreeOneDecodesImmediately) {
  PeelingDecoder dec(5);
  const std::size_t idx[] = {2};
  EXPECT_EQ(dec.add(idx), 1u);
  EXPECT_TRUE(dec.is_decoded(2));
  EXPECT_EQ(dec.decoded_count(), 1u);
}

TEST(PeelingDecoder, DegreeTwoWaitsThenCascades) {
  PeelingDecoder dec(4);
  const std::size_t pair[] = {0, 1};
  EXPECT_EQ(dec.add(pair), 0u);
  EXPECT_EQ(dec.buffered_symbols(), 1u);
  const std::size_t single[] = {0};
  // Decoding 0 releases the buffered pair -> also decodes 1.
  EXPECT_EQ(dec.add(single), 2u);
  EXPECT_TRUE(dec.is_decoded(0));
  EXPECT_TRUE(dec.is_decoded(1));
  EXPECT_EQ(dec.buffered_symbols(), 0u);
}

TEST(PeelingDecoder, LongCascade) {
  // Chain: {0,1}, {1,2}, {2,3}, {3,4} then {0} unlocks everything.
  PeelingDecoder dec(5);
  for (std::size_t i = 0; i + 1 < 5; ++i) {
    const std::size_t pair[] = {i, i + 1};
    EXPECT_EQ(dec.add(pair), 0u);
  }
  const std::size_t single[] = {0};
  EXPECT_EQ(dec.add(single), 5u);
  EXPECT_EQ(dec.decoded_count(), 5u);
}

TEST(PeelingDecoder, RedundantSymbolsAreIgnored) {
  PeelingDecoder dec(3);
  const std::size_t a[] = {0};
  const std::size_t b[] = {0, 1};
  dec.add(a);
  dec.add(b);  // now just "1", decodes
  EXPECT_EQ(dec.add(b), 0u);  // fully known: redundant
  EXPECT_EQ(dec.decoded_count(), 2u);
}

TEST(PeelingDecoder, CannotSolveCoupledSystems) {
  // {0,1}, {1,2}, {0,2} has rank 2 over GF(2) but no degree-1 entry point:
  // peeling decodes nothing (Gauss-Jordan couldn't fully solve it either,
  // but would at least combine; peeling by design waits).
  PeelingDecoder dec(3);
  const std::size_t s1[] = {0, 1};
  const std::size_t s2[] = {1, 2};
  const std::size_t s3[] = {0, 2};
  dec.add(s1);
  dec.add(s2);
  dec.add(s3);
  EXPECT_EQ(dec.decoded_count(), 0u);
  EXPECT_EQ(dec.buffered_symbols(), 3u);
}

TEST(PeelingDecoder, ValidatesInput) {
  PeelingDecoder dec(3);
  const std::vector<std::size_t> empty;
  EXPECT_THROW(dec.add(empty), PreconditionError);
  const std::size_t oob[] = {5};
  EXPECT_THROW(dec.add(oob), PreconditionError);
  const std::size_t dup[] = {1, 1};
  EXPECT_THROW(dec.add(dup), PreconditionError);
  EXPECT_THROW(PeelingDecoder(0), PreconditionError);
}

TEST(PeelingDecoder, RejectsDuplicateOfDecodedIndex) {
  // Regression: duplicate validation used to run on the *pending* list
  // only, after decoded blocks were split off, so {0, 0, 1} with block 0
  // already decoded was accepted.
  PeelingDecoder dec(3);
  const std::size_t single[] = {0};
  dec.add(single);
  ASSERT_TRUE(dec.is_decoded(0));
  const std::size_t dup_decoded[] = {0, 0, 1};
  EXPECT_THROW(dec.add(dup_decoded), PreconditionError);
  // The rejected symbol must not count or buffer anything.
  EXPECT_EQ(dec.buffered_symbols(), 0u);
  EXPECT_EQ(dec.decoded_count(), 1u);
}

TEST(PeelingDecoder, RetiredSymbolsLeaveTheBuffer) {
  // Regression: retired symbols used to stay buffered forever. The
  // buffered count must track live symbols only and drop to zero after a
  // full cascade.
  const std::size_t n = 16;
  PeelingDecoder dec(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t pair[] = {i, i + 1};
    dec.add(pair);
  }
  EXPECT_EQ(dec.buffered_symbols(), n - 1);
  const std::size_t single[] = {0};
  EXPECT_EQ(dec.add(single), n);
  EXPECT_EQ(dec.buffered_symbols(), 0u);
}

TEST(PeelingDecoder, RandomizedAgainstReachability) {
  // Property: after adding random symbols, the decoded count equals what
  // iterating peeling to a fixed point on the full symbol set gives.
  Rng rng(222);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 12;
    std::vector<std::vector<std::size_t>> symbols;
    PeelingDecoder dec(n);
    for (int s = 0; s < 20; ++s) {
      const std::size_t d = 1 + rng.uniform(3);
      auto idx = rng.sample_without_replacement(n, d);
      symbols.push_back(idx);
      dec.add(idx);
    }
    // Reference fixed point.
    std::vector<bool> known(n, false);
    bool progress = true;
    while (progress) {
      progress = false;
      for (const auto& sym : symbols) {
        std::size_t unknowns = 0;
        std::size_t last = 0;
        for (std::size_t i : sym) {
          if (!known[i]) {
            ++unknowns;
            last = i;
          }
        }
        if (unknowns == 1) {
          known[last] = true;
          progress = true;
        }
      }
    }
    std::size_t expect = 0;
    for (bool k : known) expect += k ? 1 : 0;
    ASSERT_EQ(dec.decoded_count(), expect) << "trial " << trial;
  }
}

}  // namespace
}  // namespace prlc::codes
