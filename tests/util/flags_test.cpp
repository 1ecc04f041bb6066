#include "util/flags.h"

#include <gtest/gtest.h>

#include <limits>

namespace prlc {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> v(args);
  return Flags::parse(static_cast<int>(v.size()), v.data());
}

TEST(Flags, SpaceAndEqualsForms) {
  const auto f = make({"--alpha", "2.5", "--name=plc"});
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0), 2.5);
  EXPECT_EQ(f.get_string("name", ""), "plc");
}

TEST(Flags, Defaults) {
  const auto f = make({});
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_EQ(f.get_string("missing", "x"), "x");
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, BooleanStyles) {
  const auto f = make({"--verbose", "--flag1", "on", "--flag2=false"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.get_bool("flag1", false));
  EXPECT_FALSE(f.get_bool("flag2", true));
  EXPECT_THROW(make({"--x", "maybe"}).get_bool("x", false), PreconditionError);
}

TEST(Flags, Positional) {
  const auto f = make({"pos1", "--k", "1", "pos2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(Flags, Lists) {
  const auto f = make({"--dist", "0.5,0.3,0.2", "--levels=1,2,3"});
  EXPECT_EQ(f.get_double_list("dist", {}), (std::vector<double>{0.5, 0.3, 0.2}));
  EXPECT_EQ(f.get_size_list("levels", {}), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_THROW(make({"--l", "1,x"}).get_double_list("l", {}), PreconditionError);
  EXPECT_THROW(make({"--l", "1.5,2"}).get_size_list("l", {}), PreconditionError);
}

TEST(Flags, TypeErrors) {
  EXPECT_THROW(make({"--n", "abc"}).get_int("n", 0), PreconditionError);
  EXPECT_THROW(make({"--d", "1.2.3"}).get_double("d", 0), PreconditionError);
}

TEST(Flags, IntegersRejectOverflowInsteadOfSaturating) {
  EXPECT_EQ(make({"--n=9223372036854775807"}).get_int("n", 0),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(make({"--n=-9223372036854775808"}).get_int("n", 0),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(make({"--n=-5"}).get_int("n", 0), -5);
  for (const char* bad : {"--n=9223372036854775808", "--n=-9223372036854775809",
                          "--n=99999999999999999999999", "--n=-", "--n=1e3", "--n=5 "}) {
    EXPECT_THROW(make({bad}).get_int("n", 0), PreconditionError) << bad;
  }
}

TEST(Flags, DoublesRejectNanAndInfinity) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    EXPECT_THROW(make({"--d", bad}).get_double("d", 0), PreconditionError) << bad;
  }
  EXPECT_THROW(make({"--l=0.5,nan"}).get_double_list("l", {}), PreconditionError);
  EXPECT_THROW(make({"--l=inf,0.5"}).get_double_list("l", {}), PreconditionError);
  EXPECT_THROW(make({"--l=0.5,-inf"}).get_double_list("l", {}), PreconditionError);
  EXPECT_DOUBLE_EQ(make({"--d=-2.5e-3"}).get_double("d", 0), -2.5e-3);
}

TEST(Flags, TryParseBoundaries) {
  EXPECT_EQ(try_parse_u64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(try_parse_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(try_parse_u64("-1"), std::nullopt);
  EXPECT_EQ(try_parse_u64(""), std::nullopt);
  EXPECT_EQ(try_parse_i64("-0"), 0);
  EXPECT_EQ(try_parse_double("nan"), std::nullopt);
  EXPECT_EQ(try_parse_double("0.25"), 0.25);
}

TEST(Flags, UnusedDetection) {
  const auto f = make({"--used", "1", "--typo", "2"});
  f.get_int("used", 0);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, BareDashesRejected) {
  EXPECT_THROW(make({"--"}), PreconditionError);
}

}  // namespace
}  // namespace prlc
