#include "util/json.h"

#include <gtest/gtest.h>

#include <string>

#include "util/check.h"

namespace prlc::json {
namespace {

TEST(JsonValue, BuildAndDumpCompact) {
  Value root = Value::object();
  root.set("name", Value("prlc"));
  root.set("count", Value(3));
  root.set("ratio", Value(0.5));
  root.set("ok", Value(true));
  root.set("none", Value(nullptr));
  Value arr = Value::array();
  arr.push_back(Value(1));
  arr.push_back(Value(2));
  root.set("xs", std::move(arr));
  EXPECT_EQ(root.dump(),
            R"({"name":"prlc","count":3,"ratio":0.5,"ok":true,"none":null,"xs":[1,2]})");
}

TEST(JsonValue, ObjectKeysKeepInsertionOrderAndOverwriteInPlace) {
  Value v = Value::object();
  v.set("b", Value(1));
  v.set("a", Value(2));
  v.set("b", Value(3));  // overwrite keeps position
  EXPECT_EQ(v.dump(), R"({"b":3,"a":2})");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), 3.0);
}

TEST(JsonValue, PrettyPrint) {
  Value v = Value::object();
  v.set("a", Value(1));
  EXPECT_EQ(v.dump(2), "{\n  \"a\": 1\n}");
}

TEST(JsonValue, EscapesStrings) {
  EXPECT_EQ(escape("a\"b\\c\n\t\x01"), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  Value v = Value("tab\there");
  EXPECT_EQ(v.dump(), R"("tab\there")");
}

TEST(JsonValue, EscapePassesValidUtf8AndReplacesInvalidBytes) {
  // Well-formed multi-byte sequences pass through untouched.
  EXPECT_EQ(escape("lat\xC3\xADn \xE2\x82\xAC \xF0\x9F\x94\xA7"),
            "\"lat\xC3\xADn \xE2\x82\xAC \xF0\x9F\x94\xA7\"");
  // Each invalid byte becomes one U+FFFD, resynchronising afterwards.
  const std::string fffd = "\xEF\xBF\xBD";
  EXPECT_EQ(escape("a\x80z"), "\"a" + fffd + "z\"");                // stray continuation
  EXPECT_EQ(escape("a\xC3"), "\"a" + fffd + "\"");                  // truncated 2-byte
  EXPECT_EQ(escape("a\xC0\xAFz"), "\"a" + fffd + fffd + "z\"");     // overlong '/'
  EXPECT_EQ(escape("a\xED\xA0\x80z"),
            "\"a" + fffd + fffd + fffd + "z\"");                    // UTF-8 surrogate
  EXPECT_EQ(escape("a\xF4\x90\x80\x80z"),
            "\"a" + fffd + fffd + fffd + fffd + "z\"");             // > U+10FFFF
  // Escape output must always reparse — the writer's core guarantee.
  EXPECT_EQ(Value::parse(escape("k\x01\x80v")).as_string(),
            "k\x01" + fffd + "v");
}

TEST(JsonValue, ParseRejectsRawControlCharactersInStrings) {
  EXPECT_THROW(Value::parse("\"a\x01b\""), PreconditionError);
  EXPECT_THROW(Value::parse("\"a\nb\""), PreconditionError);
  EXPECT_THROW(Value::parse(std::string("\"a\0b\"", 5)), PreconditionError);
}

TEST(JsonValue, ParseRoundTrip) {
  const std::string text =
      R"({"name":"x","n":42,"neg":-1.5,"exp":2e3,"ok":false,"none":null,)"
      R"("xs":[1,[2,3],{"k":"v"}]})";
  const Value v = Value::parse(text);
  EXPECT_EQ(v.at("name").as_string(), "x");
  EXPECT_DOUBLE_EQ(v.at("n").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(v.at("neg").as_double(), -1.5);
  EXPECT_DOUBLE_EQ(v.at("exp").as_double(), 2000.0);
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_TRUE(v.at("none").is_null());
  EXPECT_EQ(v.at("xs").size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("xs").at(1).at(0).as_double(), 2.0);
  EXPECT_EQ(v.at("xs").at(2).at("k").as_string(), "v");
  // Re-dump of a parse is itself parseable and equal.
  EXPECT_EQ(Value::parse(v.dump()).dump(), v.dump());
}

TEST(JsonValue, ParseStringEscapes) {
  const Value v = Value::parse(R"("a\"\\\/\nAé")");
  EXPECT_EQ(v.as_string(), "a\"\\/\nA\xC3\xA9");
}

TEST(JsonValue, ParseRejectsMalformedInput) {
  EXPECT_THROW(Value::parse(""), PreconditionError);
  EXPECT_THROW(Value::parse("{"), PreconditionError);
  EXPECT_THROW(Value::parse("[1,]"), PreconditionError);
  EXPECT_THROW(Value::parse("{'a':1}"), PreconditionError);
  EXPECT_THROW(Value::parse("01"), PreconditionError);
  EXPECT_THROW(Value::parse("1 2"), PreconditionError);          // trailing garbage
  EXPECT_THROW(Value::parse(R"({"a":1,"a":2})"), PreconditionError);  // dup key
  EXPECT_THROW(Value::parse("nul"), PreconditionError);
}

TEST(JsonValue, ParseErrorNamesTheProblem) {
  // The message is the problem and its offset; no check expression or
  // source location rides along to the tools that print it.
  const auto message = [](std::string_view text) {
    try {
      Value::parse(text);
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message("[1,2"), "unexpected end of JSON input at offset 4");
  EXPECT_EQ(message("1 2"), "trailing characters after JSON document at offset 2");
  EXPECT_EQ(message(R"({"a":1,"a":2})"), "duplicate JSON object key 'a' at offset 12");
}

TEST(JsonValue, ParseBoundsNestingDepth) {
  // 512 nested arrays parse; one level more is malformed input, not a
  // stack overflow. Siblings do not add up: the depth unwinds on close.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(Value::parse(nested(512)).is_array());
  EXPECT_NO_THROW(Value::parse("[" + nested(511) + "," + nested(511) + "]"));
  EXPECT_THROW(Value::parse(nested(513)), PreconditionError);
  EXPECT_THROW(Value::parse(R"({"a":)" + nested(512) + "}"), PreconditionError);
}

TEST(JsonValue, AccessorsRejectKindMismatch) {
  const Value v = Value(1.0);
  EXPECT_THROW(v.as_string(), PreconditionError);
  EXPECT_THROW(v.at("k"), PreconditionError);
  EXPECT_THROW(v.at(std::size_t{0}), PreconditionError);
  const Value obj = Value::object();
  EXPECT_THROW(obj.at("missing"), PreconditionError);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonValue, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Value(7).dump(), "7");
  EXPECT_EQ(Value(std::uint64_t{1} << 40).dump(), "1099511627776");
  EXPECT_EQ(Value(-3.25).dump(), "-3.25");
}

TEST(JsonFileIo, WriteThenReadRoundTrips) {
  const std::string path = ::testing::TempDir() + "json_test_io.json";
  write_file(path, R"({"a": 1})");
  EXPECT_EQ(read_file(path), "{\"a\": 1}\n");
  EXPECT_THROW(read_file(path + ".does-not-exist"), PreconditionError);
}

}  // namespace
}  // namespace prlc::json
