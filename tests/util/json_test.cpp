// util::json_parse: the fail-closed mini-parser behind benchdiff,
// accountnet-top and time-series reloads. Hostile input must yield nullopt,
// never a partial value or a crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accountnet/util/json.hpp"

namespace accountnet::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null")->is_null());
  EXPECT_TRUE(json_parse("true")->as_bool());
  EXPECT_FALSE(json_parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-1.5e3")->as_number(), -1500.0);
  EXPECT_DOUBLE_EQ(json_parse("0.25")->as_number(), 0.25);
  EXPECT_EQ(json_parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const auto v = json_parse(
      R"({"bench":"net_soak","rows":[{"p99":12.5},{"p99":13}],"ok":true})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->get_string("bench"), "net_soak");
  EXPECT_TRUE(v->get("ok")->as_bool());
  const auto& rows = v->get("rows")->as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].get_number("p99"), 12.5);
  EXPECT_DOUBLE_EQ(rows[1].get_number("p99"), 13.0);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\"b\\c\n\t")")->as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(json_parse(R"("Aé")")->as_string(), "A\xc3\xa9");
  EXPECT_EQ(json_parse(R"("€")")->as_string(), "\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {
           "",            // empty
           "{",           // unterminated object
           "[1,2",        // unterminated array
           "{\"a\":}",    // missing value
           "{\"a\" 1}",   // missing colon
           "{a:1}",       // unquoted key
           "[1,]",        // trailing comma
           "\"abc",       // unterminated string
           "\"a\\q\"",    // bad escape
           "\"\x01\"",    // raw control char
           "01",          // leading zero
           "1.",          // bare decimal point
           "+1",          // leading plus
           "nul",         // truncated literal
           "truex",       // trailing garbage in literal
           "{} {}",       // trailing garbage
           "1e999",       // overflows to inf
       }) {
    EXPECT_FALSE(json_parse(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(Json, BoundsNestingDepth) {
  std::string deep(kJsonMaxDepth + 8, '[');
  deep += std::string(kJsonMaxDepth + 8, ']');
  EXPECT_FALSE(json_parse(deep).has_value());
  std::string fine(8, '[');
  fine += std::string(8, ']');
  EXPECT_TRUE(json_parse(fine).has_value());
}

TEST(Json, LookupHelpersToleratesMismatch) {
  const auto v = json_parse(R"({"s":"x","n":3})");
  EXPECT_EQ(v->get("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v->get_number("s", -1.0), -1.0);  // wrong type -> default
  EXPECT_EQ(v->get_string("n", "d"), "d");
  EXPECT_DOUBLE_EQ(v->get_number("n"), 3.0);
  // get() on a non-object is a nullptr, not a crash.
  EXPECT_EQ(json_parse("[1]")->get("k"), nullptr);
}

TEST(Json, DuplicateKeysLastWins) {
  const auto v = json_parse(R"({"a":1,"a":2})");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->get_number("a"), 2.0);
}

// keys() keeps document order (span attrs rely on it) while as_object()
// stays name-sorted; a repeated key keeps its first position.
TEST(Json, KeysKeepDocumentOrder) {
  const auto v = json_parse(R"({"round":1,"partner":2,"outcome":3,"round":4})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->keys(), (std::vector<std::string>{"round", "partner", "outcome"}));
  EXPECT_EQ(v->as_object().begin()->first, "outcome");
  EXPECT_DOUBLE_EQ(v->get_number("round"), 4.0);
  EXPECT_TRUE(json_parse("{}")->keys().empty());
}

}  // namespace
}  // namespace accountnet::util
