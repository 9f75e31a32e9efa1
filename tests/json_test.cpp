// util::json -- the document model behind the BENCH_<scenario>.json files:
// writer determinism (insertion order, number formatting, escaping) and
// round-tripping through the strict parser bench_compare relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/json.hpp"

namespace coyote::util::json {
namespace {

TEST(JsonValue, TypesAndAccessors) {
  EXPECT_TRUE(Value().isNull());
  EXPECT_TRUE(Value(nullptr).isNull());
  EXPECT_TRUE(Value(true).asBool());
  EXPECT_DOUBLE_EQ(Value(2.5).asNumber(), 2.5);
  EXPECT_DOUBLE_EQ(Value(7).asNumber(), 7.0);
  EXPECT_EQ(Value("hi").asString(), "hi");
  EXPECT_TRUE(Value::array().isArray());
  EXPECT_TRUE(Value::object().isObject());

  EXPECT_THROW((void)Value(1.0).asString(), Error);
  EXPECT_THROW((void)Value("x").asNumber(), Error);
  EXPECT_THROW((void)Value::array().asObject(), Error);
}

TEST(JsonValue, ObjectInsertionOrderIsPreserved) {
  Value obj = Value::object();
  obj["zebra"] = 1;
  obj["alpha"] = 2;
  obj["mid"] = 3;
  EXPECT_EQ(obj.dump(0), R"({"zebra":1,"alpha":2,"mid":3})");

  // operator[] updates in place instead of appending a duplicate.
  obj["alpha"] = 9;
  EXPECT_EQ(obj.dump(0), R"({"zebra":1,"alpha":9,"mid":3})");
  EXPECT_EQ(obj.asObject().size(), 3u);
}

TEST(JsonValue, FindAndFallbacks) {
  Value obj = Value::object();
  obj["num"] = 4.0;
  obj["str"] = "s";
  EXPECT_NE(obj.find("num"), nullptr);
  EXPECT_EQ(obj.find("absent"), nullptr);
  EXPECT_EQ(Value(1.0).find("x"), nullptr);  // non-object: no member access
  EXPECT_DOUBLE_EQ(obj.numberOr("num", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(obj.numberOr("absent", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(obj.numberOr("str", -1.0), -1.0);  // wrong type
  EXPECT_EQ(obj.stringOr("str", "d"), "s");
  EXPECT_EQ(obj.stringOr("absent", "d"), "d");
}

TEST(JsonWriter, StringEscaping) {
  EXPECT_EQ(escapeString("plain"), "plain");
  EXPECT_EQ(escapeString("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escapeString("a\\b"), "a\\\\b");
  EXPECT_EQ(escapeString("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(escapeString(std::string("nul\x01" "byte")), "nul\\u0001byte");
  EXPECT_EQ(escapeString(std::string("esc\x1f")), "esc\\u001f");
  // UTF-8 multibyte sequences pass through unescaped.
  EXPECT_EQ(escapeString("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, NumberFormatting) {
  EXPECT_EQ(formatNumber(0.0), "0");
  EXPECT_EQ(formatNumber(3.0), "3");
  EXPECT_EQ(formatNumber(-12.0), "-12");
  EXPECT_EQ(formatNumber(2.5), "2.5");
  // Shortest round-trip form: the parsed value is bit-identical.
  for (const double d : {1.0 / 3.0, 0.1, 1e-9, 123456.789, std::sqrt(2.0)}) {
    EXPECT_DOUBLE_EQ(parse(formatNumber(d)).asNumber(), d) << d;
    EXPECT_EQ(parse(formatNumber(d)).asNumber(), d) << d;
  }
}

TEST(JsonWriter, NonFiniteNumbersBecomeTaggedStrings) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(formatNumber(inf), "inf");
  EXPECT_EQ(formatNumber(-inf), "-inf");
  EXPECT_EQ(formatNumber(nan), "nan");
  EXPECT_EQ(nonFiniteTag(1.5), nullptr);

  // A failure row with a +inf ratio (loaded dead link) must still emit
  // valid JSON and survive the round trip losslessly.
  Value row = Value::object();
  row["label"] = "A-B";
  row["ecmp"] = inf;
  row["coyote"] = 1.25;
  row["nan_case"] = nan;
  EXPECT_EQ(row.dump(0),
            R"({"label":"A-B","ecmp":"inf","coyote":1.25,"nan_case":"nan"})");

  const Value reparsed = parse(row.dump(0));
  double out = 0.0;
  ASSERT_TRUE(decodeNumber(*reparsed.find("ecmp"), &out));
  EXPECT_TRUE(std::isinf(out));
  EXPECT_GT(out, 0.0);
  ASSERT_TRUE(decodeNumber(*reparsed.find("coyote"), &out));
  EXPECT_DOUBLE_EQ(out, 1.25);
  ASSERT_TRUE(decodeNumber(*reparsed.find("nan_case"), &out));
  EXPECT_TRUE(std::isnan(out));
  EXPECT_FALSE(decodeNumber(*reparsed.find("label"), &out));
  // The second trip is a fixed point: tagged strings dump unchanged.
  EXPECT_EQ(reparsed.dump(0), row.dump(0));

  double neg = 0.0;
  ASSERT_TRUE(decodeNumber(parse("\"-inf\""), &neg));
  EXPECT_TRUE(std::isinf(neg));
  EXPECT_LT(neg, 0.0);
}

TEST(JsonParser, BareNonFiniteTokensAreRejectedByName) {
  for (const char* text : {"Infinity", "-Infinity", "inf", "-inf", "nan",
                           "NaN", "[1,Infinity]", "{\"r\":NaN}"}) {
    try {
      (void)parse(text);
      FAIL() << "parse accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << text << ": " << e.what();
    }
  }
}

TEST(JsonWriter, NestedPrettyAndCompact) {
  Value doc = Value::object();
  doc["id"] = "fig06";
  Value rows = Value::array();
  Value row = Value::object();
  row["margin"] = 1.0;
  row["ecmp"] = 1.25;
  rows.push_back(std::move(row));
  doc["rows"] = std::move(rows);
  doc["ok"] = true;
  doc["note"] = nullptr;

  EXPECT_EQ(doc.dump(0),
            R"({"id":"fig06","rows":[{"margin":1,"ecmp":1.25}],"ok":true,"note":null})");
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"id\": \"fig06\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"margin\": 1,\n"
            "      \"ecmp\": 1.25\n"
            "    }\n"
            "  ],\n"
            "  \"ok\": true,\n"
            "  \"note\": null\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(Value::array().dump(0), "[]");
  EXPECT_EQ(Value::object().dump(0), "{}");
  EXPECT_EQ(Value::array().dump(2), "[]\n");
  EXPECT_EQ(Value::object().dump(2), "{}\n");
}

TEST(JsonRoundTrip, WriterOutputParsesBackEqual) {
  Value doc = Value::object();
  doc["schema"] = "coyote-bench/1";
  doc["escaped"] = "quote\" slash\\ newline\n unicode caf\xc3\xa9";
  doc["flag"] = false;
  doc["nothing"] = nullptr;
  Value nested = Value::object();
  nested["deep"] = Value(Array{Value(1.5), Value("two"), Value(Object{
                             {"three", Value(3)}})});
  doc["nested"] = std::move(nested);
  Value numbers = Value::array();
  for (const double d : {0.0, -1.5, 1.0 / 3.0, 1e300, 5e-324}) {
    numbers.push_back(d);
  }
  doc["numbers"] = std::move(numbers);

  for (const int indent : {0, 2, 4}) {
    const Value reparsed = parse(doc.dump(indent));
    EXPECT_TRUE(reparsed == doc) << "indent " << indent;
    // Deterministic writer: dumping the reparsed tree is byte-identical.
    EXPECT_EQ(reparsed.dump(indent), doc.dump(indent));
  }
}

TEST(JsonParser, ScalarsAndWhitespace) {
  EXPECT_TRUE(parse(" null ").isNull());
  EXPECT_TRUE(parse("true").asBool());
  EXPECT_FALSE(parse("\tfalse\n").asBool());
  EXPECT_DOUBLE_EQ(parse("-2.5e2").asNumber(), -250.0);
  EXPECT_EQ(parse(R"("a\"b\\c\nA")").asString(), "a\"b\\c\nA");
}

TEST(JsonParser, MalformedInputThrows) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,]"), Error);
  EXPECT_THROW(parse("{\"a\":1,}"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("nul"), Error);
  EXPECT_THROW(parse("1 2"), Error);  // trailing garbage
  EXPECT_THROW(parse("{} []"), Error);
  EXPECT_THROW(parse("\"bad \\x escape\""), Error);
}

TEST(JsonParser, NestingDepthIsBounded) {
  // 256 nested arrays/objects parse; one level more is a clean Error
  // naming the limit, and so is a line of brackets deep enough to
  // overflow the stack of a recursive parser with no limit.
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += i % 2 == 0 ? "[" : "{\"k\":";
    text += "0";
    for (int i = depth - 1; i >= 0; --i) text += i % 2 == 0 ? "]" : "}";
    return text;
  };
  const Value deepest = parse(nested(256));
  EXPECT_EQ(parse(deepest.dump(0)).dump(0), deepest.dump(0));
  try {
    (void)parse(nested(257));
    FAIL() << "parse accepted 257 levels";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse(std::string(200000, '[')), Error);
}

TEST(JsonEquality, NumbersAndStructure) {
  EXPECT_TRUE(Value(1.0) == Value(1));
  EXPECT_FALSE(Value(1.0) == Value("1"));
  Value a = Value::object();
  a["k"] = Value(Array{Value(1), Value(2)});
  Value b = parse(a.dump(0));
  EXPECT_TRUE(a == b);
  b["k"].push_back(Value(3));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace coyote::util::json
