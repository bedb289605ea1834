#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"

namespace soteria::obs {
namespace {

namespace json = bench::json;

TEST(JsonParser, ParsesScalars) {
  EXPECT_DOUBLE_EQ(json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, DecodesStringEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(json::parse(R"("\u0041\u00e9")").as_string(), "A\xC3\xA9");
}

TEST(JsonParser, ParsesNestedStructures) {
  const auto doc = json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  const auto& a = doc.at("a").as_array();
  ASSERT_EQ(a.size(), 3U);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_TRUE(doc.contains("e"));
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
}

TEST(JsonParser, ParsesEmptyContainersAndWhitespace) {
  EXPECT_TRUE(json::parse(" { } ").as_object().empty());
  EXPECT_TRUE(json::parse("\n[\t]\r\n").as_array().empty());
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW((void)json::parse(""), std::runtime_error);
  EXPECT_THROW((void)json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)json::parse("[1 2]"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)json::parse("tru"), std::runtime_error);
  EXPECT_THROW((void)json::parse("1,2"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{} extra"), std::runtime_error);
  EXPECT_THROW((void)json::parse(R"("bad \q escape")"), std::runtime_error);
}

TEST(JsonParser, RejectsRawControlCharactersInStrings) {
  // RFC 8259: U+0000 through U+001F must be escaped inside a string.
  EXPECT_THROW((void)json::parse("\"a\nb\""), std::runtime_error);
  EXPECT_THROW((void)json::parse("\"tab\there\""), std::runtime_error);
  EXPECT_THROW((void)json::parse(std::string("\"\0\"", 3)),
               std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"k\x1f\": 1}"), std::runtime_error);
  EXPECT_EQ(json::parse(R"("a\nb\u001f")").as_string(), "a\nb\x1f");
}

TEST(JsonParser, TypeMismatchesThrow) {
  const auto v = json::parse("7");
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)v.as_array(), std::runtime_error);
  EXPECT_THROW((void)v.as_object(), std::runtime_error);
  EXPECT_THROW((void)v.as_bool(), std::runtime_error);
  EXPECT_THROW((void)v.at("k"), std::runtime_error);
}

// The exporter's contract: everything it writes must round-trip through
// this parser with values intact.
TEST(JsonExport, RoundTripsThroughParser) {
  MetricsRegistry reg(true);
  reg.counter_add("soteria.cfg.images", 12);
  reg.counter_add("events", 1);
  reg.gauge_set("loss", 0.25);
  reg.gauge_set("negative", -3.5);
  reg.record("score", 0.5);
  reg.record("score", 1.5);
  reg.record("score", 1e9);  // overflow bucket -> "le": null
  reg.record("t/stage", 2e-6);

  const auto snap = reg.snapshot();
  const auto doc = json::parse(export_json(snap));

  const auto& counters = doc.at("counters").as_object();
  ASSERT_EQ(counters.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    EXPECT_DOUBLE_EQ(counters.at(name).as_number(),
                     static_cast<double>(value));
  }

  const auto& gauges = doc.at("gauges").as_object();
  ASSERT_EQ(gauges.size(), snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_DOUBLE_EQ(gauges.at(name).as_number(), value);
  }

  const auto& histograms = doc.at("histograms").as_object();
  ASSERT_EQ(histograms.size(), snap.histograms.size());
  for (const auto& [name, data] : snap.histograms) {
    const auto& h = histograms.at(name);
    EXPECT_DOUBLE_EQ(h.at("count").as_number(),
                     static_cast<double>(data.count));
    EXPECT_DOUBLE_EQ(h.at("sum").as_number(), data.sum);
    EXPECT_DOUBLE_EQ(h.at("min").as_number(), data.min);
    EXPECT_DOUBLE_EQ(h.at("max").as_number(), data.max);
    EXPECT_DOUBLE_EQ(h.at("mean").as_number(), data.mean());
    std::uint64_t bucketed = 0;
    for (const auto& bucket : h.at("buckets").as_array()) {
      bucketed +=
          static_cast<std::uint64_t>(bucket.at("count").as_number());
      // Finite bounds parse as numbers; the overflow bucket is null.
      const auto& le = bucket.at("le");
      EXPECT_TRUE(le.is_null() || le.as_number() > 0.0);
    }
    EXPECT_EQ(bucketed, data.count);
  }
}

TEST(JsonExport, NonFiniteGaugeBecomesNull) {
  MetricsRegistry reg(true);
  reg.gauge_set("nan", std::numeric_limits<double>::quiet_NaN());
  const auto doc = json::parse(export_json(reg.snapshot()));
  EXPECT_TRUE(doc.at("gauges").at("nan").is_null());
}

TEST(JsonExport, EmptySnapshotIsValidJson) {
  const auto doc = json::parse(export_json(Snapshot{}));
  EXPECT_TRUE(doc.at("counters").as_object().empty());
  EXPECT_TRUE(doc.at("gauges").as_object().empty());
  EXPECT_TRUE(doc.at("histograms").as_object().empty());
}

TEST(JsonExport, EscapesAwkwardMetricNames)  {
  MetricsRegistry reg(true);
  reg.counter_add("weird \"name\"\\with\nescapes", 3);
  const auto doc = json::parse(export_json(reg.snapshot()));
  EXPECT_DOUBLE_EQ(
      doc.at("counters").at("weird \"name\"\\with\nescapes").as_number(),
      3.0);
}

TEST(TextExport, MentionsEverySection) {
  MetricsRegistry reg(true);
  reg.counter_add("events", 2);
  reg.gauge_set("loss", 0.5);
  reg.record("score", 1.0);
  reg.record("t/train", 0.01);
  reg.record("t/train/fit", 0.002);
  const auto text = export_text(reg.snapshot());
  EXPECT_NE(text.find("stage timings"), std::string::npos);
  EXPECT_NE(text.find("counters"), std::string::npos);
  EXPECT_NE(text.find("gauges"), std::string::npos);
  EXPECT_NE(text.find("distributions"), std::string::npos);
  EXPECT_NE(text.find("train"), std::string::npos);
  EXPECT_NE(text.find("fit"), std::string::npos);
  EXPECT_NE(text.find("events = 2"), std::string::npos);
}

TEST(TextExport, EmptySnapshotSaysSo) {
  EXPECT_NE(export_text(Snapshot{}).find("no metrics recorded"),
            std::string::npos);
}

}  // namespace
}  // namespace soteria::obs
