#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/crc32c.hpp"
#include "util/format.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace skt::util {
namespace {

TEST(Format, PlainPlaceholders) {
  EXPECT_EQ(format("a {} b {} c", 1, 2), "a 1 b 2 c");
  EXPECT_EQ(format("{}", "hello"), "hello");
  EXPECT_EQ(format("{}", true), "true");
  EXPECT_EQ(format("{}", 3.5), "3.5");
}

TEST(Format, Specs) {
  EXPECT_EQ(format("{:.2f}", 3.14159), "3.14");
  EXPECT_EQ(format("{:8.3f}", 1.5), "   1.500");
  EXPECT_EQ(format("{:d}", 42), "42");
  EXPECT_EQ(format("{:x}", 255), "ff");
  EXPECT_EQ(format("{:.1%}", 0.4567), "45.7%");
}

TEST(Format, EscapedBraces) {
  EXPECT_EQ(format("{{}}"), "{}");
  EXPECT_EQ(format("{{{}}}", 7), "{7}");
}

TEST(Format, ArgumentCountMismatchThrows) {
  EXPECT_THROW(format("{} {}", 1), std::invalid_argument);
  EXPECT_THROW(format("{}", 1, 2), std::invalid_argument);
}

TEST(Format, BadSpecThrows) { EXPECT_THROW(format("{:q}", 1), std::invalid_argument); }

TEST(Stats, Summarize) {
  const std::vector<double> xs{1, 2, 3, 4};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.1180339887, 1e-9);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, LinearFitExact) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{1, 3, 5, 7};  // y = 2x + 1
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> sorted{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.5), 25.0);   // halfway between ranks 1 and 2
  EXPECT_DOUBLE_EQ(quantile(sorted, 0.25), 17.5);  // rank 0.75: 10 + 0.75 * 10
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Stats, QuantilesP50P90P99) {
  std::vector<double> sorted(100);
  for (int i = 0; i < 100; ++i) sorted[static_cast<std::size_t>(i)] = i + 1.0;
  const Quantiles q = quantiles(sorted);
  EXPECT_NEAR(q.p50, 50.5, 1e-9);
  EXPECT_NEAR(q.p90, 90.1, 1e-9);
  EXPECT_NEAR(q.p99, 99.01, 1e-9);
  const Quantiles empty = quantiles({});
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, NestsObjectsAndArrays) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "demo \"quoted\"");
  w.field("count", static_cast<std::int64_t>(-3));
  w.field("ok", true);
  w.key("histogram");
  w.begin_object();
  w.field("p50", 1.5);
  w.key("buckets");
  w.begin_array();
  w.value(static_cast<std::uint64_t>(1));
  w.value(static_cast<std::uint64_t>(2));
  w.end_array();
  w.end_object();
  w.end_object();
  ASSERT_TRUE(w.complete());
  const std::string& doc = w.str();
  EXPECT_NE(doc.find("\"name\": \"demo \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(doc.find("\"count\": -3"), std::string::npos);
  EXPECT_NE(doc.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"p50\": 1.5"), std::string::npos);
  // Array elements are comma-separated inside brackets.
  const auto open = doc.find('[');
  const auto close = doc.find(']');
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  EXPECT_NE(doc.find(',', open), std::string::npos);
  EXPECT_LT(doc.find(',', open), close);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object();
  w.field("inf", std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_NE(w.str().find("\"inf\": null"), std::string::npos);
}

TEST(JsonWriter, WriteJsonFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "skt_json_writer_test.json";
  ASSERT_TRUE(write_json_file(path, std::string_view("{\"k\": 1}")));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"k\": 1}\n");  // trailing newline appended
}

TEST(Log, JsonSinkFlagLatchesFromEnv) {
  ::setenv("SKT_LOG_JSON", "1", 1);
  if (!log_json_enabled()) GTEST_SKIP() << "sink flag latched before this test set the env";
  // Exercise the compact one-record-per-line serialization path.
  set_thread_label("test");
  SKT_LOG_INFO("json sink smoke {}", 1);
  set_thread_label("");
}

TEST(Stats, LinearFitRejectsDegenerate) {
  const std::vector<double> xs{1, 1};
  const std::vector<double> ys{2, 3};
  EXPECT_THROW(fit_linear(xs, ys), std::invalid_argument);
  EXPECT_THROW(fit_linear(std::vector<double>{1}, std::vector<double>{1}),
               std::invalid_argument);
}

TEST(Rng, ElementValueIsDeterministicAndCentered) {
  EXPECT_EQ(element_value(7, 3, 4), element_value(7, 3, 4));
  EXPECT_NE(element_value(7, 3, 4), element_value(7, 4, 3));
  EXPECT_NE(element_value(7, 3, 4), element_value(8, 3, 4));
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double v = element_value(1, static_cast<std::uint64_t>(i), 0);
    EXPECT_GE(v, -0.5);
    EXPECT_LT(v, 0.5);
    sum += v;
  }
  EXPECT_LT(std::abs(sum / 1000.0), 0.05);  // roughly centered
}

TEST(Rng, XoshiroReproducible) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Xoshiro256 c(43);
  EXPECT_NE(Xoshiro256(42).next(), c.next());
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3ull << 30), "3.00 GiB");
}

TEST(Table, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.5), "500.0 ms");
  EXPECT_EQ(format_seconds(2.0), "2.00 s");
  EXPECT_EQ(format_seconds(2e-5), "20.0 us");
}

TEST(Options, ParsesForms) {
  // Note: a bare "--flag" followed by a non-option word would consume it as
  // the flag's value, so flags go last or use the = form.
  const char* argv[] = {"prog", "--a", "1", "--b=2", "pos", "--flag"};
  Options o(6, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("a", 0), 1);
  EXPECT_EQ(o.get_int("b", 0), 2);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_FALSE(o.get_bool("absent", false));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos");
  EXPECT_EQ(o.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(o.get_double("a", 0.0), 1.0);
}


std::vector<std::byte> crc_bytes(std::size_t n, std::uint8_t (*gen)(std::size_t)) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(gen(i));
  return out;
}

/// Bit-at-a-time CRC32C straight from the definition (reflected
/// polynomial 0x82F63B78), the reference the table-driven one must match.
std::uint32_t crc32c_bitwise(std::span<const std::byte> bytes, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const std::byte b : bytes) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
  }
  return ~crc;
}

TEST(Crc32c, CheckValue) {
  const std::string text = "123456789";
  EXPECT_EQ(crc32c(std::as_bytes(std::span(text))), 0xE3069283u);
}

TEST(Crc32c, Rfc3720Vectors) {
  // iSCSI (RFC 3720 appendix B.4) 32-byte test patterns.
  EXPECT_EQ(crc32c(crc_bytes(32, [](std::size_t) -> std::uint8_t { return 0x00; })),
            0x8A9136AAu);
  EXPECT_EQ(crc32c(crc_bytes(32, [](std::size_t) -> std::uint8_t { return 0xFF; })),
            0x62A8AB43u);
  EXPECT_EQ(crc32c(crc_bytes(32, [](std::size_t i) { return static_cast<std::uint8_t>(i); })),
            0x46DD794Eu);
}

TEST(Crc32c, EmptySpanReturnsSeed) {
  EXPECT_EQ(crc32c({}), 0u);
  EXPECT_EQ(crc32c({}, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32c, ChainedSeedMatchesOneShotAtRaggedLengths) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(4095);
  lengths.push_back(4097);
  for (const std::size_t n : lengths) {
    const std::vector<std::byte> data =
        crc_bytes(n, [](std::size_t i) { return static_cast<std::uint8_t>(i * 167 + 13); });
    const std::span<const std::byte> all(data);
    const std::uint32_t one_shot = crc32c(all);
    for (const std::size_t split : {std::size_t{0}, std::size_t{1}, n / 3, n / 2, n - 1, n}) {
      const std::uint32_t chained = crc32c(all.subspan(split), crc32c(all.first(split)));
      EXPECT_EQ(chained, one_shot) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Crc32c, MatchesBitwiseReferenceAtRaggedLengthsAndOffsets) {
  const std::vector<std::byte> data =
      crc_bytes(4200, [](std::size_t i) { return static_cast<std::uint8_t>((i * i) ^ (i >> 3)); });
  const std::span<const std::byte> all(data);
  for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
    for (std::size_t n = 0; n <= 64; ++n) {
      EXPECT_EQ(crc32c(all.subspan(offset, n), 0x1234u),
                crc32c_bitwise(all.subspan(offset, n), 0x1234u))
          << "offset=" << offset << " n=" << n;
    }
    for (const std::size_t n : {4095u, 4096u, 4097u}) {
      EXPECT_EQ(crc32c(all.subspan(offset, n)), crc32c_bitwise(all.subspan(offset, n), 0))
          << "offset=" << offset << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace skt::util
