#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/text_table.h"

namespace specbench {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.NextU64() == b.NextU64()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; i++) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, GaussianRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; i++) {
    const uint64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.SetHeader({"CPU", "syscall"});
  t.AddRow({"Broadwell", "49"});
  t.AddRow({"Zen 3", "83"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("CPU"), std::string::npos);
  EXPECT_NE(out.find("Broadwell"), std::string::npos);
  EXPECT_NE(out.find("83"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(BarChart, RendersSegmentsAndLegend) {
  std::vector<Bar> bars;
  bars.push_back(Bar{"Broadwell", {{"PTI", 10.0}, {"MDS", 12.0}}, 1.0});
  bars.push_back(Bar{"Zen 3", {{"Spectre V2", 2.0}}, 0.2});
  const std::string out = RenderBarChart("Figure 2", bars);
  EXPECT_NE(out.find("Figure 2"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("PTI"), std::string::npos);
  EXPECT_NE(out.find("22.0%"), std::string::npos);  // stacked total
}

TEST(Csv, EscapesCommasAndQuotes) {
  const std::string out = RenderCsv({"a", "b"}, {{"x,y", "he said \"hi\""}});
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape(std::string("\n\t\x01\x1f", 4)), "\\u000a\\u0009\\u0001\\u001f");
  EXPECT_EQ(JsonEscape(" ~\x7f"), " ~\x7f");
}

TEST(Format, Percent) {
  EXPECT_EQ(FormatPercent(12.345, 1), "12.3%");
  EXPECT_EQ(FormatPercent(-3.0, 0), "-3%");
}

TEST(Format, Cycles) {
  EXPECT_EQ(FormatCycles(5600.0), "5600");
  EXPECT_EQ(FormatCycles(49.0), "49");
  EXPECT_EQ(FormatCycles(3.5), "3.5");
}

}  // namespace
}  // namespace specbench
