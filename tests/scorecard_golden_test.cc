// Byte-exact golden-file test for `spectrebench scorecard`.
//
// The scorecard is the reproduction's claim matrix: one row per paper claim
// with the paper's value or band (src/core/paper_expectations.h), the
// measured value and match/miss. The fixture pins the exact bytes, so any
// change to a measured number or a verdict shows up as a diff; regenerate
// after an intentional model change with
//   SPECBENCH_REGEN_GOLDEN=1 ./scorecard_golden_test
// and review the diff. A claim that misses stays a miss in the fixture.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace specbench {
namespace {

std::string GoldenPath() {
  return (std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "golden" / "scorecard.txt")
      .string();
}

std::string ReadGolden() {
  std::ifstream in(GoldenPath(), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << GoldenPath()
                         << " (regenerate with SPECBENCH_REGEN_GOLDEN=1)";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string CheckAgainstGolden(const std::string& actual) {
  if (std::getenv("SPECBENCH_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    out << actual;
    return actual;
  }
  return ReadGolden();
}

std::string RunCliScorecard() {
  const std::string command = std::string(SPECBENCH_CLI_PATH) + " scorecard 2>/dev/null";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) {
    return output;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return output;
}

// The table rows of the pinned scorecard ("id | section | kind | ...").
std::vector<std::string> GoldenRows() {
  std::vector<std::string> rows;
  std::istringstream in(ReadGolden());
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(" | calibrated ") != std::string::npos ||
        line.find(" | emergent ") != std::string::npos) {
      rows.push_back(line);
    }
  }
  return rows;
}

TEST(ScorecardGolden, CliOutputMatchesGoldenFileByteForByte) {
  const std::string actual = RunCliScorecard();
  EXPECT_EQ(actual, CheckAgainstGolden(actual));
}

// The golden test above pins the live output to the fixture, so checking
// the fixture checks the command.
TEST(ScorecardGolden, EveryCalibratedRowMatches) {
  int calibrated = 0;
  for (const std::string& row : GoldenRows()) {
    if (row.find(" | calibrated ") != std::string::npos) {
      calibrated++;
      EXPECT_NE(row.find("| match"), std::string::npos) << row;
    }
  }
  EXPECT_GT(calibrated, 0);
}

TEST(ScorecardGolden, RowsCoverEveryPaperArtifact) {
  const std::vector<std::string> rows = GoldenRows();
  for (const char* prefix :
       {"table3.", "table4.", "table5.", "table6.", "table7.", "table8.", "table9.", "table10.",
        "fig2.", "fig3.", "fig5.", "sec44.", "sec45.", "sec622.", "ablation.spectre_v2.",
        "ablation.pcid.", "ablation.browser.", "ablation.smt_mds.", "ablation.future_hw."}) {
    bool found = false;
    for (const std::string& row : rows) {
      found = found || row.rfind(prefix, 0) == 0;
    }
    EXPECT_TRUE(found) << "no scorecard row for " << prefix;
  }
}

}  // namespace
}  // namespace specbench
