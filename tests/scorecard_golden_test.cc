// Byte-exact golden-file test for `spectrebench scorecard`.
//
// The scorecard is the reproduction's claim matrix: one row per paper claim
// with the paper's value or band (src/cpu/paper_expectations.h), the
// measured value and match/miss. The fixture pins the exact bytes, so any
// change to a measured number or a verdict shows up as a diff; regenerate
// after an intentional model change with
//   SPECBENCH_REGEN_GOLDEN=1 ./scorecard_golden_test
// and review the diff. A claim that misses stays a miss in the fixture.
// Scorecard.EveryClaimFamilyRunsAsRunnerCells checks that every claim
// family runs on the parallel runner.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/scorecard.h"

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

// Every claim family runs as runner cells on the one Sweep::Run: the
// measured families key their cells {cpu, "claim", family}, and fig2, fig3
// and sec45 keep their commands' keys.
TEST(Scorecard, EveryClaimFamilyRunsAsRunnerCells) {
  std::set<std::string> ran;
  RunnerOptions runner;
  runner.on_cell_done = [&ran](size_t, const SweepCellResult& cell) {
    ran.insert(cell.key.config + "/" + cell.key.workload);
  };
  BuildScorecard(runner);
  for (const char* family :
       {"table3", "table4", "table5", "table6", "table7", "table8", "table9", "table10",
        "table9.same_site_control", "fig5", "sec44", "sec622", "ablation.spectre_v2",
        "ablation.pcid", "ablation.browser", "ablation.smt_mds", "ablation.future_hw"}) {
    EXPECT_EQ(ran.count(std::string("claim/") + family), 1u) << family;
  }
  EXPECT_EQ(ran.count("attribution/lebench"), 1u);  // fig2
  EXPECT_EQ(ran.count("attribution/octane2"), 1u);  // fig3
  EXPECT_EQ(ran.count("default-vs-off/swaptions"), 1u);  // sec45
}

}  // namespace
}  // namespace specbench
