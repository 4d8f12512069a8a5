// Byte-exact golden-file test for `spectrebench pareto --json`.
//
// The renderer promises byte-reproducible output: fixed key order,
// fixed-precision numbers (the geomean is computed with IEEE-exact
// arithmetic only — no libm), and no timing/host fields, independent of
// the --jobs count. The fixture pins the exact bytes of the full default
// report; regenerate after an intentional model or format change with
//   SPECBENCH_REGEN_GOLDEN=1 ./pareto_golden_test
// and review the diff — a changed byte means a changed verdict or a
// changed overhead, never noise.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/counters.h"
#include "src/core/pareto.h"
#include "src/jit/jit.h"
#include "src/workload/parsec.h"

namespace specbench {
namespace {

std::string GoldenPath(const std::string& name) {
  return (std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "golden" / name).string();
}

std::string CheckAgainstGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("SPECBENCH_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    return actual;
  }
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with SPECBENCH_REGEN_GOLDEN=1)";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string RunCliPareto(const std::string& extra_flags) {
  const std::string command =
      std::string(SPECBENCH_CLI_PATH) + " pareto --json " + extra_flags + " 2>/dev/null";
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

// The default report: all CPUs, 5 trials, seed 1 — exactly what the CLI
// runs with no flags (RunPareto must stay in sync with this).
const ParetoReport& DefaultReport() {
  static const ParetoReport report = BuildParetoReport(ParetoOptions{});
  return report;
}

TEST(ParetoGolden, JsonMatchesGoldenFileByteForByte) {
  const std::string actual = RenderParetoJson(DefaultReport());
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "pareto.json"));
}

TEST(ParetoGolden, CliOutputMatchesTheLibraryBytes) {
  // The subcommand is a thin shell over BuildParetoReport: same bytes, so
  // the committed golden pins the CLI too.
  EXPECT_EQ(RunCliPareto(""), RenderParetoJson(DefaultReport()));
}

TEST(ParetoGolden, CliOutputIsIdenticalForAnyJobCount) {
  EXPECT_EQ(RunCliPareto("--jobs=1"), RunCliPareto("--jobs=8"));
}

TEST(ParetoGolden, NoTimingOrHostFields) {
  const std::string json = RenderParetoJson(DefaultReport());
  for (const char* forbidden : {"wall", "time", "stamp", "date", "host", "duration",
                                "elapsed", "seconds"}) {
    EXPECT_EQ(json.find(forbidden), std::string::npos) << "found \"" << forbidden << "\"";
  }
  EXPECT_NE(json.find("\"schema\": \"spectrebench-pareto-v1\""), std::string::npos);
}

TEST(ParetoGolden, ReportsAnOverProtectionGapSomewhere) {
  // The acceptance bar for the frontier: at least one CPU where the
  // cheapest fully-protecting config is NOT the most-protected one — the
  // over-protection gap the paper's §7 argues against paying.
  int cpus_with_gap = 0;
  for (const CpuPareto& cpu : DefaultReport().cpus) {
    if (!cpu.cheapest_sufficient.empty() && cpu.cheapest_sufficient != cpu.most_protected) {
      EXPECT_GT(cpu.over_protection_gap_pct, 0.0) << cpu.cpu;
      cpus_with_gap++;
    }
  }
  EXPECT_GT(cpus_with_gap, 0);
}

TEST(ParetoGolden, StibpDefendsCrossThreadV2CheaperThanNosmtSomewhere) {
  // The cross-thread story the refactor exists to price: on at least one
  // SMT-capable CPU, defaults+stibp defends the cross-thread v2 cell at
  // strictly lower overhead than defaults+nosmt — the cheaper sufficient
  // config Table 1 could not name while nosmt was the only SMT knob.
  int cpus_where_stibp_wins = 0;
  for (const CpuPareto& cpu : DefaultReport().cpus) {
    const ConfigEvaluation* stibp = nullptr;
    const ConfigEvaluation* nosmt = nullptr;
    for (const ConfigEvaluation& c : cpu.configs) {
      if (c.config == "defaults+stibp") stibp = &c;
      if (c.config == "defaults+nosmt") nosmt = &c;
    }
    ASSERT_NE(stibp, nullptr) << cpu.cpu;
    ASSERT_NE(nosmt, nullptr) << cpu.cpu;
    const SuiteCell* cell =
        DefaultReport().suite.Find(cpu.cpu, "defaults+stibp", "spectre-v2-smt");
    ASSERT_NE(cell, nullptr) << cpu.cpu;
    if (cell->attempted && cell->defended && !cell->leaked() &&
        stibp->overhead_pct < nosmt->overhead_pct) {
      cpus_where_stibp_wins++;
    }
  }
  EXPECT_GT(cpus_where_stibp_wins, 0);
}

// The basket's grouping premise: no basket workload reads smt_off, so on
// every CPU each smt_off twin's LEBench and Octane counters equal its
// partner's, field for field, and so do its PARSEC cycles; one simulation
// prices both, and the join alone charges nosmt.
TEST(ParetoBasket, SmtOffTwinsHaveIdenticalCounters) {
  const std::pair<const char*, const char*> kTwins[] = {
      {"defaults", "defaults+nosmt"}, {"defaults+ssbd", "defaults+nosmt+ssbd"}};
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const std::vector<NamedConfig> matrix = MitigationConfigMatrix(cpu);
    const auto config = [&matrix](const std::string& name) {
      for (const NamedConfig& named : matrix) {
        if (named.name == name) {
          return named.config;
        }
      }
      ADD_FAILURE() << "no config " << name;
      return MitigationConfig{};
    };
    for (const auto& [smt_on, smt_off] : kTwins) {
      const MitigationConfig on = config(smt_on);
      MitigationConfig off = config(smt_off);
      ASSERT_FALSE(on.smt_off);
      ASSERT_TRUE(off.smt_off);
      for (const std::string& workload : ParetoWorkloads()) {
        const size_t colon = workload.find(':');
        const std::string suite = workload.substr(0, colon);
        const std::string kernel = workload.substr(colon + 1);
        const std::string where = std::string(UarchName(u)) + " " + smt_off + " " + workload;
        if (suite == "lebench") {
          EXPECT_EQ(MeasureLeBenchCounters(cpu, on, kernel),
                    MeasureLeBenchCounters(cpu, off, kernel))
              << where;
        } else if (suite == "octane") {
          EXPECT_EQ(MeasureOctaneCounters(cpu, JitConfig::AllOn(), on, kernel),
                    MeasureOctaneCounters(cpu, JitConfig::AllOn(), off, kernel))
              << where;
        } else if (suite == "parsec") {
          EXPECT_EQ(Parsec::SimulateKernel(kernel, cpu, on),
                    Parsec::SimulateKernel(kernel, cpu, off))
              << where;
        } else {
          ADD_FAILURE() << "unknown suite in " << where;
        }
      }
      off.smt_off = false;
      EXPECT_EQ(off, on) << UarchName(u) << ": the twins differ in more than smt_off";
    }
  }
}

// 80 configs, 64 basket cells: the two smt_off twin pairs of each CPU's
// matrix share one cell.
TEST(ParetoBasket, GridRunsOneBasketCellPerSmtTwinGroup) {
  const ParetoReport& report = DefaultReport();
  size_t rows = 0;
  for (const CpuPareto& cpu : report.cpus) {
    rows += cpu.configs.size();
  }
  EXPECT_EQ(rows, 80u);
  EXPECT_EQ(report.basket_cells, 64u);
}

TEST(ParetoGolden, TextAndCsvAreDeterministic) {
  EXPECT_EQ(RenderParetoText(DefaultReport()), RenderParetoText(DefaultReport()));
  EXPECT_EQ(RenderParetoCsv(DefaultReport()), RenderParetoCsv(DefaultReport()));
  // CSV carries one row per (cpu, config) plus the header.
  std::istringstream csv(RenderParetoCsv(DefaultReport()));
  int lines = 0;
  std::string line;
  while (std::getline(csv, line)) {
    lines++;
  }
  EXPECT_EQ(lines, 1 + static_cast<int>(DefaultReport().cpus.size()) * 10);
}

}  // namespace
}  // namespace specbench
