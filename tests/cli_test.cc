// Golden tests for the CLI's argument validation: strict --seeds=A:B
// parsing, per-subcommand flag allowlists, and the unknown-command path.
// Each case runs the real spectrebench binary (SPECBENCH_CLI_PATH, injected
// by CMake) as a subprocess and asserts on the exit code and the exact
// diagnostic text — the error strings are part of the user interface, so
// changes to them must be deliberate.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace specbench {
namespace {

struct RunOutput {
  int exit_code = -1;
  std::string output;  // stderr + stdout, interleaved
};

RunOutput RunCli(const std::string& args) {
  const std::string command = std::string(SPECBENCH_CLI_PATH) + " " + args + " 2>&1";
  RunOutput result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// --- Strict --seeds=A:B validation ----------------------------------------

TEST(CliSeeds, RejectsReversedRange) {
  const RunOutput r = RunCli("difftest --seeds=5:2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=5:2: empty range (B must be greater than A)\n");
}

TEST(CliSeeds, RejectsEmptyRange) {
  const RunOutput r = RunCli("difftest --seeds=2:2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=2:2: empty range (B must be greater than A)\n");
}

TEST(CliSeeds, RejectsNonNumericBegin) {
  const RunOutput r = RunCli("difftest --seeds=abc:5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=abc:5: \"abc\" is not a decimal seed\n");
}

TEST(CliSeeds, RejectsTrailingGarbage) {
  const RunOutput r = RunCli("difftest --seeds=1:5x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=1:5x: \"5x\" is not a decimal seed\n");
}

TEST(CliSeeds, RejectsMissingColon) {
  const RunOutput r = RunCli("difftest --seeds=5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=5: want A:B (B exclusive)\n");
}

TEST(CliSeeds, RejectsEmptyEndpoints) {
  const RunOutput r = RunCli("harden --seeds=:");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=:: \"\" is not a decimal seed\n");
}

TEST(CliSeeds, HardenRejectsReversedRange) {
  const RunOutput r = RunCli("harden --seeds=9:3");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=9:3: empty range (B must be greater than A)\n");
}

// --- Strict numeric flags -------------------------------------------------

// A malformed number exits 2 with one line before any work starts, instead
// of an atoi default (or, for a negative --jobs, an abort).
TEST(CliNumbers, MalformedValuesExitTwoWithOneLine) {
  const struct {
    const char* args;
    const char* want;
  } kCases[] = {
      {"pareto --jobs=-1", "--jobs=-1: want a thread count >= 0 (0 = all cores)\n"},
      {"pareto --jobs=banana", "--jobs=banana: want a thread count >= 0 (0 = all cores)\n"},
      {"pareto --jobs=4x", "--jobs=4x: want a thread count >= 0 (0 = all cores)\n"},
      {"difftest --jobs=-3", "--jobs=-3: want a thread count >= 0 (0 = all cores)\n"},
      {"fig3 --jobs=banana", "--jobs=banana: want a thread count >= 0 (0 = all cores)\n"},
      {"scorecard --jobs=1.5", "--jobs=1.5: want a thread count >= 0 (0 = all cores)\n"},
      {"pareto --trials=2x --seed=abc", "--trials=2x: want a positive repeat count\n"},
      {"pareto --seed=abc", "--seed=abc: want a decimal seed\n"},
      {"difftest --inject-alu-fault=1e3",
       "--inject-alu-fault=1e3: want a decimal ALU-op count\n"},
  };
  for (const auto& c : kCases) {
    const RunOutput r = RunCli(c.args);
    EXPECT_EQ(r.exit_code, 2) << c.args;
    EXPECT_EQ(r.output, c.want) << c.args;
  }
}

TEST(CliNumbers, ZeroJobsMeansAllCores) {
  const RunOutput r = RunCli("difftest --seeds=0:2 --jobs=0 --configs=off");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 divergences"), std::string::npos) << r.output;
}

// --- Per-subcommand flag allowlists ---------------------------------------

TEST(CliFlags, AttacksRejectsSeeds) {
  const RunOutput r = RunCli("attacks --seeds=0:5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output,
            "spectrebench attacks: unrecognized option '--seeds' (valid options: --cpus)\n");
}

TEST(CliFlags, TableRejectsJson) {
  const RunOutput r = RunCli("table1 --json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output,
            "spectrebench table1: unrecognized option '--json' (valid options: none)\n");
}

TEST(CliFlags, DifftestRejectsUnknownFlag) {
  const RunOutput r = RunCli("difftest --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("spectrebench difftest: unrecognized option '--bogus'"),
            std::string::npos)
      << r.output;
}

// The oracle has one engine, so difftest takes no --fast or
// --cross-validate: both are rejected like any other unknown option.
TEST(CliFlags, DifftestRejectsFastAndCrossValidate) {
  const char* kValid =
      "(valid options: --seeds --cpus --configs --jobs --inject-alu-fault --corpus-out "
      "--replay --arch-hashes)\n";
  const RunOutput fast = RunCli("difftest --seeds=0:1 --fast");
  EXPECT_EQ(fast.exit_code, 2);
  EXPECT_EQ(fast.output,
            std::string("spectrebench difftest: unrecognized option '--fast' ") + kValid);
  const RunOutput xval = RunCli("difftest --seeds=0:1 --cross-validate");
  EXPECT_EQ(xval.exit_code, 2);
  EXPECT_EQ(xval.output,
            std::string("spectrebench difftest: unrecognized option '--cross-validate' ") +
                kValid);
}

TEST(CliFlags, UnknownCommandReportedBeforeFlags) {
  const RunOutput r = RunCli("bogus --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output.rfind("unknown command: bogus\n", 0), 0u) << r.output;
}

// --- Malformed .difftest corpus files -------------------------------------
//
// Each committed tests/corpus/reject-*.difftest is rejected with its line
// number and exit 2, never an abort or a silent out-of-bounds run.

TEST(CliCorpus, ReplayRejectsOutOfRangeDestination) {
  const std::string file =
      std::string(SPECBENCH_TEST_SOURCE_DIR) + "/corpus/reject-mov-imm-dst-99.difftest";
  const RunOutput r = RunCli("difftest --replay=" + file);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "difftest: " + file +
                          ": line 8: dst register 99 is not 0..15 or 255 (none)\n");
}

TEST(CliCorpus, ReplayRejectsOutOfRangeIndexRegister) {
  const std::string file =
      std::string(SPECBENCH_TEST_SOURCE_DIR) + "/corpus/reject-load-index-99.difftest";
  const RunOutput r = RunCli("difftest --replay=" + file);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "difftest: " + file +
                          ": line 8: mem index register 99 is not 0..15 or 255 (none)\n");
}

// --arch-hashes skips the reference interpreter, so the parser is all that
// keeps an opcode the reference refuses away from the machine.
TEST(CliCorpus, ReplayRejectsUnsupportedOpcodeOnBothPaths) {
  const std::string file =
      std::string(SPECBENCH_TEST_SOURCE_DIR) + "/corpus/reject-syscall.difftest";
  for (const char* extra : {"", " --arch-hashes"}) {
    const RunOutput r = RunCli("difftest --replay=" + file + extra);
    EXPECT_EQ(r.exit_code, 2) << extra;
    EXPECT_EQ(r.output,
              "difftest: " + file +
                  ": line 9: op=syscall is not supported by the reference interpreter\n")
        << extra;
  }
}


TEST(CliFlags, DifftestAcceptsItsFlags) {
  const RunOutput r = RunCli("difftest --seeds=0:2 --jobs=2 --configs=off,ssbd");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 divergences"), std::string::npos) << r.output;
}

TEST(CliFlags, Table1AcceptsNoFlags) {
  const RunOutput r = RunCli("table1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CliFlags, Fig2CsvPrintsTheAttributionRows) {
  const RunOutput r = RunCli("fig2 --cpus=Zen --csv");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("cpu,workload,mitigation,overhead_pct,ci95\n", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("\nZen,lebench,TOTAL,"), std::string::npos) << r.output;
}

TEST(CliFlags, Sec45IsIdenticalForAnyJobCount) {
  const RunOutput serial = RunCli("sec45 --jobs=1");
  const RunOutput parallel = RunCli("sec45 --jobs=4");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;
  EXPECT_EQ(serial.output, parallel.output);
}

// The pass overhead matrix is a named sweep grid; its CLI bytes are the
// library bytes pinned in tests/golden/harden_grid.json (passes_test).
TEST(CliSweep, HardenGridPrintsTheGoldenBytes) {
  std::ifstream in(std::string(SPECBENCH_TEST_SOURCE_DIR) + "/golden/harden_grid.json",
                   std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  const RunOutput r = RunCli("sweep --grids=harden --quiet --jobs=4");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden.str());
}

}  // namespace
}  // namespace specbench
