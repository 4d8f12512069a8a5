// Golden tests for the CLI's argument validation: strict --seeds=A:B
// parsing, repeated names in lists, per-subcommand flag allowlists, the
// usage text generated from them, boot parameters, and the unknown-command
// path.
// Each case runs the real spectrebench binary (SPECBENCH_CLI_PATH, injected
// by CMake) as a subprocess and asserts on the exit code and the exact
// diagnostic text — the error strings are part of the user interface, so
// changes to them must be deliberate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/attack/suite.h"

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

// --- Lists of names --------------------------------------------------------

// A repeated name would run (and print) the same cells twice, with the
// same keys and seeds: it exits 2 with one line, like an unknown name.
TEST(CliLists, RepeatedNameExitsTwoWithOneLine) {
  const struct {
    const char* args;
    const char* want;
  } kCases[] = {
      {"fig2 --cpus=Zen,Zen", "repeated CPU model: \"Zen\"\n"},
      {"difftest --seeds=0:1 '--cpus=Zen 2,Zen,Zen 2'", "repeated CPU model: \"Zen 2\"\n"},
      {"sweep --grids=fig2,fig2 --cpus=Zen", "sweep: repeated grid: \"fig2\"\n"},
  };
  for (const auto& c : kCases) {
    const RunOutput r = RunCli(c.args);
    EXPECT_EQ(r.exit_code, 2) << c.args;
    EXPECT_EQ(r.output, c.want) << c.args;
  }
}

// A list flag given no names is an error, not "all" or "no filter".
TEST(CliFlags, EmptyListFlagExitsTwo) {
  const struct {
    const char* args;
    const char* flag;
  } kCases[] = {
      {"sweep --grids= --cpus=Zen", "--grids"},
      {"sweep --grids=harden --cpus=Zen --workloads=", "--workloads"},
      {"counters --cpus=Zen --workloads=,", "--workloads"},
      {"sweep --grids=harden --cpus=Zen --configs=", "--configs"},
      {"difftest --seeds=0:1 --cpus=Zen --configs=", "--configs"},
      {"counters --cpus=Zen --boot-params=", "--boot-params"},
      {"harden --cpus=Zen --passes=", "--passes"},
      {"merge --inputs=", "--inputs"},
  };
  for (const auto& c : kCases) {
    const RunOutput r = RunCli(c.args);
    EXPECT_EQ(r.exit_code, 2) << c.args;
    EXPECT_EQ(r.output, std::string(c.flag) + "= needs at least one name\n") << c.args;
  }
  const RunOutput cpus = RunCli("fig2 --cpus=");
  EXPECT_EQ(cpus.exit_code, 2);
  EXPECT_EQ(cpus.output.rfind("--cpus= needs at least one name", 0), 0u) << cpus.output;
}

// --- Strict numeric flags -------------------------------------------------

// A malformed number exits 2 with one line before any work starts, instead
// of an atoi default (or, for a negative --jobs, an abort).
TEST(CliNumbers, MalformedValuesExitTwoWithOneLine) {
  const struct {
    const char* args;
    const char* want;
  } kCases[] = {
      {"pareto --jobs=-1", "--jobs=-1: want a thread count from 0 to 256 (0 = all cores)\n"},
      {"pareto --jobs=banana", "--jobs=banana: want a thread count from 0 to 256 (0 = all cores)\n"},
      {"pareto --jobs=4x", "--jobs=4x: want a thread count from 0 to 256 (0 = all cores)\n"},
      {"difftest --jobs=-3", "--jobs=-3: want a thread count from 0 to 256 (0 = all cores)\n"},
      {"fig3 --jobs=banana", "--jobs=banana: want a thread count from 0 to 256 (0 = all cores)\n"},
      {"scorecard --jobs=1.5", "--jobs=1.5: want a thread count from 0 to 256 (0 = all cores)\n"},
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

// A --jobs above the runner's bound would ask the thread pool for that many
// threads, which aborts; it exits 2 with one line while the flags are parsed,
// before any thread starts.
TEST(CliFlags, JobsAboveTheBoundExitsTwo) {
  for (const char* command :
       {"scorecard", "fig2", "fig3", "sec45", "sweep", "pareto", "difftest"}) {
    const RunOutput r = RunCli(std::string(command) + " --jobs=257");
    EXPECT_EQ(r.exit_code, 2) << command;
    EXPECT_EQ(r.output, "--jobs=257: want a thread count from 0 to 256 (0 = all cores)\n")
        << command;
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
// --cross-validate: both are rejected like any other unknown option. The
// sampled experiments have one sampler budget, so no command takes --fast.
TEST(CliFlags, DifftestRejectsFastAndCrossValidate) {
  const char* kValid =
      "(valid options: --seeds --cpus --configs --jobs --inject-alu-fault --corpus-out "
      "--replay --arch-hashes)\n";
  struct FastCase {
    const char* args;
    const char* command;
    const char* valid;
  };
  const std::vector<FastCase> cases = {
      {"difftest --seeds=0:1 --fast", "difftest", kValid},
      {"fig2 --fast", "fig2", "(valid options: --csv --jobs --cpus)\n"},
      {"fig3 --fast", "fig3", "(valid options: --csv --jobs --cpus)\n"},
      {"sec44 --fast", "sec44", "(valid options: --cpus)\n"},
      {"sec45 --fast", "sec45", "(valid options: --jobs --cpus)\n"},
      {"sweep --fast", "sweep",
       "(valid options: --csv --quiet --jobs --seed --seeds --cpus --grids --workloads "
       "--configs --shard --checkpoint --resume)\n"},
      {"submit --fast", "submit",
       "(valid options: --socket --grids --seeds --cpus --workloads --configs --seed --shard "
       "--checkpoint --ping --shutdown)\n"},
  };
  for (const FastCase& c : cases) {
    const RunOutput fast = RunCli(c.args);
    EXPECT_EQ(fast.exit_code, 2) << c.args;
    EXPECT_EQ(fast.output, std::string("spectrebench ") + c.command +
                               ": unrecognized option '--fast' " + c.valid)
        << c.args;
  }
  const RunOutput xval = RunCli("difftest --seeds=0:1 --cross-validate");
  EXPECT_EQ(xval.exit_code, 2);
  EXPECT_EQ(xval.output,
            std::string("spectrebench difftest: unrecognized option '--cross-validate' ") +
                kValid);
}

// Every command's allowlist, in its `valid options:` order.
struct Allowlist {
  const char* command;
  const char* valid;  // space-separated flags, or "none"
};
const Allowlist kAllowlists[] = {
    {"list", "none"},
    {"table1", "none"},
    {"table2", "none"},
    {"table3", "none"},
    {"table4", "none"},
    {"table5", "none"},
    {"table6", "none"},
    {"table7", "none"},
    {"table8", "none"},
    {"tables9-10", "none"},
    {"sec622", "none"},
    {"fig2", "--csv --jobs --cpus"},
    {"fig3", "--csv --jobs --cpus"},
    {"fig5", "--cpus"},
    {"sec44", "--cpus"},
    {"sec45", "--jobs --cpus"},
    {"scorecard", "--jobs"},
    {"fig2-kernels", "--cpus"},
    {"sweep",
     "--csv --quiet --jobs --seed --seeds --cpus --grids --workloads --configs --shard "
     "--checkpoint --resume"},
    {"merge", "--inputs --csv"},
    {"serve", "--socket --jobs --quiet"},
    {"submit",
     "--socket --grids --seeds --cpus --workloads --configs --seed --shard --checkpoint --ping "
     "--shutdown"},
    {"counters", "--cpus --workloads --boot-params"},
    {"attacks", "--cpus"},
    {"pareto", "--json --csv --jobs --trials --seed --cpus"},
    {"analyze", "--json --cpus"},
    {"harden", "--seeds --passes --json --cpus"},
    {"difftest",
     "--seeds --cpus --configs --jobs --inject-alu-fault --corpus-out --replay --arch-hashes"},
};

TEST(CliFlags, EveryCommandRejectsAnUnknownFlagWithItsAllowlist) {
  for (const Allowlist& a : kAllowlists) {
    const RunOutput r = RunCli(std::string(a.command) + " --no-such-flag");
    EXPECT_EQ(r.exit_code, 2) << a.command;
    EXPECT_EQ(r.output, std::string("spectrebench ") + a.command +
                            ": unrecognized option '--no-such-flag' (valid options: " + a.valid +
                            ")\n")
        << a.command;
  }
}

// Every `--name` token in `text`.
std::set<std::string> FlagsIn(const std::string& text) {
  std::set<std::string> flags;
  for (size_t at = text.find("--"); at != std::string::npos; at = text.find("--", at)) {
    size_t end = at + 2;
    while (end < text.size() && (std::islower(static_cast<unsigned char>(text[end])) ||
                                 std::isdigit(static_cast<unsigned char>(text[end])) ||
                                 text[end] == '-')) {
      end++;
    }
    if (end > at + 2) {
      flags.insert(text.substr(at, end - at));
    }
    at = end;
  }
  return flags;
}

// `list` is generated from the command table: each command's entry names
// exactly the flags the command accepts, and the header names none.
TEST(CliFlags, ListShowsExactlyTheFlagsEachCommandAccepts) {
  const RunOutput r = RunCli("list");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const size_t commands_at = r.output.find("\ncommands:\n");
  ASSERT_NE(commands_at, std::string::npos) << r.output;
  EXPECT_EQ(FlagsIn(r.output.substr(0, commands_at)), std::set<std::string>());
  for (const Allowlist& a : kAllowlists) {
    // The entry is the "  <name> ..." line plus its continuation lines,
    // which are indented further.
    const std::string head = std::string("\n  ") + a.command + " ";
    const size_t begin = r.output.find(head, commands_at);
    ASSERT_NE(begin, std::string::npos) << a.command;
    size_t end = r.output.find('\n', begin + 1);
    while (end != std::string::npos && r.output.compare(end, 4, "\n   ") == 0) {
      end = r.output.find('\n', end + 1);
    }
    const std::string entry = r.output.substr(begin, end - begin);
    std::set<std::string> accepted;
    if (std::string(a.valid) != "none") {
      std::istringstream words(a.valid);
      for (std::string flag; words >> flag;) {
        accepted.insert(flag);
      }
    }
    EXPECT_EQ(FlagsIn(entry), accepted) << entry;
  }
}

// A switch given a value, or a valued flag given none, is rejected by name.
TEST(CliFlags, FlagValueShapeIsChecked) {
  const RunOutput with_value = RunCli("pareto --json=1");
  EXPECT_EQ(with_value.exit_code, 2);
  EXPECT_EQ(with_value.output, "spectrebench pareto: option '--json' takes no value\n");
  const RunOutput without_value = RunCli("pareto --jobs");
  EXPECT_EQ(without_value.exit_code, 2);
  EXPECT_EQ(without_value.output,
            "spectrebench pareto: option '--jobs' needs a value (--jobs=N)\n");
}

TEST(CliFlags, UnknownCommandReportedBeforeFlags) {
  const RunOutput r = RunCli("bogus --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output.rfind("unknown command: bogus\n", 0), 0u) << r.output;
}

// --- Boot parameters -------------------------------------------------------

// A boot parameter that is not applied (unrecognized, or unsupported on the
// CPU) is an error: one stderr line per CPU, nothing measured, exit 2.
TEST(CliBootParams, UnappliedTokenExitsTwo) {
  const RunOutput bogus = RunCli("counters --cpus=Broadwell --boot-params=bogus");
  EXPECT_EQ(bogus.exit_code, 2);
  EXPECT_EQ(bogus.output,
            "counters: boot parameter \"bogus\" not applied on Broadwell (unrecognized or "
            "unsupported)\n");
  const RunOutput ibrs_on_zen = RunCli("counters --cpus=Zen --boot-params=spectre_v2=ibrs");
  EXPECT_EQ(ibrs_on_zen.exit_code, 2);
  EXPECT_EQ(ibrs_on_zen.output,
            "counters: boot parameter \"spectre_v2=ibrs\" not applied on Zen (unrecognized "
            "or unsupported)\n");
}

TEST(CliBootParams, AppliedTokenMeasures) {
  const RunOutput r = RunCli("counters --cpus=Broadwell --boot-params=nopti");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"spectrebench-counters-v1\""), std::string::npos) << r.output;
}

// --- The attack table -------------------------------------------------------

// `attacks` prints one row per AttackSuite() spec for each CPU, in
// registration order. A CPU whose hardware is not vulnerable prints n/a; a
// vulnerable one leaks with the spec's knobs off and is safe with them on.
TEST(CliAttacks, EveryRegisteredAttackHasARow) {
  const RunOutput r = RunCli("attacks");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::istringstream lines(r.output);
  std::string line;
  std::getline(lines, line);  // header
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const AttackSpec& spec : AttackSuite()) {
      ASSERT_TRUE(std::getline(lines, line)) << UarchName(u) << " " << spec.name;
      char prefix[64];
      std::snprintf(prefix, sizeof(prefix), "%-16s %-16s ", UarchName(u), spec.name.c_str());
      ASSERT_EQ(line.rfind(prefix, 0), 0u) << "want \"" << prefix << "\", got: " << line;
      std::istringstream verdicts(line.substr(std::string(prefix).size()));
      std::string off;
      std::string on;
      verdicts >> off >> on;
      if (spec.vulnerable(cpu)) {
        EXPECT_EQ(off + " " + on, "LEAK safe") << line;
      } else {
        EXPECT_EQ(off + " " + on, "n/a n/a") << line;
      }
    }
  }
  std::getline(lines, line);
  EXPECT_EQ(line, "");
  std::getline(lines, line);
  EXPECT_EQ(line, "0 leaks with mitigations enabled (expected 0).");
}

// --- Output goldens ---------------------------------------------------------
//
// CLI outputs pinned byte for byte that no library-level golden covers.
// Regenerate after an intentional change with
//   SPECBENCH_REGEN_GOLDEN=1 ./cli_test --gtest_filter='CliGolden.*'
// and review the diff.

std::string CheckAgainstGolden(const std::string& actual, const std::string& name) {
  const std::string path = std::string(SPECBENCH_TEST_SOURCE_DIR) + "/golden/" + name;
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

// Corpus-mode `harden --json`: every CPU x pass x gadget-corpus program.
TEST(CliGolden, HardenCorpusJsonMatchesGoldenFileByteForByte) {
  const RunOutput r = RunCli("harden --json");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, CheckAgainstGolden(r.output, "harden_corpus.json"));
}

// The `attacks` table: every AttackSuite() spec on every CPU, off and on.
TEST(CliGolden, AttacksTableMatchesGoldenFileByteForByte) {
  const RunOutput r = RunCli("attacks");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, CheckAgainstGolden(r.output, "attacks.txt"));
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

// --corpus-out writes one shrunk reproducer per divergence; a write that
// fails is reported and exits 2 instead of claiming the file was written.
TEST(CliCorpus, CorpusOutReportsFailedWrites) {
  const std::string dir =
      ::testing::TempDir() + "cli_test_corpus_out_" + std::to_string(getpid());
  const std::string args =
      "difftest --seeds=4:5 '--cpus=Skylake Client' --configs=off --inject-alu-fault=1 "
      "--corpus-out=" + dir;
  const std::string file = dir + "/seed-4-Skylake-Client-off.difftest";
  std::filesystem::remove_all(dir);

  const RunOutput missing = RunCli(args);
  EXPECT_EQ(missing.exit_code, 2) << missing.output;
  EXPECT_NE(missing.output.find("difftest: cannot write " + file + "\n"), std::string::npos)
      << missing.output;
  EXPECT_EQ(missing.output.find("difftest: wrote"), std::string::npos) << missing.output;

  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const RunOutput written = RunCli(args);
  EXPECT_EQ(written.exit_code, 1) << written.output;  // the injected divergence
  EXPECT_NE(written.output.find("difftest: wrote " + file + "\n"), std::string::npos)
      << written.output;
  EXPECT_TRUE(std::filesystem::exists(file));
  std::filesystem::remove_all(dir);
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
