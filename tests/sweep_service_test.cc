// End-to-end tests of the sweep service against the real spectrebench
// binary (SPECBENCH_CLI_PATH): SIGKILL a checkpointed sweep mid-grid and
// resume it, shard a grid across processes and merge, and drive the
// serve-mode Unix socket — in every case demanding output byte-identical to
// the uninterrupted one-shot `--jobs=1` run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/checkpoint.h"
#include "src/runner/service.h"

namespace specbench {
namespace {

// Small but non-trivial slice of the difftest grid: 2 CPUs x 6 configs.
constexpr char kCpus[] = "Skylake Client,Zen 3";
constexpr char kSeeds[] = "0:12";
constexpr int kGridCells = 12;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "specbench_svc_" + name + "_" + std::to_string(::getpid());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct RunOutput {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs the CLI through the shell, capturing stdout only (stderr carries
// progress/timing and is not part of the determinism contract).
RunOutput RunCli(const std::string& args) {
  const std::string command = std::string(SPECBENCH_CLI_PATH) + " " + args + " 2>/dev/null";
  RunOutput result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// fork+exec the CLI directly (no shell) so the test holds a real pid it can
// SIGKILL at an arbitrary instant.
pid_t SpawnCli(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<char*> argv;
  std::string binary = SPECBENCH_CLI_PATH;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (std::string& arg : owned) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  // Quiet child: progress isn't under test and interleaves with gtest output.
  if (::freopen("/dev/null", "w", stderr) == nullptr ||
      ::freopen("/dev/null", "w", stdout) == nullptr) {
    _exit(127);
  }
  ::execv(SPECBENCH_CLI_PATH, argv.data());
  _exit(127);
}

size_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

std::string BaselineArgs() {
  return std::string("sweep --grids=difftest --seeds=") + kSeeds + " --quiet --jobs=1 " +
         "--cpus='" + kCpus + "'";
}

// The one-shot reference output every other path must reproduce exactly.
const std::string& BaselineJson() {
  static const std::string baseline = [] {
    const RunOutput run = RunCli(BaselineArgs());
    EXPECT_EQ(run.exit_code, 0);
    return run.stdout_text;
  }();
  return baseline;
}

TEST(SweepServiceCli, KillMidGridThenResumeIsByteIdentical) {
  const std::string journal = TempPath("kill_resume");
  const std::vector<std::string> args = {
      "sweep", "--grids=difftest", std::string("--seeds=") + kSeeds, "--jobs=1",
      std::string("--cpus=") + kCpus, "--checkpoint=" + journal};
  const pid_t pid = SpawnCli(args);
  ASSERT_GT(pid, 0);

  // Wait for at least two durable records past the header, then SIGKILL —
  // mid-grid, possibly mid-append. The per-record fsync bounds the loss to
  // the torn tail.
  const size_t header_size = FileSize(journal);
  bool killed_mid_grid = false;
  for (int spin = 0; spin < 20000; spin++) {
    const std::string text = ReadFile(journal);
    size_t records = 0;
    for (char c : text) {
      records += c == '\n' ? 1 : 0;
    }
    if (records >= 3) {  // header + >= 2 cell records
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      killed_mid_grid = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  (void)header_size;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // If the sweep finished before the kill landed the test would be vacuous —
  // the grid is big enough (and fsync slow enough) that this never happens
  // in practice; assert so a future grid shrink gets noticed.
  ASSERT_TRUE(killed_mid_grid) << "sweep finished before the kill; enlarge the grid";
  ASSERT_TRUE(WIFSIGNALED(status));

  // The journal must reload: complete records plus at most a torn tail.
  CheckpointData data;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(journal, &data, &error)) << error;
  EXPECT_EQ(data.header.total_cells, static_cast<uint64_t>(kGridCells));
  EXPECT_LT(data.cells.size(), static_cast<size_t>(kGridCells));
  EXPECT_GE(data.cells.size(), 2u);

  // Resume the killed run; its stdout must equal the uninterrupted one-shot.
  const RunOutput resumed =
      RunCli(BaselineArgs() + " --checkpoint=" + journal + " --resume");
  ASSERT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.stdout_text, BaselineJson());
  std::remove(journal.c_str());
}

TEST(SweepServiceCli, FourShardsMergeByteIdentical) {
  std::vector<std::string> journals;
  for (int i = 0; i < 4; i++) {
    journals.push_back(TempPath("shard" + std::to_string(i)));
    const RunOutput shard =
        RunCli(BaselineArgs() + " --shard=" + std::to_string(i) + "/4 --checkpoint=" +
               journals.back());
    ASSERT_EQ(shard.exit_code, 0);
    // A sharded run defers output to merge.
    EXPECT_EQ(shard.stdout_text, "");
  }
  std::string inputs = journals[0];
  for (size_t i = 1; i < journals.size(); i++) {
    inputs += "," + journals[i];
  }
  const RunOutput merged = RunCli("merge --inputs=" + inputs);
  ASSERT_EQ(merged.exit_code, 0);
  EXPECT_EQ(merged.stdout_text, BaselineJson());

  // CSV emitter too, and incomplete merges must fail loudly.
  const RunOutput csv = RunCli("merge --csv --inputs=" + inputs);
  ASSERT_EQ(csv.exit_code, 0);
  EXPECT_EQ(csv.stdout_text, RunCli(BaselineArgs() + " --csv").stdout_text);
  const RunOutput incomplete = RunCli("merge --inputs=" + journals[0] + "," + journals[1]);
  EXPECT_EQ(incomplete.exit_code, 1);
  for (const std::string& journal : journals) {
    std::remove(journal.c_str());
  }
}

TEST(SweepServiceCli, ShardWithoutCheckpointIsRejected) {
  const RunOutput run = RunCli("sweep --grids=difftest --shard=0/2");
  EXPECT_EQ(run.exit_code, 2);
  const RunOutput resume = RunCli("sweep --grids=difftest --resume");
  EXPECT_EQ(resume.exit_code, 2);
}

// Serve mode: a real server process, two client batches over the socket,
// journals assembled from the streamed records, merged, byte-compared.
TEST(SweepServiceCli, ServeShardsMergeByteIdentical) {
  const std::string socket_path = TempPath("sock");
  const pid_t server = SpawnCli({"serve", "--socket=" + socket_path, "--jobs=2", "--quiet"});
  ASSERT_GT(server, 0);

  // Wait for the socket to accept a ping.
  std::string ok_line;
  std::vector<std::string> reply;
  std::string error;
  bool up = false;
  for (int attempt = 0; attempt < 100; attempt++) {
    if (SubmitRequestLine(socket_path, "ping", &ok_line, &reply, &error)) {
      up = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(up) << error;
  EXPECT_EQ(ok_line, "pong");

  // Two shard batches on separate connections, multiplexed onto the
  // server's shared pool.
  ServiceRequest request;
  request.grids = {"difftest"};
  request.cpus = {"Skylake Client", "Zen 3"};
  request.seed_begin = 0;
  request.seed_end = 12;
  std::vector<std::string> journals;
  for (uint32_t shard = 0; shard < 2; shard++) {
    request.shard = ShardSpec{shard, 2};
    ASSERT_TRUE(SubmitRequestLine(socket_path, SerializeServiceRequest(request), &ok_line,
                                  &reply, &error))
        << error;
    unsigned long long cells = 0, base_seed = 0, grid = 0, total = 0;
    ASSERT_EQ(std::sscanf(ok_line.c_str(), "ok cells=%llu base_seed=%llu grid=%16llx total=%llu",
                          &cells, &base_seed, &grid, &total),
              4)
        << ok_line;
    EXPECT_EQ(total, static_cast<unsigned long long>(kGridCells));
    EXPECT_EQ(reply.size(), static_cast<size_t>(cells));

    // The streamed records + the ok-line header form a valid journal.
    const std::string journal_path = TempPath("svc_shard" + std::to_string(shard));
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out << SerializeJournalHeader(JournalHeader{base_seed, grid, total}) << "\n";
    for (const std::string& line : reply) {
      out << line << "\n";
    }
    out.close();
    journals.push_back(journal_path);
  }

  // Malformed requests answer "err ..." without killing the connection pool.
  EXPECT_FALSE(SubmitRequestLine(socket_path, "sweep grids=bogus", &ok_line, &reply, &error));
  EXPECT_NE(error.find("unknown grid"), std::string::npos) << error;
  EXPECT_FALSE(
      SubmitRequestLine(socket_path, "sweep shard=9/2", &ok_line, &reply, &error));

  SweepResult merged;
  ASSERT_TRUE(MergeCheckpoints(journals, &merged, &error)) << error;
  EXPECT_EQ(merged.ToJson(), BaselineJson());

  // Graceful shutdown: "bye", then the server process exits cleanly.
  ASSERT_TRUE(SubmitRequestLine(socket_path, "shutdown", &ok_line, &reply, &error)) << error;
  EXPECT_EQ(ok_line, "bye");
  int status = 0;
  ASSERT_EQ(::waitpid(server, &status, 0), server);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (const std::string& journal : journals) {
    std::remove(journal.c_str());
  }
}

}  // namespace
}  // namespace specbench
