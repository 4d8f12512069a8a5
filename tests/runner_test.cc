#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sweep_grids.h"
#include "src/difftest/difftest.h"
#include "src/runner/seed.h"
#include "src/runner/service.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

namespace specbench {
namespace {

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; i++) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 10; i++) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; i++) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor must complete the queue before joining.
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, TasksOverlapInTime) {
  // The wall-clock smoke: 8 sleeping tasks on 4 workers must take about two
  // rounds, far less than the 800ms a serial run would need. Sleeps (unlike
  // CPU work) overlap even on a single-core machine, so this holds anywhere.
  ThreadPool pool(4);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; i++) {
    pool.Submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(100)); });
  }
  pool.Wait();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_LT(elapsed.count(), 600);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(CellSeed, PureFunctionOfIdentity) {
  const uint64_t a = CellSeed(1, "Skylake", "attribution", "lebench");
  const uint64_t b = CellSeed(1, "Skylake", "attribution", "lebench");
  EXPECT_EQ(a, b);
}

TEST(CellSeed, DistinguishesEveryField) {
  const uint64_t base = CellSeed(1, "Skylake", "attribution", "lebench");
  EXPECT_NE(base, CellSeed(2, "Skylake", "attribution", "lebench"));
  EXPECT_NE(base, CellSeed(1, "Zen 3", "attribution", "lebench"));
  EXPECT_NE(base, CellSeed(1, "Skylake", "default-vs-off", "lebench"));
  EXPECT_NE(base, CellSeed(1, "Skylake", "attribution", "octane2"));
}

TEST(CellSeed, FieldBoundariesAreSeparated) {
  // Without separators ("ab","c","d") and ("a","bc","d") would hash the same
  // byte stream and collide.
  EXPECT_NE(CellSeed(1, "ab", "c", "d"), CellSeed(1, "a", "bc", "d"));
  EXPECT_NE(CellSeed(1, "a", "bc", "d"), CellSeed(1, "a", "b", "cd"));
}

TEST(CellSeed, NoCollisionsAcrossRealisticGrid) {
  std::set<uint64_t> seeds;
  size_t cells = 0;
  for (const char* cpu : {"Broadwell", "Skylake", "Cascade Lake", "Ice Lake",
                          "Zen", "Zen 2", "Zen 3", "Alder Lake"}) {
    for (const char* config : {"attribution", "default-vs-off", "targeted", "blanket"}) {
      for (const char* workload :
           {"lebench", "octane2", "blackscholes", "streamcluster", "swaptions"}) {
        seeds.insert(CellSeed(1, cpu, config, workload));
        cells++;
      }
    }
  }
  EXPECT_EQ(seeds.size(), cells);
}

// A synthetic grid whose cells draw from the runner-provided seed and sleep
// for a seed-dependent time, so different job counts interleave completions
// in genuinely different orders.
Sweep BuildSyntheticGrid(int cpus, int workloads) {
  Sweep sweep;
  for (int c = 0; c < cpus; c++) {
    for (int w = 0; w < workloads; w++) {
      sweep.Add(SweepCellKey{"cpu" + std::to_string(c), "synthetic",
                             "wl" + std::to_string(w)},
                [](uint64_t seed) {
                  Rng rng(seed);
                  std::this_thread::sleep_for(
                      std::chrono::microseconds(rng.NextBelow(500)));
                  RunningStats stats;
                  for (int i = 0; i < 16; i++) {
                    stats.Add(100.0 + rng.NextGaussian());
                  }
                  CellOutput out;
                  out.metrics.push_back(CellMetric{
                      "total", "Score",
                      {stats.mean(), stats.ci95_half_width()}});
                  out.samples = stats.count();
                  return out;
                });
    }
  }
  return sweep;
}

TEST(Sweep, ByteIdenticalAcrossJobCounts) {
  const Sweep sweep = BuildSyntheticGrid(4, 6);
  RunnerOptions serial;
  serial.jobs = 1;
  const std::string reference = sweep.Run(serial).ToJson();
  const std::string reference_csv = sweep.Run(serial).ToCsv();
  for (int jobs : {4, 16}) {
    RunnerOptions options;
    options.jobs = jobs;
    const SweepResult result = sweep.Run(options);
    EXPECT_EQ(result.ToJson(), reference) << "jobs=" << jobs;
    EXPECT_EQ(result.ToCsv(), reference_csv) << "jobs=" << jobs;
  }
}

TEST(Sweep, SeedsIndependentOfRegistrationAndExecutionOrder) {
  // The same cell key must get the same seed whether it is registered first
  // or last, alone or among other cells — seeds are a pure function of
  // (base_seed, key), never of position or schedule.
  Sweep forward = BuildSyntheticGrid(3, 3);
  Sweep tiny;
  tiny.Add(SweepCellKey{"cpu2", "synthetic", "wl1"},
           [](uint64_t /*seed*/) { return CellOutput{}; });
  RunnerOptions options;
  options.jobs = 8;
  const SweepResult big = forward.Run(options);
  const SweepResult small = tiny.Run(options);
  bool found = false;
  for (const SweepCellResult& cell : big.cells) {
    if (cell.key.cpu == "cpu2" && cell.key.workload == "wl1") {
      EXPECT_EQ(cell.seed, small.cells[0].seed);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // And every seed matches a direct CellSeed() computation.
  for (const SweepCellResult& cell : big.cells) {
    EXPECT_EQ(cell.seed,
              CellSeed(options.base_seed, cell.key.cpu, cell.key.config,
                       cell.key.workload));
  }
}

TEST(Sweep, BaseSeedChangesResults) {
  const Sweep sweep = BuildSyntheticGrid(2, 2);
  RunnerOptions a;
  a.base_seed = 1;
  RunnerOptions b;
  b.base_seed = 2;
  EXPECT_NE(sweep.Run(a).ToJson(), sweep.Run(b).ToJson());
}

TEST(Sweep, ResultsInRegistrationOrder) {
  const Sweep sweep = BuildSyntheticGrid(3, 2);
  RunnerOptions options;
  options.jobs = 8;
  const SweepResult result = sweep.Run(options);
  ASSERT_EQ(result.cells.size(), sweep.size());
  for (size_t i = 0; i < result.cells.size(); i++) {
    EXPECT_EQ(result.cells[i].key.cpu, sweep.key(i).cpu);
    EXPECT_EQ(result.cells[i].key.workload, sweep.key(i).workload);
  }
}

TEST(Sweep, RetainFiltersCells) {
  Sweep sweep = BuildSyntheticGrid(3, 3);
  sweep.Retain([](const SweepCellKey& key) { return key.cpu == "cpu1"; });
  EXPECT_EQ(sweep.size(), 3u);
  const SweepResult result = sweep.Run();
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_EQ(cell.key.cpu, "cpu1");
  }
}

TEST(Sweep, GeomeanRollup) {
  Sweep sweep;
  for (double pct : {10.0, 21.0}) {
    sweep.Add(SweepCellKey{"cpuA", "cfg", "wl" + std::to_string(int(pct))},
              [pct](uint64_t /*seed*/) {
                CellOutput out;
                out.metrics.push_back(CellMetric{"total", "t", {pct, 0.0}});
                return out;
              });
  }
  const SweepResult result = sweep.Run();
  const auto rollups = result.GeomeanByCpu("total");
  ASSERT_EQ(rollups.size(), 1u);
  EXPECT_EQ(rollups[0].group, "cpuA");
  EXPECT_EQ(rollups[0].cells, 2u);
  // geomean of ratios 1.10 and 1.21 is 1.1 * sqrt(1.1/1.1... ) = sqrt(1.331)
  EXPECT_NEAR(rollups[0].geomean_pct, (std::sqrt(1.10 * 1.21) - 1.0) * 100.0, 1e-9);
}

// End-to-end: a real paper grid (§4.5 PARSEC, trimmed to two CPUs with a
// fast sampler) must emit byte-identical JSON at every job count.
TEST(Sweep, RealGridDeterministicAcrossJobCounts) {
  GridOptions grid;
  grid.sampler.min_samples = 3;
  grid.sampler.max_samples = 5;
  grid.sampler.target_relative_ci = 0.05;
  grid.cpus = {Uarch::kSkylakeClient, Uarch::kZen3};
  const Sweep sweep = BuildSection45Grid(grid);
  ASSERT_GT(sweep.size(), 0u);
  RunnerOptions serial;
  serial.jobs = 1;
  const std::string reference = sweep.Run(serial).ToJson();
  for (int jobs : {4, 16}) {
    RunnerOptions options;
    options.jobs = jobs;
    EXPECT_EQ(sweep.Run(options).ToJson(), reference) << "jobs=" << jobs;
  }
}

TEST(Fnv1a, MatchesPublishedTestVectors) {
  // Reference vectors from the FNV specification's test suite.
  EXPECT_EQ(Fnv1a64(""), kFnv1aBasis);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Chaining: hashing in two pieces equals hashing the concatenation.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
}

// The determinism story rests on per-cell streams being *independent*: a
// cell must not replay a neighbouring cell's draws. Seed distinct cell
// identities (including two base seeds differing by 1, the adversarial case
// SplitMix64 finalization exists for) and demand that no 64-bit value
// appears in two different streams within the first 1000 draws. For good
// 64-bit streams a shared draw has probability ~ 10^-13 — a collision here
// means the derivation is broken, not bad luck.
TEST(Rng, PerCellSplitMixStreamsArePairwiseDisjoint) {
  constexpr int kDraws = 1000;
  std::vector<uint64_t> cell_seeds;
  for (uint64_t base : {1, 2}) {
    for (const char* cpu : {"Skylake", "Zen 3"}) {
      for (const char* workload : {"lebench", "octane2", "blackscholes"}) {
        cell_seeds.push_back(CellSeed(base, cpu, "attribution", workload));
      }
    }
  }
  std::vector<std::set<uint64_t>> streams;
  for (uint64_t seed : cell_seeds) {
    uint64_t state = seed;
    std::set<uint64_t> draws;
    for (int i = 0; i < kDraws; i++) {
      draws.insert(SplitMix64Next(&state));
    }
    EXPECT_EQ(draws.size(), static_cast<size_t>(kDraws));  // no repeats inside a stream
    streams.push_back(std::move(draws));
  }
  for (size_t a = 0; a < streams.size(); a++) {
    for (size_t b = a + 1; b < streams.size(); b++) {
      for (uint64_t value : streams[a]) {
        ASSERT_EQ(streams[b].count(value), 0u)
            << "streams " << a << " and " << b << " share draw " << value;
      }
    }
  }
}

TEST(Rng, PerCellXoshiroStreamsArePairwiseDisjoint) {
  // Same property one layer up: the Rng streams cells actually consume.
  constexpr int kDraws = 1000;
  std::vector<std::set<uint64_t>> streams;
  for (uint64_t base : {1, 2}) {
    for (const char* workload : {"lebench", "octane2", "swaptions"}) {
      Rng rng(CellSeed(base, "Skylake", "attribution", workload));
      std::set<uint64_t> draws;
      for (int i = 0; i < kDraws; i++) {
        draws.insert(rng.NextU64());
      }
      EXPECT_EQ(draws.size(), static_cast<size_t>(kDraws));
      streams.push_back(std::move(draws));
    }
  }
  for (size_t a = 0; a < streams.size(); a++) {
    for (size_t b = a + 1; b < streams.size(); b++) {
      for (uint64_t value : streams[a]) {
        ASSERT_EQ(streams[b].count(value), 0u)
            << "streams " << a << " and " << b << " share draw " << value;
      }
    }
  }
}

// --- Emitter golden files -------------------------------------------------
//
// The JSON/CSV emitters promise byte-reproducible output (fixed key order,
// %.17g doubles, no timing fields). The fixtures under tests/golden/ pin
// those bytes; regenerate them after an intentional format change with
//   SPECBENCH_REGEN_GOLDEN=1 ./runner_test --gtest_filter='SweepEmitters.*'
// and review the diff.

// Hand-constructed result exercising the tricky cases: CPU and config names
// containing spaces, commas and double quotes (CSV quoting), multiple
// metrics per cell, exactly-representable and tiny doubles, a non-converged
// cell, and a wall_ms value that must NOT leak into either emitter.
SweepResult GoldenSweepResult() {
  SweepResult result;
  result.base_seed = 42;
  SweepCellResult a;
  a.key = SweepCellKey{"Skylake Client", "nopti,nopcid", "lebench"};
  a.seed = 11;
  a.output.metrics.push_back(CellMetric{"total", "Total overhead", {12.5, 0.25}});
  a.output.metrics.push_back(CellMetric{"pti", "PTI", {7.0625, 0.125}});
  a.output.samples = 40;
  a.output.converged = true;
  a.wall_ms = 123.456;  // timing: excluded from emitters by contract
  SweepCellResult b;
  b.key = SweepCellKey{"Zen 2", "say \"cheese\"", "octane2"};
  b.seed = 12;
  b.output.metrics.push_back(CellMetric{"total", "Total overhead", {0.0001220703125, 3.0517578125e-05}});
  b.output.samples = 8;
  b.output.converged = false;
  b.output.saw_non_finite = true;
  result.cells = {a, b};
  return result;
}

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

TEST(SweepEmitters, JsonMatchesGoldenFileByteForByte) {
  const std::string actual = GoldenSweepResult().ToJson();
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "sweep.json"));
}

TEST(SweepEmitters, CsvMatchesGoldenFileByteForByte) {
  const std::string actual = GoldenSweepResult().ToCsv();
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "sweep.csv"));
}

TEST(SweepEmitters, CsvQuotesNamesWithCommasAndQuotes) {
  const std::string csv = GoldenSweepResult().ToCsv();
  // RFC 4180: embedded commas force quoting; embedded quotes double up.
  EXPECT_NE(csv.find("\"nopti,nopcid\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"say \"\"cheese\"\"\""), std::string::npos) << csv;
  // Names without specials stay unquoted.
  EXPECT_NE(csv.find("Skylake Client,"), std::string::npos) << csv;
}

TEST(SweepEmitters, JsonEscapesQuotesAndOmitsTiming) {
  const std::string json = GoldenSweepResult().ToJson();
  EXPECT_NE(json.find("say \\\"cheese\\\""), std::string::npos) << json;
  EXPECT_EQ(json.find("wall"), std::string::npos) << json;
  EXPECT_EQ(json.find("123.456"), std::string::npos) << json;
}

TEST(Sweep, AttributionRoundTripThroughSweepResult) {
  GridOptions grid;
  grid.sampler.min_samples = 3;
  grid.sampler.max_samples = 6;
  grid.sampler.target_relative_ci = 0.05;
  grid.cpus = {Uarch::kSkylakeClient};
  const Sweep sweep = BuildFigure2Grid(grid);
  ASSERT_EQ(sweep.size(), 1u);
  const SweepResult result = sweep.Run();
  const auto reports = AttributionReportsFromSweep(result);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].cpu, "Skylake Client");
  EXPECT_FALSE(reports[0].segments.empty());
  EXPECT_GT(reports[0].total_samples, 0u);
  EXPECT_FALSE(reports[0].saw_non_finite);
}

// The difftest grid cell runs the oracle's own block loop: its counts are
// RunDifftest's restricted to that (cpu, config), with shrinking off. The
// window crosses one of RunDifftest's 32-seed block boundaries.
TEST(Sweep, DifftestGridCellMatchesTheOracle) {
  DifftestGridOptions grid;
  grid.cpus = {Uarch::kZen2};
  grid.seed_begin = 5;
  grid.seed_end = 45;
  const SweepResult result = BuildDifftestGrid(grid).Run();
  ASSERT_EQ(result.cells.size(), DefaultDiffConfigs().size());
  for (const SweepCellResult& cell : result.cells) {
    SCOPED_TRACE(cell.key.config);
    DifftestOptions oracle;
    oracle.seed_begin = grid.seed_begin;
    oracle.seed_end = grid.seed_end;
    oracle.cpus = grid.cpus;
    DiffConfig config;
    ASSERT_TRUE(TryGetDiffConfigByName(cell.key.config, &config));
    oracle.configs = {config};
    oracle.shrink = false;
    const DifftestReport report = RunDifftest(oracle);
    ASSERT_EQ(cell.output.metrics.size(), 2u);
    EXPECT_EQ(cell.output.metrics[0].id, "divergences");
    EXPECT_EQ(cell.output.metrics[0].estimate.value,
              static_cast<double>(report.divergences.size()));
    EXPECT_EQ(cell.output.metrics[1].id, "retired");
    EXPECT_EQ(cell.output.metrics[1].estimate.value,
              static_cast<double>(report.retired_instructions));
    EXPECT_GT(report.retired_instructions, 0u);
  }
}

// Raw client connection to a SweepService socket; -1 on failure.
int ConnectTo(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Everything the peer sends until it closes the connection.
std::string ReadUntilClosed(int fd) {
  std::string out;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

// A client that never sends '\n' cannot grow the service's line buffer past
// kMaxServiceLineBytes: it gets the protocol's error reply and its
// connection is closed, while other clients are still served.
TEST(SweepService, OverlongRequestLineGetsAnErrorAndIsDisconnected) {
  const std::string path =
      testing::TempDir() + "specbench-line-bound-" + std::to_string(::getpid()) + ".sock";
  ServiceOptions options;
  options.socket_path = path;
  options.jobs = 1;
  options.quiet = true;
  SweepService service(options, [](const ServiceRequest&, Sweep*, std::string* error) {
    *error = "no grids in this test";
    return false;
  });
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  std::thread server([&service] { service.Serve(); });

  const int flood = ConnectTo(path);
  ASSERT_GE(flood, 0);
  const std::string chunk(64 * 1024, 'x');
  size_t sent = 0;
  while (sent <= kMaxServiceLineBytes) {
    const ssize_t n = ::send(flood, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      break;  // the service already hung up
    }
    sent += static_cast<size_t>(n);
  }
  EXPECT_GT(sent, kMaxServiceLineBytes);
  EXPECT_EQ(ReadUntilClosed(flood),
            "err request line exceeds " + std::to_string(kMaxServiceLineBytes) + " bytes\n");
  ::close(flood);

  const int polite = ConnectTo(path);
  ASSERT_GE(polite, 0);
  const std::string requests = "ping\nshutdown\n";
  ASSERT_EQ(::send(polite, requests.data(), requests.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(requests.size()));
  EXPECT_EQ(ReadUntilClosed(polite), "pong\nbye\n");
  ::close(polite);
  server.join();
}

}  // namespace
}  // namespace specbench
