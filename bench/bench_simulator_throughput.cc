// Simulator-throughput trajectory: times the 500-seed difftest sweep on the
// cycle-detailed engine two ways and writes BENCH_simulator.json:
//
//   fresh   one freshly constructed Machine per (seed, cpu, config) cell —
//           the construction cost that reuse avoids;
//   reused  RunDifftest itself, which keeps one Machine per (block of 32
//           seeds, cpu) and Reset()s it between cells.
//
// Both sweeps must agree with the reference interpreter on every cell and
// retire the same instruction count, so the speedup is pure machine-reuse
// gain on identical work. CI uploads the JSON so the wall-clock trajectory
// of the simulator itself is tracked over time; the binary exits non-zero
// below the contracted speedup (default 2x, --min-speedup=X to override) or
// if the trace cache's eviction check fails.
//
// Usage: bench_simulator_throughput [--out=BENCH_simulator.json]
//                                   [--seeds=N] [--min-speedup=X]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/difftest/difftest.h"
#include "src/isa/program.h"
#include "src/runner/parse.h"
#include "src/uarch/decoded_trace.h"

using namespace specbench;

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct TimedSweep {
  uint64_t cells = 0;
  uint64_t retired = 0;
  uint64_t divergences = 0;
  double wall_s = 0.0;
};

// Single-threaded throughout: measure the engine, not the thread pool.
TimedSweep TimeFreshMachines(uint64_t seeds) {
  TimedSweep timed;
  const auto begin = std::chrono::steady_clock::now();
  for (uint64_t seed = 0; seed < seeds; seed++) {
    const Program program = GenerateProgram(seed, GeneratorOptions{});
    const ReferenceResult ref = RunReference(program);
    for (Uarch u : AllUarches()) {
      for (const DiffConfig& config : DefaultDiffConfigs()) {
        const ArchState got = RunMachineArch(program, GetCpuModel(u), config, 1'000'000);
        timed.cells++;
        timed.retired += got.retired;
        timed.divergences += ref.ok && got == ref.state ? 0 : 1;
      }
    }
  }
  timed.wall_s = Seconds(begin, std::chrono::steady_clock::now());
  return timed;
}

TimedSweep TimeReusedMachines(uint64_t seeds) {
  DifftestOptions options;
  options.seed_begin = 0;
  options.seed_end = seeds;
  options.jobs = 1;
  options.shrink = false;
  const auto begin = std::chrono::steady_clock::now();
  const DifftestReport report = RunDifftest(options);
  TimedSweep timed;
  timed.wall_s = Seconds(begin, std::chrono::steady_clock::now());
  timed.cells = report.executions;
  timed.retired = report.retired_instructions;
  timed.divergences = report.divergences.size();
  return timed;
}

// No-cliff check for the trace cache's bounded eviction: a hot working set
// re-referenced between bursts of cold keys must stay resident across many
// multiples of kMaxEntries. The pre-fix cache wiped the whole table at the
// capacity boundary, so the hot hit rate cliffed to ~0 every 4096 distinct
// programs; second-chance eviction keeps it ~1. Returns the hot-set hit
// rate measured *after* capacity has been exceeded.
double MeasureHotHitRateAcrossEvictions(TraceCache::Stats* stats_out) {
  TraceCache& cache = TraceCache::Global();
  cache.Clear();
  cache.ResetStats();
  constexpr int64_t kHot = 64;
  const auto tagged = [](int64_t tag) {
    ProgramBuilder b;
    b.MovImm(0, tag);
    b.Halt();
    return b.Build();
  };
  for (int64_t h = 0; h < kHot; h++) {
    cache.Acquire(tagged(h), Uarch::kZen3);
  }
  uint64_t hot_hits = 0;
  uint64_t hot_touches = 0;
  int64_t next_cold = kHot;
  // 3x capacity of cold keys, touching the hot set every 256 cold inserts.
  for (int burst = 0; burst < 3 * static_cast<int>(TraceCache::kMaxEntries) / 256; burst++) {
    for (int c = 0; c < 256; c++) {
      cache.Acquire(tagged(next_cold++), Uarch::kZen3);
    }
    const uint64_t hits_before = cache.stats().hits;
    for (int64_t h = 0; h < kHot; h++) {
      cache.Acquire(tagged(h), Uarch::kZen3);
      hot_touches++;
    }
    hot_hits += cache.stats().hits - hits_before;
  }
  *stats_out = cache.stats();
  cache.Clear();
  cache.ResetStats();
  return hot_touches == 0 ? 0.0 : static_cast<double>(hot_hits) / static_cast<double>(hot_touches);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_simulator.json";
  uint64_t seeds = 500;
  double min_speedup = 2.0;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seeds=", 0) == 0) {
      if (!ParseU64Strict(arg.substr(8), &seeds) || seeds == 0) {
        std::fprintf(stderr, "%s: want a positive seed count\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::strtod(arg.c_str() + 14, nullptr);
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE] [--seeds=N] [--min-speedup=X]\n", argv[0]);
      return 2;
    }
  }

  const TimedSweep fresh = TimeFreshMachines(seeds);
  // Trace-cache stats isolated to the reused sweep, starting cold.
  TraceCache::Global().Clear();
  TraceCache::Global().ResetStats();
  const TimedSweep reused = TimeReusedMachines(seeds);
  const TraceCache::Stats cache = TraceCache::Global().stats();
  if (fresh.divergences != 0 || reused.divergences != 0) {
    std::fprintf(stderr, "FAIL: oracle divergences (fresh %llu, reused %llu)\n",
                 static_cast<unsigned long long>(fresh.divergences),
                 static_cast<unsigned long long>(reused.divergences));
    return 1;
  }
  if (fresh.cells != reused.cells || fresh.retired != reused.retired) {
    std::fprintf(stderr, "FAIL: the two sweeps measured different work (%llu vs %llu retired)\n",
                 static_cast<unsigned long long>(fresh.retired),
                 static_cast<unsigned long long>(reused.retired));
    return 1;
  }

  // Eviction no-cliff check: the bounded-eviction contract, measured past
  // the capacity boundary. (Runs after the sweeps so the sweep's own cache
  // stats above are not polluted by the synthetic programs.)
  TraceCache::Stats eviction_stats;
  const double hot_hit_rate = MeasureHotHitRateAcrossEvictions(&eviction_stats);
  if (eviction_stats.evictions == 0) {
    std::fprintf(stderr, "FAIL: eviction check streamed past capacity without evicting\n");
    return 1;
  }
  if (hot_hit_rate < 0.95) {
    std::fprintf(stderr,
                 "FAIL: hot-set hit rate %.3f cliffs at the capacity boundary "
                 "(want >= 0.95; wholesale eviction regression?)\n",
                 hot_hit_rate);
    return 1;
  }

  const double speedup = fresh.wall_s / reused.wall_s;
  const double cells = static_cast<double>(reused.cells);
  const double retired = static_cast<double>(reused.retired);
  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"simulator_throughput\",\n"
      "  \"engine\": \"detailed\",\n"
      "  \"seeds\": %llu,\n"
      "  \"cells\": %llu,\n"
      "  \"retired_instructions\": %llu,\n"
      "  \"fresh_wall_s\": %.3f,\n"
      "  \"reused_wall_s\": %.3f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"fresh_instrs_per_s\": %.0f,\n"
      "  \"reused_instrs_per_s\": %.0f,\n"
      "  \"fresh_cells_per_s\": %.0f,\n"
      "  \"reused_cells_per_s\": %.0f,\n"
      "  \"trace_cache\": {\"hits\": %llu, \"misses\": %llu, \"hit_rate\": %.3f,\n"
      "                  \"evictions\": %llu, \"collisions\": %llu},\n"
      "  \"trace_cache_hot_hit_rate_past_capacity\": %.3f\n"
      "}\n",
      static_cast<unsigned long long>(seeds), static_cast<unsigned long long>(reused.cells),
      static_cast<unsigned long long>(reused.retired), fresh.wall_s, reused.wall_s, speedup,
      retired / fresh.wall_s, retired / reused.wall_s, cells / fresh.wall_s,
      cells / reused.wall_s, static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), cache.hit_rate(),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.collisions), hot_hit_rate);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("%s", json);

  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the %.1fx floor\n", speedup, min_speedup);
    return 1;
  }
  std::printf("OK: machine reuse %.2fx faster than fresh machines (floor %.1fx)\n", speedup,
              min_speedup);
  return 0;
}
