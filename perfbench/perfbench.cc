// perfbench: the measuring half of the spectrebench benchmark.
//
// Runs one workload through the library's public entry points, checks every
// output it produces, and prints one JSON document of raw samples on stdout:
// set-up time, wall and CPU time of the run, request latencies, output digests,
// exact work counts and, in a traced run, the spans recorded around calls
// into each layer. perfbench/run.py builds this binary, turns the samples
// into metrics (perfbench/ledger.py) and prints the benchmark's result line;
// perfbench/README.md describes every metric.
//
//   perfbench --workload=pareto|fig2|difftest|serve --seed=N [--jobs=N]
//             [--trace=0|1] [--golden=PATH] [--scratch=DIR] [--setup-only]
//
// An untraced process sets up, runs the workload once at --jobs and exits,
// so every timed run starts from a fresh process; run.py repeats them.
//
// Host time only: simulated statistics are outputs, checked byte for byte,
// never reported as performance.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/attack/suite.h"
#include "src/core/counters.h"
#include "src/core/experiments.h"
#include "src/core/pareto.h"
#include "src/core/sweep_grids.h"
#include "src/cpu/cpu_model.h"
#include "src/difftest/difftest.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/jit/jit.h"
#include "src/os/kernel.h"
#include "src/os/mitigation_config.h"
#include "src/runner/checkpoint.h"
#include "src/runner/seed.h"
#include "src/runner/service.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"
#include "src/uarch/cycle_attribution.h"
#include "src/uarch/decoded_trace.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/workload/lebench.h"
#include "src/workload/parsec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace specbench {
namespace {

// ---------------------------------------------------------------------------
// Workload inputs. Every input derives from --seed through Variant(); the
// outputs of each variant are recorded in perfbench/expected.json.

constexpr uint64_t kVariants = 8;
constexpr uint64_t kDifftestSeeds = 500;      // programs per difftest repetition
// Eight seeds keep a request's own work (~3 ms) above the few-millisecond
// scheduling stalls of a shared host, which otherwise decide the p99.
constexpr uint64_t kServeSeedsPerBatch = 8;   // difftest seeds in one serve request
constexpr size_t kServeSpecs = 16;            // distinct requests in one serve run
constexpr size_t kServeRequestsPerPhase = 1000;  // so each process has a p99 with 10 beyond
constexpr int kServePool = 2;                 // the service's shared pool
constexpr int kServeClients = 2;              // closed-loop client connections
constexpr int kProbeReps = 10;                // repeats of each single-call probe

uint64_t Variant(uint64_t seed) { return seed % kVariants; }
uint64_t DifftestSeedBegin(uint64_t seed) { return Variant(seed) * kDifftestSeeds; }
uint64_t Fig2BaseSeed(uint64_t seed) { return 1 + Variant(seed); }

// The four CPUs EXPERIMENTS.md tracks for Figure 2: four uneven cells, one
// per worker at jobs=4, so the slowest cell sets the parallel wall time.
std::vector<Uarch> Fig2Cpus() {
  return {Uarch::kBroadwell, Uarch::kSkylakeClient, Uarch::kIceLakeServer, Uarch::kZen1};
}

// A fixed two samples per configuration, so every seed asks for the same
// amount of simulation (the adaptive stopping rule would make the work, and
// so the host time, depend on the seed).
SamplerOptions Fig2Sampler() {
  SamplerOptions sampler;
  sampler.min_samples = 2;
  sampler.max_samples = 2;
  return sampler;
}

// ---------------------------------------------------------------------------
// Clocks, resources and small helpers.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

long PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int ParallelJobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = CPU_COUNT(&set);
  }
  return std::clamp(cpus, 1, 4);
}

std::string Slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == ' ' || c == '_') {
      out += '-';
    } else {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

std::string DigestHex(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); i++) {
    out += (i ? ", " : "") + items[i];
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Runs `fn` on a thread of its own, so thread-local state (MachinePool's
// per-thread machines) starts empty, exactly as in a fresh process.
void OnFreshThread(const std::function<void()>& fn) {
  std::thread worker(fn);
  worker.join();
}

// The state every timed repetition starts from: an empty trace cache with
// zeroed statistics. Pools are per thread and every repetition's threads are
// new, so no pooled machine carries over either.
void ColdStart() {
  TraceCache::Global().Clear();
  TraceCache::Global().ResetStats();
}

constexpr const char* kStartState =
    "empty TraceCache (Clear + ResetStats), fresh threads (no pooled machines), "
    "process statics initialised during set-up";

// ---------------------------------------------------------------------------
// Output checks: every comparison counts as one attempted operation.

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_++;
    if (!ok) {
      failed_++;
      if (failures_.size() < 20) {
        failures_.push_back(what);
      }
    }
  }

  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); i++) {
      out += (i ? ", " : "") + JsonString(failures_[i]);
    }
    return out + "]}";
  }

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Spans for the traced run: kept in memory, written out when the run ends.

class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  int64_t Open(const std::string& name, int64_t parent, int64_t group) {
    const int64_t start = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, -1, parent, group});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = end;
  }
  // A span whose interval was measured elsewhere (sweep cells report their
  // own wall time on completion).
  void Add(const std::string& name, int64_t start, int64_t end, int64_t parent, int64_t group) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, parent, group});
  }
  void Count(const std::string& name, uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[name] += value;
  }

  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "\"spans\": [";
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      out += (i ? ", " : "") + std::string("[") + JsonString(s.name) + ", " +
             std::to_string(s.start) + ", " + std::to_string(s.end) + ", " +
             std::to_string(s.parent) + ", " + std::to_string(s.group) + "]";
    }
    out += "], \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      out += (first ? "" : ", ") + JsonString(name) + ": " + std::to_string(value);
      first = false;
    }
    return out + "}";
  }

 private:
  struct Span {
    std::string name;
    int64_t start;
    int64_t end;
    int64_t parent;
    int64_t group;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, uint64_t> counts_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t parent, int64_t group = -1)
      : tracer_(tracer), id_(tracer.Open(name, parent, group)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// One run of a workload's public entry point.

struct RunOutput {
  std::string text;                         // deterministic rendered output
  std::map<std::string, uint64_t> counts;   // exact work counts
  uint64_t ops = 0;                         // units of work (for req_per_s)
};

std::string CountsJson(const std::map<std::string, uint64_t>& counts) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counts) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + std::to_string(value);
    first = false;
  }
  return out + "}";
}

RunOutput RunPareto(int jobs) {
  ParetoOptions options;  // the CLI defaults: all CPUs, 5 trials, seed 1
  options.jobs = jobs;
  const ParetoReport report = BuildParetoReport(options);
  RunOutput out;
  out.text = RenderParetoJson(report);
  uint64_t trials = 0;
  for (const SuiteCell& cell : report.suite.cells) {
    trials += static_cast<uint64_t>(cell.trials);
  }
  uint64_t basket_cells = 0;
  for (const CpuPareto& cpu : report.cpus) {
    basket_cells += cpu.configs.size();
  }
  out.counts["attack.trials"] = trials;
  out.counts["core.basket_cells"] = basket_cells;
  out.ops = trials + basket_cells;
  return out;
}

RunOutput RunFig2(int jobs, uint64_t seed) {
  RunnerOptions runner;
  runner.jobs = jobs;
  runner.base_seed = Fig2BaseSeed(seed);
  const std::vector<AttributionReport> reports =
      RunFigure2LeBench(Fig2Sampler(), Fig2Cpus(), runner);
  RunOutput out;
  out.text = RenderAttributionCsv(reports) + RenderFigure2(reports);
  uint64_t samples = 0;
  for (const AttributionReport& report : reports) {
    samples += report.total_samples;
  }
  out.counts["stats.samples"] = samples;
  out.ops = samples;
  return out;
}

DifftestOptions DifftestInputs(int jobs, uint64_t seed) {
  DifftestOptions options;
  options.seed_begin = DifftestSeedBegin(seed);
  options.seed_end = options.seed_begin + kDifftestSeeds;
  options.jobs = jobs;
  options.shrink = false;
  return options;
}

RunOutput RunDiff(int jobs, uint64_t seed) {
  const DifftestReport report = RunDifftest(DifftestInputs(jobs, seed));
  RunOutput out;
  out.text = report.ToText();
  out.counts["difftest.executions"] = report.executions;
  out.counts["difftest.retired_instrs"] = report.retired_instructions;
  out.counts["difftest.divergences"] = report.divergences.size();
  out.ops = report.executions;
  return out;
}

// ---------------------------------------------------------------------------
// The serve workload: an in-process SweepService driven as a closed loop.

// Maps a request onto the difftest sweep grid, the way `spectrebench serve`
// does for the requests this benchmark sends.
bool BuildRequestGrid(const ServiceRequest& request, Sweep* out, std::string* error) {
  NamedGridOptions grid;
  grid.grids = request.grids;
  grid.cpus.clear();
  for (const std::string& name : request.cpus) {
    const CpuModel* model = TryGetCpuModelByName(name);
    if (model == nullptr) {
      *error = "unknown CPU model \"" + name + "\"";
      return false;
    }
    grid.cpus.push_back(model->uarch);
  }
  grid.seed_begin = request.seed_begin;
  grid.seed_end = request.seed_end;
  grid.fast = request.fast;
  if (!BuildNamedGrids(grid, out, error)) {
    return false;
  }
  if (!request.configs.empty()) {
    const std::vector<std::string> configs = request.configs;
    out->Retain([&configs](const SweepCellKey& key) {
      return std::find(configs.begin(), configs.end(), key.config) != configs.end();
    });
  }
  if (out->size() == 0) {
    *error = "cell selection matched nothing";
    return false;
  }
  return true;
}

// Small difftest batches (1 CPU x 1 config x a few seeds) drawn from --seed.
std::vector<ServiceRequest> ServeSpecs(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<Uarch> cpus = AllUarches();
  const std::vector<DiffConfig> configs = DefaultDiffConfigs();
  std::vector<ServiceRequest> specs;
  for (size_t i = 0; i < kServeSpecs; i++) {
    ServiceRequest request;
    request.grids = {"difftest"};
    request.cpus = {UarchName(cpus[rng() % cpus.size()])};
    request.configs = {configs[rng() % configs.size()].name};
    request.seed_begin = rng() % 100000;
    request.seed_end = request.seed_begin + kServeSeedsPerBatch;
    specs.push_back(request);
  }
  return specs;
}

// A fresh service on its own socket, serving from a background thread.
class ServiceHandle {
 public:
  ServiceHandle(const std::string& socket_path, Checks& checks)
      : service_(ServiceOptions{socket_path, kServePool, /*quiet=*/true}, BuildRequestGrid) {
    std::string error;
    started_ = service_.Start(&error);
    checks.Expect(started_, "serve: start failed: " + error);
    if (started_) {
      thread_ = std::thread([this] { service_.Serve(); });
    }
  }
  ~ServiceHandle() {
    if (started_) {
      service_.RequestShutdown();
      thread_.join();
    }
  }
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;

  bool started() const { return started_; }
  const std::string& socket_path() const { return service_.socket_path(); }

 private:
  SweepService service_;
  bool started_ = false;
  std::thread thread_;
};

bool Ping(const std::string& socket_path, Checks& checks) {
  std::string ok_line;
  std::vector<std::string> reply;
  std::string error;
  const bool ok = SubmitRequestLine(socket_path, "ping", &ok_line, &reply, &error) &&
                  ok_line == "pong";
  checks.Expect(ok, "serve: ping failed: " + error);
  return ok;
}

std::string NextSocketPath(const std::string& scratch) {
  static std::atomic<int> counter{0};
  return scratch + "/s" + std::to_string(getpid()) + "-" + std::to_string(counter++) + ".sock";
}

struct ServeReply {
  size_t spec = 0;
  bool ok = false;
  std::string error;
  std::vector<std::string> records;
};

struct ServeLoop {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;  // request order
  std::vector<ServeReply> replies;
};

// `requests` requests spread over `clients` closed-loop connections; each
// client sends its next request only after the previous reply is complete.
ServeLoop RunServeLoop(const std::string& socket_path, const std::vector<std::string>& lines,
                       size_t requests, int clients, Tracer* tracer, int64_t parent) {
  ServeLoop loop;
  loop.latency_ms.assign(requests, 0.0);
  loop.replies.assign(requests, ServeReply{});
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; c++) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < requests; i += static_cast<size_t>(clients)) {
        ServeReply& reply = loop.replies[i];
        reply.spec = i % lines.size();
        std::string ok_line;
        const int64_t span = tracer ? tracer->Open("service.request", parent,
                                                   static_cast<int64_t>(i))
                                    : -1;
        const int64_t start = NowNs();
        reply.ok = SubmitRequestLine(socket_path, lines[reply.spec], &ok_line, &reply.records,
                                     &reply.error);
        loop.latency_ms[i] = static_cast<double>(NowNs() - start) * 1e-6;
        if (tracer) {
          tracer->Close(span);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  loop.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  loop.cpu_s = CpuSeconds() - cpu0;
  return loop;
}

// The one-shot result each request must merge into: the same 1-cell grid
// run directly, as journal records.
std::vector<std::vector<std::string>> ServeExpected(const std::vector<ServiceRequest>& specs,
                                                    Checks& checks) {
  std::vector<std::vector<std::string>> expected;
  for (const ServiceRequest& request : specs) {
    Sweep sweep;
    std::string error;
    const bool ok = BuildRequestGrid(request, &sweep, &error);
    checks.Expect(ok, "serve: one-shot grid: " + error);
    std::vector<std::string> records;
    if (ok) {
      RunnerOptions runner;
      runner.jobs = 1;
      runner.base_seed = request.base_seed;
      const SweepResult result = sweep.Run(runner);
      for (size_t i = 0; i < result.cells.size(); i++) {
        records.push_back(SerializeCellRecord(i, result.cells[i]));
      }
    }
    expected.push_back(records);
  }
  return expected;
}

void CheckServeReplies(const std::vector<ServeReply>& replies,
                       const std::vector<std::vector<std::string>>& expected, Checks& checks) {
  for (const ServeReply& reply : replies) {
    std::vector<std::string> got = reply.records;
    std::sort(got.begin(), got.end());
    std::vector<std::string> want = expected[reply.spec];
    std::sort(want.begin(), want.end());
    checks.Expect(reply.ok && got == want,
                  reply.ok ? "serve: reply does not merge into the one-shot result"
                           : "serve: request failed: " + reply.error);
  }
}

std::vector<std::string> ServeLines(const std::vector<ServiceRequest>& specs) {
  std::vector<std::string> lines;
  for (const ServiceRequest& request : specs) {
    lines.push_back(SerializeServiceRequest(request));
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  bool setup_only = false;
  std::string golden = "tests/golden/pareto.json";
  std::string scratch = ".";
  // Worker threads of the timed run; in a traced run, P. Default P.
  int jobs = ParallelJobs();
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::char_traits<char>::length(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--jobs=")) {
      const long jobs = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || jobs < 1 || jobs > 64) return false;
      args->jobs = static_cast<int>(jobs);
    } else if (const char* v = value("--trace=")) {
      args->trace = std::string(v) == "1";
    } else if (const char* v = value("--golden=")) {
      args->golden = v;
    } else if (const char* v = value("--scratch=")) {
      args->scratch = v;
    } else if (arg == "--setup-only") {
      args->setup_only = true;
    } else {
      return false;
    }
  }
  return args->workload == "pareto" || args->workload == "fig2" ||
         args->workload == "difftest" || args->workload == "serve";
}

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The calling process's own speculation-control state: Docker's default
// seccomp profile can force SSBD on, which changes every host timing.
std::string SpeculationStatusJson() {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::string out = "{";
  bool first = true;
  while (std::getline(in, line)) {
    if (line.rfind("Speculation", 0) != 0 && line.rfind("Cpus_allowed_list", 0) != 0) {
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    out += (first ? "" : ", ") + JsonString(line.substr(0, colon)) + ": " + JsonString(value);
    first = false;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Set-up: everything a fresh CLI invocation does before its first timed
// operation. Touching the statics here keeps lazy initialisation out of the
// timed repetitions.

struct Setup {
  std::vector<ServiceRequest> serve_specs;
  std::unique_ptr<ServiceHandle> service;  // serve: bound and answering pings
  std::string golden;
};

Setup RunSetup(const Args& args, Checks& checks) {
  Setup setup;
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    (void)MitigationConfig::Defaults(cpu);
  }
  {
    ThreadPool pool(static_cast<size_t>(args.jobs));
    pool.Submit([] {});
    pool.Wait();
  }
  (void)TraceCache::Global();
  if (args.workload == "pareto") {
    bool ok = false;
    setup.golden = ReadFile(args.golden, &ok);
    checks.Expect(ok, "pareto: cannot read golden " + args.golden);
    (void)AttackSuite();
    (void)ParetoWorkloads();
    for (Uarch u : AllUarches()) {
      (void)MitigationConfigMatrix(GetCpuModel(u));
    }
  } else if (args.workload == "fig2") {
    GridOptions grid;
    grid.sampler = Fig2Sampler();
    grid.cpus = Fig2Cpus();
    checks.Expect(BuildFigure2Grid(grid).size() == grid.cpus.size(), "fig2: grid size");
    (void)LeBench::KernelNames();
  } else if (args.workload == "difftest") {
    (void)DefaultDiffConfigs();
    (void)GenerateProgram(DifftestSeedBegin(args.seed));
  } else {
    setup.serve_specs = ServeSpecs(args.seed);
    setup.service = std::make_unique<ServiceHandle>(NextSocketPath(args.scratch), checks);
    if (!setup.service->started() || !Ping(setup.service->socket_path(), checks)) {
      setup.service.reset();
    }
  }
  return setup;
}

// ---------------------------------------------------------------------------
// The untraced run: one timed run of the workload at --jobs, in a process of
// its own, so every run starts from the state a fresh CLI invocation sees.
// run.py repeats such processes at jobs=1 and jobs=P until --seconds is used.

struct PhaseResult {
  double wall_s = 0;
  double cpu_s = 0;
  RunOutput output;
  TraceCache::Stats cache;
};

PhaseResult TimedPhase(const std::function<RunOutput()>& run) {
  PhaseResult phase;
  ColdStart();
  OnFreshThread([&] {
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    phase.output = run();
    phase.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    phase.cpu_s = CpuSeconds() - cpu0;
  });
  phase.cache = TraceCache::Global().stats();
  return phase;
}

RunOutput RunBatchWorkload(const Args& args, int jobs) {
  if (args.workload == "pareto") {
    return RunPareto(jobs);
  }
  if (args.workload == "fig2") {
    return RunFig2(jobs, args.seed);
  }
  return RunDiff(jobs, args.seed);
}

std::string PhaseName(int jobs) { return jobs == 1 ? "jobs=1" : "jobs=P"; }

std::string OutputJson(const std::string& phase, const PhaseResult& result) {
  std::map<std::string, uint64_t> mechanism = {{"trace_cache.hits", result.cache.hits},
                                               {"trace_cache.misses", result.cache.misses}};
  // Sections that render no text are checked by their counts alone.
  const std::string digest =
      result.output.text.empty() ? "null" : JsonString(DigestHex(result.output.text));
  return "{\"phase\": " + JsonString(phase) + ", \"digest\": " + digest + ", \"counts\": " +
         CountsJson(result.output.counts) + ", \"mechanism\": " + CountsJson(mechanism) + "}";
}

std::string RunBatch(const Args& args, const Setup& setup, Checks& checks) {
  const PhaseResult phase = TimedPhase([&] { return RunBatchWorkload(args, args.jobs); });
  if (args.workload == "pareto") {
    checks.Expect(phase.output.text == setup.golden,
                  "pareto: JSON differs from tests/golden/pareto.json");
  }
  if (args.workload == "difftest") {
    checks.Expect(phase.output.counts.at("difftest.divergences") == 0,
                  "difftest: divergences reported");
  }
  return "\"wall_s\": " + JsonNumber(phase.wall_s) + ", \"cpu_s\": " + JsonNumber(phase.cpu_s) +
         ", \"ops\": " + std::to_string(phase.output.ops) + ", \"outputs\": [" +
         OutputJson(PhaseName(args.jobs), phase) + "]";
}

// The serve workload's timed loop on the service set-up started, with every
// reply checked against the one-shot result.
ServeLoop RunServeWorkload(const Setup& setup, int clients, Checks& checks) {
  const std::vector<std::vector<std::string>> expected = ServeExpected(setup.serve_specs, checks);
  ServeLoop loop;
  if (setup.service) {
    ColdStart();
    loop = RunServeLoop(setup.service->socket_path(), ServeLines(setup.serve_specs),
                        kServeRequestsPerPhase, clients, nullptr, -1);
  }
  CheckServeReplies(loop.replies, expected, checks);
  return loop;
}

// jobs=1 is one client connection, jobs=P the two-client closed loop.
std::string RunServe(const Args& args, const Setup& setup, Checks& checks) {
  const ServeLoop loop = RunServeWorkload(setup, args.jobs == 1 ? 1 : kServeClients, checks);
  std::string latencies;
  for (size_t i = 0; i < loop.latency_ms.size(); i++) {
    latencies += (i ? ", " : "") + JsonNumber(loop.latency_ms[i]);
  }
  return "\"wall_s\": " + JsonNumber(loop.wall_s) + ", \"cpu_s\": " + JsonNumber(loop.cpu_s) +
         ", \"ops\": " + std::to_string(loop.latency_ms.size()) + ", \"latency_ms\": [" +
         latencies + "], \"outputs\": []";
}

// ---------------------------------------------------------------------------
// The traced run: a ledger of every layer, timed around calls into its
// public functions. Every traced run measures every layer on the inputs its
// --seed selects; the workload named by --workload is also run untraced, so
// trace.overhead_s and trace.coverage compare like with like.

struct Ledger {
  Tracer tracer;
  std::string workload_span;  // the traced counterpart of the untraced run
  double untraced_wall_s = 0;
  std::vector<std::string> outputs;  // section output digests, as OutputJson writes them
};

void AddOutput(Ledger& ledger, const std::string& phase, const RunOutput& output) {
  PhaseResult result;
  result.output = output;
  result.cache = TraceCache::Global().stats();
  ledger.outputs.push_back(OutputJson(phase, result));
}

// Machine construction, reuse through a pool, detailed execution and the
// trace cache, on the difftest programs the seed selects.
void TraceUarch(const Args& args, Ledger& ledger) {
  Tracer& t = ledger.tracer;
  ScopedSpan section(t, "section.uarch", Tracer::kNoParent);
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const std::string slug = Slug(UarchName(u));
    for (int i = 0; i < kProbeReps; i++) {
      std::unique_ptr<Machine> machine;
      {
        ScopedSpan span(t, "uarch.construct/" + slug, section.id());
        machine = std::make_unique<Machine>(cpu);
      }
    }
    MachinePool pool;
    pool.Acquire(cpu);
    for (int i = 0; i < kProbeReps; i++) {
      ScopedSpan span(t, "uarch.reset/" + slug, section.id());
      pool.Acquire(cpu);
    }
  }

  std::vector<Program> programs;
  const uint64_t begin = DifftestSeedBegin(args.seed);
  for (uint64_t s = begin; s < begin + 50; s++) {
    programs.push_back(GenerateProgram(s));
  }
  ColdStart();
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    MachinePool pool;
    for (const Program& program : programs) {
      Machine& machine = pool.Acquire(cpu);
      machine.LoadProgram(&program);
      Machine::RunResult result;
      {
        ScopedSpan span(t, "uarch.run", section.id());
        result = machine.RunPartial(program.base_vaddr(), 1'000'000);
      }
      t.Count("uarch.run.retired", result.instructions);
    }
  }

  TraceCache& cache = TraceCache::Global();
  ColdStart();
  for (int pass = 0; pass < 2; pass++) {
    for (Uarch u : AllUarches()) {
      for (const Program& program : programs) {
        const uint64_t misses = cache.stats().misses;
        const int64_t start = NowNs();
        cache.Acquire(program, u);
        const int64_t end = NowNs();
        const bool missed = cache.stats().misses != misses;
        t.Add(missed ? "uarch.trace_cache.decode" : "uarch.trace_cache.hit", start, end,
              section.id(), pass);
      }
    }
  }
  ColdStart();
}

void TraceOsAndLeBench(Ledger& ledger) {
  Tracer& t = ledger.tracer;
  ScopedSpan section(t, "section.os", Tracer::kNoParent);
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const MitigationConfig config = MitigationConfig::Defaults(cpu);
    for (int i = 0; i < kProbeReps; i++) {
      std::unique_ptr<Kernel> kernel;
      {
        ScopedSpan span(t, "os.kernel_boot/" + Slug(UarchName(u)), section.id());
        kernel = std::make_unique<Kernel>(cpu, config);
      }
    }
    for (const std::string& name : LeBench::KernelNames()) {
      CycleAttribution attribution;
      {
        ScopedSpan span(t, "lebench.run_kernel", section.id());
        LeBench::RunKernel(name, cpu, config, /*seed=*/1, &attribution);
      }
      t.Count("lebench.calls", 1);
      t.Count("lebench.sim_cycles", attribution.totals().total_cycles);
    }
  }
}

void TraceFig2(const Args& args, Ledger& ledger, Checks& checks) {
  Tracer& t = ledger.tracer;
  ColdStart();
  GridOptions grid;
  grid.sampler = Fig2Sampler();
  grid.cpus = Fig2Cpus();
  const Sweep sweep = BuildFigure2Grid(grid);
  RunnerOptions runner;
  runner.jobs = args.jobs;
  runner.base_seed = Fig2BaseSeed(args.seed);
  SweepResult result;
  {
    ScopedSpan span(t, "fig2.sweep", Tracer::kNoParent);
    runner.on_cell_done = [&t, &span](size_t index, const SweepCellResult& cell) {
      const int64_t end = NowNs();
      t.Add("fig2.cell/" + Slug(cell.key.cpu), end - static_cast<int64_t>(cell.wall_ms * 1e6),
            end, span.id(), static_cast<int64_t>(index));
    };
    result = sweep.Run(runner);
  }
  const std::vector<AttributionReport> reports = AttributionReportsFromSweep(result);
  RunOutput output;
  output.text = RenderAttributionCsv(reports) + RenderFigure2(reports);
  for (const AttributionReport& report : reports) {
    output.counts["stats.samples"] += report.total_samples;
  }
  t.Count("stats.samples", output.counts["stats.samples"]);
  AddOutput(ledger, "traced.fig2", output);
  checks.Expect(reports.size() == grid.cpus.size(), "fig2: traced sweep lost cells");
}

void TracePareto(Ledger& ledger, Checks& checks) {
  Tracer& t = ledger.tracer;
  // The layer call itself.
  SuiteResult suite;
  ColdStart();
  {
    SuiteOptions options;
    options.jobs = 1;
    ScopedSpan span(t, "attack.suite", Tracer::kNoParent);
    suite = RunSuite(options);
  }
  // The whole, for the join remainder.
  ColdStart();
  {
    RunOutput whole;
    {
      ScopedSpan span(t, "pareto.build", Tracer::kNoParent);
      whole = RunPareto(1);
    }
    AddOutput(ledger, "traced.pareto", whole);
  }
  // The suite and the basket again, call by call, as BuildParetoReport
  // makes them.
  ColdStart();
  ScopedSpan traced(t, "pareto.traced", Tracer::kNoParent);
  uint64_t trials = 0;
  {
    ScopedSpan replica(t, "attack.suite_replica", traced.id());
    SuiteOptions options;
    size_t slot = 0;
    for (Uarch u : options.cpus) {
      const CpuModel& cpu = GetCpuModel(u);
      for (const NamedConfig& named : MitigationConfigMatrix(cpu)) {
        for (const AttackSpec& spec : AttackSuite()) {
          const SuiteCell& want = suite.cells[slot++];
          if (!spec.vulnerable(cpu)) {
            continue;
          }
          const uint64_t cell_seed = CellSeed(options.base_seed, UarchName(u), named.name,
                                              "attack:" + spec.name);
          int leaks = 0;
          for (int trial = 0; trial < options.trials; trial++) {
            AttackResult r;
            {
              ScopedSpan span(t, "attack.trial/" + spec.name, replica.id(),
                              static_cast<int64_t>(slot));
              r = spec.run(cpu, named.config, TrialSecret(spec, cell_seed, trial),
                           TrialSalt(cell_seed, trial));
            }
            leaks += (r.attempted && r.leaked) ? 1 : 0;
            trials++;
          }
          checks.Expect(leaks == want.leaks, "pareto: traced suite cell " + want.cpu + "/" +
                                                 want.config + "/" + want.attack + " differs");
        }
      }
    }
  }
  t.Count("attack.trials", trials);
  {
    ScopedSpan basket(t, "core.basket", traced.id());
    int64_t cell = 0;
    for (Uarch u : AllUarches()) {
      const CpuModel& cpu = GetCpuModel(u);
      for (const NamedConfig& named : MitigationConfigMatrix(cpu)) {
        ScopedSpan span(t, "core.basket.cell", basket.id(), cell++);
        for (const std::string& workload : ParetoWorkloads()) {
          const size_t colon = workload.find(':');
          const std::string suite_name = workload.substr(0, colon);
          const std::string kernel = workload.substr(colon + 1);
          if (suite_name == "lebench") {
            MeasureLeBenchCounters(cpu, named.config, kernel);
          } else if (suite_name == "octane") {
            MeasureOctaneCounters(cpu, JitConfig::AllOn(), named.config, kernel);
          } else {
            Parsec::RunKernel(kernel, cpu, named.config, /*seed=*/1);
          }
        }
      }
    }
  }
}

void TraceDifftest(const Args& args, Ledger& ledger, Checks& checks) {
  Tracer& t = ledger.tracer;
  const DifftestOptions options = DifftestInputs(1, args.seed);
  ColdStart();
  uint64_t executions = 0;
  uint64_t retired = 0;
  uint64_t divergences = 0;
  const std::vector<DiffConfig> configs = DefaultDiffConfigs();
  OnFreshThread([&] {
    ScopedSpan traced(t, "difftest.traced", Tracer::kNoParent);
    for (uint64_t seed = options.seed_begin; seed < options.seed_end; seed++) {
      const int64_t group = static_cast<int64_t>(seed);
      ScopedSpan per_seed(t, "difftest.seed", traced.id(), group);
      Program program;
      {
        ScopedSpan span(t, "difftest.generate", per_seed.id(), group);
        program = GenerateProgram(seed, options.generator);
      }
      ReferenceResult reference;
      {
        ScopedSpan span(t, "difftest.reference", per_seed.id(), group);
        reference = RunReference(program, options.max_instructions);
      }
      if (!reference.ok) {
        divergences++;
        continue;
      }
      for (Uarch u : AllUarches()) {
        const CpuModel& cpu = GetCpuModel(u);
        for (const DiffConfig& config : configs) {
          ArchState state;
          {
            ScopedSpan span(t, "difftest.cell", per_seed.id(), group);
            state = RunMachineArch(program, cpu, config, options.max_instructions);
          }
          executions++;
          retired += state.retired;
          divergences += (state == reference.state) ? 0 : 1;
        }
      }
    }
  });
  t.Count("difftest.executions", executions);
  t.Count("difftest.retired_instrs", retired);
  RunOutput output;
  output.counts["difftest.executions"] = executions;
  output.counts["difftest.retired_instrs"] = retired;
  output.counts["difftest.divergences"] = divergences;
  AddOutput(ledger, "traced.difftest", output);
  checks.Expect(divergences == 0, "difftest: traced replica diverged");
}

void TraceRunnerAndService(const Args& args, Ledger& ledger, Checks& checks) {
  Tracer& t = ledger.tracer;
  {
    Sweep noop;
    constexpr size_t kNoopCells = 2000;
    for (size_t i = 0; i < kNoopCells; i++) {
      noop.Add(SweepCellKey{"cpu", "config", "noop-" + std::to_string(i)},
               [](uint64_t) { return CellOutput{}; });
    }
    RunnerOptions runner;
    runner.jobs = args.jobs;
    ScopedSpan span(t, "runner.noop_sweep", Tracer::kNoParent);
    noop.Run(runner);
    t.Count("runner.noop_cells", kNoopCells);
  }

  const std::vector<ServiceRequest> specs = ServeSpecs(args.seed);
  const std::vector<std::string> lines = ServeLines(specs);
  const std::vector<std::vector<std::string>> expected = ServeExpected(specs, checks);
  ServiceHandle service(NextSocketPath(args.scratch), checks);
  if (!service.started()) {
    return;
  }
  for (int i = 0; i < 20 * kProbeReps; i++) {
    ScopedSpan span(t, "service.ping", Tracer::kNoParent, i);
    Ping(service.socket_path(), checks);
  }
  ColdStart();
  ServeLoop loop;
  {
    ScopedSpan traced(t, "serve.traced", Tracer::kNoParent);
    loop = RunServeLoop(service.socket_path(), lines, kServeRequestsPerPhase, kServeClients, &t,
                        traced.id());
  }
  CheckServeReplies(loop.replies, expected, checks);
  for (const ServeReply& reply : loop.replies) {
    for (const std::string& line : reply.records) {
      size_t index = 0;
      SweepCellResult cell;
      std::string error;
      bool same = false;
      {
        ScopedSpan span(t, "runner.journal", Tracer::kNoParent);
        same = ParseCellRecord(line, &index, &cell, &error) &&
               SerializeCellRecord(index, cell) == line;
      }
      checks.Expect(same, "serve: journal record does not round-trip: " + error);
    }
  }
  // The service's own cost: one request at a time, against the same 1-cell
  // grid run directly, interleaved so both see the same machine.
  for (int rep = 0; rep < 3; rep++) {
    for (size_t i = 0; i < specs.size(); i++) {
      {
        std::string ok_line;
        std::vector<std::string> records;
        std::string error;
        ScopedSpan span(t, "service.solo", Tracer::kNoParent);
        SubmitRequestLine(service.socket_path(), lines[i], &ok_line, &records, &error);
      }
      Sweep sweep;
      std::string error;
      BuildRequestGrid(specs[i], &sweep, &error);
      RunnerOptions runner;
      runner.jobs = 1;
      runner.base_seed = specs[i].base_seed;
      ScopedSpan span(t, "service.direct", Tracer::kNoParent);
      sweep.Run(runner);
    }
  }
}

// The named workload untraced, first, from the state a fresh process sees:
// the reference for trace.overhead_s and trace.coverage, and the source of
// the workload's own trace-cache counts. It runs at the job count of its
// traced counterpart: jobs=1 for pareto and difftest (call-by-call
// replicas), jobs=P for fig2 (the sweep) and two clients for serve.
void RunUntracedReference(const Args& args, const Setup& setup, Ledger& ledger,
                          Checks& checks) {
  PhaseResult phase;
  if (args.workload == "serve") {
    phase.wall_s = RunServeWorkload(setup, kServeClients, checks).wall_s;
    phase.cache = TraceCache::Global().stats();
  } else {
    const int jobs = args.workload == "fig2" ? args.jobs : 1;
    phase = TimedPhase([&] { return RunBatchWorkload(args, jobs); });
    if (args.workload == "pareto") {
      checks.Expect(phase.output.text == setup.golden,
                    "pareto: JSON differs from tests/golden/pareto.json");
    }
    ledger.outputs.push_back(OutputJson("untraced", phase));
  }
  ledger.untraced_wall_s = phase.wall_s;
  ledger.tracer.Count("trace_cache.hits", phase.cache.hits);
  ledger.tracer.Count("trace_cache.misses", phase.cache.misses);
}

std::string RunTraced(const Args& args, const Setup& setup, Checks& checks) {
  const std::map<std::string, std::string> workload_spans = {
      {"pareto", "pareto.traced"},
      {"fig2", "fig2.sweep"},
      {"difftest", "difftest.traced"},
      {"serve", "serve.traced"}};
  Ledger ledger;
  ledger.workload_span = workload_spans.at(args.workload);
  RunUntracedReference(args, setup, ledger, checks);
  TraceUarch(args, ledger);
  TraceOsAndLeBench(ledger);
  TraceFig2(args, ledger, checks);
  TracePareto(ledger, checks);
  TraceDifftest(args, ledger, checks);
  TraceRunnerAndService(args, ledger, checks);
  return "\"trace\": {\"workload_span\": " + JsonString(ledger.workload_span) +
         ", \"untraced_wall_s\": " + JsonNumber(ledger.untraced_wall_s) + ", " +
         ledger.tracer.ToJson() + "}, \"outputs\": [" + Join(ledger.outputs) + "]";
}

int Main(int argc, char** argv) {
  const double cpu_at_start = ProcessCpuSeconds();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=pareto|fig2|difftest|serve --seed=N "
                 "[--jobs=N] [--trace=0|1] [--golden=PATH] [--scratch=DIR] [--setup-only]\n");
    return 2;
  }
  Checks checks;
  const Setup setup = RunSetup(args, checks);
  // CPU time (all threads), not wall time: on a loaded host the wall time of
  // a sub-millisecond set-up mostly measures how long the scheduler takes to
  // start the worker threads, while work moved into set-up shows in CPU time.
  const double setup_s = ProcessCpuSeconds() - cpu_at_start;

  std::string body;
  if (!args.setup_only) {
    if (args.trace) {
      body = RunTraced(args, setup, checks);
    } else if (args.workload == "serve") {
      body = RunServe(args, setup, checks);
    } else {
      body = RunBatch(args, setup, checks);
    }
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"variant\": %" PRIu64
      ", \"jobs\": %d, \"build_type\": %s, \"start_state\": %s, \"setup_s\": %s, "
      "\"peak_rss_kb\": %ld, \"speculation\": %s, \"checks\": %s%s%s}\n",
      JsonString(args.workload).c_str(), args.seed, Variant(args.seed), args.jobs,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(kStartState).c_str(),
      JsonNumber(setup_s).c_str(), PeakRssKb(), SpeculationStatusJson().c_str(),
      checks.ToJson().c_str(), body.empty() ? "" : ", ", body.c_str());
  return 0;
}

}  // namespace
}  // namespace specbench

int main(int argc, char** argv) { return specbench::Main(argc, argv); }
