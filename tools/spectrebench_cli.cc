// spectrebench command-line interface: run any of the paper's experiments
// (or the ground-truth attack suite) by name, with CPU filtering.
//
//   spectrebench list                 every command and the flags it takes
//   spectrebench <command> [--flag=value ...]
//
// Each command is one entry of Commands() (name, flags, usage, handler) and
// each flag one entry of Flags(); `list` prints the usage generated from them.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/difftest/corpus.h"
#include "src/difftest/difftest.h"
#include "src/difftest/equivalence.h"
#include "src/difftest/generator.h"
#include "src/analysis/crossval.h"
#include "src/analysis/detectors.h"
#include "src/analysis/passes.h"
#include "src/analysis/report.h"
#include "src/attack/suite.h"
#include "src/core/counters.h"
#include "src/core/experiments.h"
#include "src/core/pareto.h"
#include "src/core/scorecard.h"
#include "src/core/sweep_grids.h"
#include "src/runner/checkpoint.h"
#include "src/runner/parse.h"
#include "src/runner/service.h"
#include "src/runner/shard.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"
#include "src/workload/lebench.h"
#include "src/workload/octane.h"

using namespace specbench;

namespace {

struct CliOptions {
  bool json = false;
  bool csv = false;
  bool quiet = false;           // suppress sweep progress lines on stderr
  int jobs = 0;                 // 0 = all cores (ThreadCountForJobs)
  int trials = 5;               // pareto: attack-suite repeats per cell
  uint64_t seed = 1;
  std::vector<Uarch> cpus = AllUarches();
  std::vector<std::string> grids = {"fig2", "fig3", "sec45"};
  std::vector<std::string> workloads;  // not given = all
  std::vector<std::string> configs;    // not given = all
  std::vector<std::string> boot_params;  // Linux-style tokens for `counters`
  // difftest options.
  uint64_t seed_begin = 0;             // --seeds=A:B (B exclusive)
  uint64_t seed_end = 100;
  bool seeds_given = false;            // harden: --seeds selects fuzz mode
  bool cpus_given = false;             // --cpus appeared on the command line
  std::vector<std::string> passes;     // harden: --passes=a,b (not given = all)
  uint64_t inject_alu_fault = 0;       // oracle self-check: corrupt nth ALU op
  std::string corpus_out;              // directory for shrunk reproducers
  std::string replay;                  // corpus file to replay instead
  bool arch_hashes = false;            // replay: print arch end-state hashes
  // Sharded / checkpointed sweep options.
  ShardSpec shard;                     // sweep/submit: slice of the grid
  std::string checkpoint;              // sweep: journal file; submit: output
  bool resume = false;                 // sweep: reload journal, run the rest
  std::vector<std::string> inputs;     // merge: shard journals to combine
  std::string socket_path;             // serve/submit: unix socket path
  bool ping = false;                   // submit: liveness probe only
  bool send_shutdown = false;          // submit: stop the server
};

// Strict --seeds=A:B parser: both endpoints must be decimal numbers with no
// trailing garbage and the range must be non-empty (B > A; B exclusive).
// Reversed, empty and non-numeric ranges are command-line errors, not
// silently-empty work lists.
bool ParseSeedRange(const std::string& value, uint64_t* begin, uint64_t* end,
                    std::string* error) {
  const size_t colon = value.find(':');
  if (colon == std::string::npos) {
    *error = "want A:B (B exclusive)";
    return false;
  }
  const std::string a = value.substr(0, colon);
  const std::string b = value.substr(colon + 1);
  if (!ParseU64Strict(a, begin)) {
    *error = "\"" + a + "\" is not a decimal seed";
    return false;
  }
  if (!ParseU64Strict(b, end)) {
    *error = "\"" + b + "\" is not a decimal seed";
    return false;
  }
  if (*end <= *begin) {
    *error = "empty range (B must be greater than A)";
    return false;
  }
  return true;
}

bool Contains(const std::vector<std::string>& haystack, const std::string& needle) {
  for (const std::string& item : haystack) {
    if (item == needle) {
      return true;
    }
  }
  return false;
}

RunnerOptions RunnerFor(const CliOptions& options) {
  RunnerOptions runner;
  runner.jobs = options.jobs;
  return runner;
}

std::vector<Uarch> ParseCpuList(const std::string& list) {
  std::vector<Uarch> cpus;
  for (const std::string& name : SplitList(list)) {
    const CpuModel* model = TryGetCpuModelByName(name);
    if (model == nullptr) {
      std::fprintf(stderr, "unknown CPU model: \"%s\"\nvalid names:\n", name.c_str());
      for (Uarch u : AllUarches()) {
        std::fprintf(stderr, "  %s\n", UarchName(u));
      }
      std::exit(2);
    }
    if (std::find(cpus.begin(), cpus.end(), model->uarch) != cpus.end()) {
      std::fprintf(stderr, "repeated CPU model: \"%s\"\n", name.c_str());
      std::exit(2);
    }
    cpus.push_back(model->uarch);
  }
  if (cpus.empty()) {
    std::fprintf(stderr, "--cpus= needs at least one name; valid names:\n");
    for (Uarch u : AllUarches()) {
      std::fprintf(stderr, "  %s\n", UarchName(u));
    }
    std::exit(2);
  }
  return cpus;
}

// Arch-hash digest lines for one corpus program across every CPU x difftest
// config. The byte format is the refactor-guard contract: CI compares this
// output against tests/golden/corpus_trace_hashes.txt, so any change to
// retired traces, registers, or memory is caught even when the oracle still
// agrees with itself. Keep in sync with tests/golden/corpus_trace_hashes.txt
// (regenerate the golden deliberately when the ISA itself changes).
uint64_t RegDigest(const ArchState& state) {
  uint64_t hash = kArchHashBasis;
  for (uint64_t reg : state.regs) {
    hash = FoldWord(hash, reg);
  }
  for (uint64_t reg : state.fpregs) {
    hash = FoldWord(hash, reg);
  }
  return hash;
}

void EmitArchHashes(const Program& program, const std::vector<Uarch>& cpus,
                    const std::vector<DiffConfig>& configs) {
  std::printf("# spectrebench arch-hashes v1\n");
  for (Uarch u : cpus) {
    MachineLease lease(GetCpuModel(u));
    Machine& machine = *lease;
    for (const DiffConfig& config : configs) {
      const ArchState state = RunMachineArch(machine, program, config, 1'000'000);
      std::printf(
          "cpu=%s config=%s retired=%llu trace=0x%016llx regs=0x%016llx "
          "mem=0x%016llx halted=%d\n",
          CpuSlug(UarchName(u)).c_str(), config.name.c_str(),
          static_cast<unsigned long long>(state.retired),
          static_cast<unsigned long long>(state.trace_hash),
          static_cast<unsigned long long>(RegDigest(state)),
          static_cast<unsigned long long>(state.memory_digest),
          state.halted ? 1 : 0);
    }
  }
}

// Builds the grid a sweep/serve request names, with workload/config filters
// applied. Shared between `sweep` and the serve-mode GridFactory so a
// service batch is cell-for-cell the grid the one-shot command would run.
bool BuildFilteredSweep(const std::vector<std::string>& grids, const std::vector<Uarch>& cpus,
                        uint64_t seed_begin, uint64_t seed_end,
                        const std::vector<std::string>& workloads,
                        const std::vector<std::string>& configs, Sweep* out, std::string* error) {
  NamedGridOptions grid;
  grid.grids = grids;
  grid.cpus = cpus;
  grid.seed_begin = seed_begin;
  grid.seed_end = seed_end;
  if (!BuildNamedGrids(grid, out, error)) {
    return false;
  }
  if (!workloads.empty()) {
    out->Retain([&](const SweepCellKey& key) { return Contains(workloads, key.workload); });
  }
  if (!configs.empty()) {
    out->Retain([&](const SweepCellKey& key) { return Contains(configs, key.config); });
  }
  if (out->size() == 0) {
    *error = "cell selection matched nothing";
    return false;
  }
  return true;
}

// Deterministic parallel sweep over the registered experiment grids. The
// JSON/CSV on stdout is byte-identical for any --jobs value; progress and
// per-cell wall times go to stderr. With --checkpoint the run journals
// every completed cell (crash-safe, resumable with --resume); with
// --shard=i/N it executes only its slice, and stdout output is deferred to
// `spectrebench merge` unless this run completes the whole grid.
int RunSweep(const CliOptions& options) {
  if (!options.shard.IsFullGrid() && options.checkpoint.empty()) {
    std::fprintf(stderr, "sweep: --shard requires --checkpoint (the shard's results have to "
                         "land somewhere a merge can read)\n");
    return 2;
  }
  if (options.resume && options.checkpoint.empty()) {
    std::fprintf(stderr, "sweep: --resume requires --checkpoint\n");
    return 2;
  }

  Sweep sweep;
  std::string error;
  if (!BuildFilteredSweep(options.grids, options.cpus, options.seed_begin, options.seed_end,
                          options.workloads, options.configs, &sweep, &error)) {
    std::fprintf(stderr, "sweep: %s\n", error.c_str());
    return 2;
  }

  const JournalHeader header{options.seed, sweep.GridDigest(), sweep.size()};
  CheckpointWriter writer;
  CheckpointData loaded;
  std::vector<bool> have(sweep.size(), false);
  if (!options.checkpoint.empty()) {
    if (options.resume) {
      if (!LoadCheckpoint(options.checkpoint, &loaded, &error)) {
        std::fprintf(stderr, "sweep: %s\n", error.c_str());
        return 2;
      }
      if (!writer.OpenForResume(options.checkpoint, header, loaded, &error)) {
        std::fprintf(stderr, "sweep: %s\n", error.c_str());
        return 2;
      }
      for (const auto& [index, cell] : loaded.cells) {
        have[index] = true;
      }
      if (!options.quiet) {
        std::fprintf(stderr, "sweep: resuming %s (%zu of %zu cells already done%s)\n",
                     options.checkpoint.c_str(), loaded.cells.size(), sweep.size(),
                     loaded.truncated_tail ? ", torn tail record discarded" : "");
      }
    } else if (!writer.Create(options.checkpoint, header, &error)) {
      std::fprintf(stderr, "sweep: %s\n", error.c_str());
      return 2;
    }
  }

  RunnerOptions runner = RunnerFor(options);
  runner.base_seed = options.seed;
  runner.progress = !options.quiet;
  const ShardSpec shard = options.shard;
  if (!shard.IsFullGrid() || options.resume) {
    runner.should_run = [&have, shard](size_t i) { return shard.Owns(i) && !have[i]; };
  }
  bool journal_ok = true;
  if (writer.is_open()) {
    runner.on_cell_done = [&writer, &journal_ok](size_t index, const SweepCellResult& cell) {
      if (!writer.Append(index, cell)) {
        journal_ok = false;
      }
    };
  }
  if (!options.quiet) {
    std::fprintf(stderr, "sweep: %zu cells, jobs=%s, seed=%llu\n", sweep.size(),
                 options.jobs <= 0 ? "auto" : std::to_string(options.jobs).c_str(),
                 static_cast<unsigned long long>(options.seed));
  }
  SweepResult result = sweep.Run(runner);
  writer.Close();
  if (!journal_ok) {
    std::fprintf(stderr, "sweep: failed to append to %s (disk full?)\n",
                 options.checkpoint.c_str());
    return 1;
  }
  if (options.resume && !OverlayCheckpoint(loaded, &result, &error)) {
    std::fprintf(stderr, "sweep: %s\n", error.c_str());
    return 2;
  }

  // A sharded run only produced its slice: the full-grid output comes from
  // `spectrebench merge` over all shard journals, so emitting a JSON/CSV
  // with holes here would just be a trap.
  bool complete = true;
  for (size_t i = 0; i < sweep.size(); i++) {
    if (!have[i] && !shard.Owns(i)) {
      complete = false;
      break;
    }
  }
  if (!complete) {
    size_t journaled = loaded.cells.size();
    for (size_t i = 0; i < sweep.size(); i++) {
      if (shard.Owns(i) && !have[i]) {
        journaled++;
      }
    }
    std::fprintf(stderr,
                 "sweep: shard %u/%u checkpointed %zu of %zu cells to %s; run "
                 "`spectrebench merge --inputs=...` over all shard journals for the "
                 "full-grid output\n",
                 shard.index, shard.count, journaled, sweep.size(), options.checkpoint.c_str());
    return 0;
  }
  std::printf("%s", options.csv ? result.ToCsv().c_str() : result.ToJson().c_str());

  if (!options.quiet) {
    std::fprintf(stderr, "sweep: done, %.1f ms of cell work\n", result.total_wall_ms());
  }
  return 0;
}

// Combines N shard journals into the full-grid output, byte-identical to
// the one-shot `sweep --jobs=1` run (the cross-process determinism
// contract: same seeds, bit-exact doubles, registration-order emit).
int RunMerge(const CliOptions& options) {
  if (options.inputs.empty()) {
    std::fprintf(stderr, "merge: --inputs=a.journal,b.journal,... is required\n");
    return 2;
  }
  SweepResult result;
  std::string error;
  if (!MergeCheckpoints(options.inputs, &result, &error)) {
    std::fprintf(stderr, "merge: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s", options.csv ? result.ToCsv().c_str() : result.ToJson().c_str());
  return 0;
}

// Long-running sweep service on a Unix socket: all client batches share one
// thread pool (see src/runner/service.h for the wire protocol).
int RunServe(const CliOptions& options) {
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "serve: --socket=PATH is required\n");
    return 2;
  }
  ServiceOptions service_options;
  service_options.socket_path = options.socket_path;
  service_options.jobs = options.jobs;
  service_options.quiet = options.quiet;
  const GridFactory factory = [](const ServiceRequest& request, Sweep* out, std::string* error) {
    std::vector<Uarch> cpus;
    if (request.cpus.empty()) {
      cpus = AllUarches();
    } else {
      for (const std::string& name : request.cpus) {
        const CpuModel* model = TryGetCpuModelByName(name);
        if (model == nullptr) {
          *error = "unknown CPU model \"" + name + "\"";
          return false;
        }
        cpus.push_back(model->uarch);
      }
    }
    if (request.seed_end <= request.seed_begin) {
      *error = "empty difftest seed range";
      return false;
    }
    return BuildFilteredSweep(request.grids, cpus, request.seed_begin, request.seed_end,
                              request.workloads, request.configs, out, error);
  };
  SweepService service(std::move(service_options), factory);
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 2;
  }
  service.Serve();
  return 0;
}

// Service client: submits one batch and writes the streamed records back
// out as a journal (sorted by cell index, so the bytes are deterministic),
// ready for `spectrebench merge`.
int RunSubmit(const CliOptions& options) {
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "submit: --socket=PATH is required\n");
    return 2;
  }
  std::string ok_line;
  std::vector<std::string> reply;
  std::string error;
  if (options.ping || options.send_shutdown) {
    const std::string command = options.ping ? "ping" : "shutdown";
    if (!SubmitRequestLine(options.socket_path, command, &ok_line, &reply, &error)) {
      std::fprintf(stderr, "submit: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", ok_line.c_str());
    return 0;
  }

  ServiceRequest request;
  request.grids = options.grids;
  if (options.cpus_given) {
    for (Uarch u : options.cpus) {
      request.cpus.push_back(UarchName(u));
    }
  }
  request.workloads = options.workloads;
  request.configs = options.configs;
  request.base_seed = options.seed;
  request.seed_begin = options.seed_begin;
  request.seed_end = options.seed_end;
  request.shard = options.shard;
  if (!SubmitRequestLine(options.socket_path, SerializeServiceRequest(request), &ok_line, &reply,
                         &error)) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 1;
  }

  // The ok line carries the journal-header fields; the cell lines arrive in
  // completion order and are re-sorted by index for byte-stable output.
  unsigned long long cells = 0, base_seed = 0, grid = 0, total = 0;
  if (std::sscanf(ok_line.c_str(), "ok cells=%llu base_seed=%llu grid=%16llx total=%llu", &cells,
                  &base_seed, &grid, &total) != 4) {
    std::fprintf(stderr, "submit: malformed ok line \"%s\"\n", ok_line.c_str());
    return 1;
  }
  std::vector<std::pair<size_t, std::string>> records;
  records.reserve(reply.size());
  for (const std::string& line : reply) {
    size_t index = 0;
    SweepCellResult cell;
    if (!ParseCellRecord(line, &index, &cell, &error)) {
      std::fprintf(stderr, "submit: bad cell record from server: %s\n", error.c_str());
      return 1;
    }
    records.emplace_back(index, line);
  }
  std::sort(records.begin(), records.end());
  const JournalHeader header{base_seed, grid, total};
  std::string journal = SerializeJournalHeader(header) + "\n";
  for (const auto& [index, line] : records) {
    journal += line + "\n";
  }
  if (options.checkpoint.empty()) {
    std::printf("%s", journal.c_str());
  } else {
    std::ofstream out(options.checkpoint, std::ios::binary | std::ios::trunc);
    if (!out || !(out << journal) || !out.flush()) {
      std::fprintf(stderr, "submit: cannot write %s\n", options.checkpoint.c_str());
      return 1;
    }
    std::fprintf(stderr, "submit: wrote %zu records to %s\n", records.size(),
                 options.checkpoint.c_str());
  }
  return 0;
}

// Differential-execution oracle: reference interpreter vs the machine under
// every CPU model x mitigation config. Exit 0 iff no divergence.
int RunDifftestCommand(const CliOptions& options) {
  DifftestOptions opts;
  opts.seed_begin = options.seed_begin;
  opts.seed_end = options.seed_end;
  opts.cpus = options.cpus;
  opts.jobs = options.jobs;
  opts.inject_alu_fault_after = options.inject_alu_fault;
  for (const std::string& name : options.configs) {
    DiffConfig config;
    if (!TryGetDiffConfigByName(name, &config)) {
      std::fprintf(stderr, "unknown difftest config: \"%s\"\nvalid names:\n", name.c_str());
      for (const DiffConfig& c : DefaultDiffConfigs()) {
        std::fprintf(stderr, "  %s\n", c.name.c_str());
      }
      return 2;
    }
    opts.configs.push_back(config);
  }

  // Replay mode: run one corpus reproducer instead of generating programs.
  if (!options.replay.empty()) {
    std::ifstream in(options.replay);
    if (!in) {
      std::fprintf(stderr, "difftest: cannot read %s\n", options.replay.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Program program;
    std::string error;
    if (!ParseCorpusProgram(text.str(), &program, &error)) {
      std::fprintf(stderr, "difftest: %s: %s\n", options.replay.c_str(), error.c_str());
      return 2;
    }
    if (options.arch_hashes) {
      EmitArchHashes(program, opts.cpus,
                     opts.configs.empty() ? DefaultDiffConfigs() : opts.configs);
      return 0;
    }
    const ReferenceResult ref = RunReference(program);
    if (!ref.ok) {
      std::printf("reference: %s\n", ref.error.c_str());
      return 1;
    }
    const std::vector<DiffConfig> configs =
        opts.configs.empty() ? DefaultDiffConfigs() : opts.configs;
    int divergences = 0;
    for (Uarch u : opts.cpus) {
      MachineLease lease(GetCpuModel(u));
      Machine& machine = *lease;
      for (const DiffConfig& config : configs) {
        const ArchState got = RunMachineArch(machine, program, config, 1'000'000,
                                             opts.inject_alu_fault_after, &ref);
        if (!(got == ref.state)) {
          std::printf("DIVERGENCE cpu=%s config=%s: %s\n", UarchName(u), config.name.c_str(),
                      DescribeArchDivergence(ref.state, got).c_str());
          divergences++;
        }
      }
    }
    std::printf("replay %s: %d divergences\n", options.replay.c_str(), divergences);
    return divergences == 0 ? 0 : 1;
  }

  const DifftestReport report = RunDifftest(opts);
  std::printf("%s", report.ToText().c_str());
  if (!options.corpus_out.empty()) {
    for (const Divergence& d : report.divergences) {
      if (d.shrunk.size() == 0) {
        continue;
      }
      std::ostringstream path;
      path << options.corpus_out << "/seed-" << d.seed << "-" << CpuSlug(d.cpu) << "-"
           << d.config << ".difftest";
      std::ostringstream comment;
      comment << "seed=" << d.seed << " cpu=" << d.cpu << " config=" << d.config << "\n"
              << d.detail << "\n"
              << "repro: " << d.repro;
      std::ofstream out(path.str());
      if (!out || !(out << SerializeCorpusProgram(d.shrunk, comment.str())) || !out.flush()) {
        std::fprintf(stderr, "difftest: cannot write %s\n", path.str().c_str());
        return 2;
      }
      std::fprintf(stderr, "difftest: wrote %s\n", path.str().c_str());
    }
  }
  return report.ok() ? 0 : 1;
}

// Per-mitigation cycle counters from the cycle accountant: one run per
// (cpu, workload) under the boot-param-adjusted default configuration,
// byte-stable JSON on stdout (golden-tested; no timing-environment fields).
// A boot parameter that is not applied on some CPU exits 2 with no stdout.
int RunCounters(const CliOptions& options) {
  const std::vector<std::string> workloads =
      options.workloads.empty()
          ? std::vector<std::string>{"lebench:getpid", "lebench:context-switch",
                                     "octane:richards"}
          : options.workloads;

  std::vector<CounterBreakdown> rows;
  bool bad_boot_param = false;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig config = MitigationConfig::Defaults(cpu);
    for (const std::string& token : options.boot_params) {
      if (!ApplyBootParam(&config, cpu, token)) {
        // ApplyBootParam returns false for tokens it does not recognize (or
        // that this CPU cannot honour, e.g. spectre_v2=ibrs on Zen 1);
        // surface that instead of silently measuring the wrong config.
        std::fprintf(stderr,
                     "counters: boot parameter \"%s\" not applied on %s "
                     "(unrecognized or unsupported)\n",
                     token.c_str(), UarchName(u));
        bad_boot_param = true;
      }
    }
    if (bad_boot_param) {
      continue;  // exit 2 below: no point measuring
    }
    for (const std::string& workload : workloads) {
      const size_t colon = workload.find(':');
      const std::string suite = workload.substr(0, colon);
      const std::string kernel =
          colon == std::string::npos ? std::string() : workload.substr(colon + 1);
      if (suite == "lebench" && Contains(LeBench::KernelNames(), kernel)) {
        rows.push_back(MeasureLeBenchCounters(cpu, config, kernel));
      } else if (suite == "octane" && Contains(Octane::KernelNames(), kernel)) {
        rows.push_back(MeasureOctaneCounters(cpu, JitConfig::AllOn(), config, kernel));
      } else {
        std::fprintf(stderr,
                     "counters: unknown workload \"%s\" (want lebench:<kernel> or "
                     "octane:<kernel>)\n",
                     workload.c_str());
        return 2;
      }
    }
  }
  if (bad_boot_param) {
    return 2;
  }
  std::printf("%s", RenderCountersJson(rows).c_str());
  return 0;
}

// The security x overhead frontier: attack-suite verdict matrix joined
// with the overhead basket, per-CPU Pareto ranking on stdout. All three
// output formats are byte-stable and job-count independent (the JSON is
// golden-tested).
int RunPareto(const CliOptions& options) {
  if (options.json && options.csv) {
    std::fprintf(stderr, "pareto: pick one of --json / --csv\n");
    return 2;
  }
  ParetoOptions pareto_options;
  pareto_options.cpus = options.cpus;
  pareto_options.trials = options.trials;
  pareto_options.jobs = options.jobs;
  pareto_options.base_seed = options.seed;
  const ParetoReport report = BuildParetoReport(pareto_options);
  if (options.json) {
    std::printf("%s", RenderParetoJson(report).c_str());
  } else if (options.csv) {
    std::printf("%s", RenderParetoCsv(report).c_str());
  } else {
    std::printf("%s", RenderParetoText(report).c_str());
  }
  return 0;
}

// Static gadget analysis + simulator cross-validation over the corpus.
int RunAnalyze(const CliOptions& options) {
  std::vector<CorpusReport> reports;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    CorpusReport report;
    report.cpu_name = UarchName(u);
    for (const CorpusEntry& entry : BuildGadgetCorpus(cpu.predictor.rsb_depth)) {
      CorpusReportEntry e;
      e.name = entry.name;
      e.description = entry.description;
      e.analysis = Analyze(entry.program, cpu);
      e.xval = CrossValidate(entry, cpu, e.analysis);
      report.entries.push_back(std::move(e));
    }
    reports.push_back(std::move(report));
  }

  int false_negatives = 0;
  for (const CorpusReport& report : reports) {
    for (const CorpusReportEntry& e : report.entries) {
      false_negatives += e.xval.false_negatives;
    }
  }
  if (options.json) {
    std::printf("%s", RenderCorpusJsonMulti(reports).c_str());
  } else {
    for (const CorpusReport& report : reports) {
      std::printf("%s\n", RenderCorpusText(report).c_str());
    }
  }
  return false_negatives == 0 ? 0 : 1;
}

std::vector<const MitigationPass*> SelectPasses(const CliOptions& options) {
  if (options.passes.empty()) {
    return MitigationPasses();
  }
  std::vector<const MitigationPass*> selected;
  for (const std::string& name : options.passes) {
    const MitigationPass* pass = FindMitigationPassByName(name);
    if (pass == nullptr) {
      std::fprintf(stderr, "unknown pass: \"%s\"\nregistered passes:\n", name.c_str());
      for (const MitigationPass* p : MitigationPasses()) {
        std::fprintf(stderr, "  %-18s %s\n", p->name().c_str(), p->summary().c_str());
      }
      std::exit(2);
    }
    selected.push_back(pass);
  }
  return selected;
}

// Corpus mode: each pass over each gadget-corpus program on each CPU, with
// the fixpoint check and (where the reference interpreter supports the
// program) the relocation-aware equivalence oracle.
int RunHardenCorpus(const CliOptions& options,
                    const std::vector<const MitigationPass*>& passes) {
  std::vector<HardenReport> reports;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    const std::vector<CorpusEntry> corpus = BuildGadgetCorpus(cpu.predictor.rsb_depth);
    for (const MitigationPass* pass : passes) {
      HardenReport report;
      report.cpu_name = UarchName(u);
      report.pass_name = pass->name();
      report.pass_summary = pass->summary();
      for (const CorpusEntry& entry : corpus) {
        const PassRunReport run = RunPassToFixpoint(*pass, entry.program, cpu);
        HardenEntry e;
        e.program = entry.name;
        e.sites = static_cast<int>(run.sites.size());
        e.instructions_added = run.inserted;
        e.findings_before = run.findings_before;
        e.findings_after = run.findings_after;
        e.fixpoint = run.fixpoint_ok();
        const EquivalenceReport eq =
            CheckRewriteEquivalence(entry.program, run.hardened, run.index_map);
        e.equivalence_checked = eq.checked;
        e.equivalent = eq.equivalent;
        if (eq.checked && !eq.equivalent) {
          e.note = eq.divergence;
        }
        report.entries.push_back(std::move(e));
      }
      reports.push_back(std::move(report));
    }
  }
  if (options.json) {
    std::printf("%s", RenderHardenJson(reports).c_str());
  } else {
    std::printf("%s", RenderHardenText(reports).c_str());
  }
  return HardenReportsOk(reports) ? 0 : 1;
}

// Fuzz mode (--seeds=A:B): every pass over the difftest generator corpus.
// Analysis and hardening run on one CPU (the first of --cpus, defaulting to
// Skylake Client — the most permissive vulnerability set, so every detector
// can fire); each rewrite must hit its fixpoint and prove architectural
// equivalence, with the hardened program additionally re-simulated on a
// machine panel to exercise the rewritten opcode mix under speculation.
int RunHardenFuzz(const CliOptions& options,
                  const std::vector<const MitigationPass*>& passes) {
  const CpuModel& cpu = options.cpus_given ? GetCpuModel(options.cpus.front())
                                           : GetCpuModelByName("Skylake Client");
  EquivalenceOptions eq_options;
  eq_options.cpus = {Uarch::kSkylakeClient, Uarch::kZen3};
  DiffConfig config_off, config_defaults;
  SPECBENCH_CHECK(TryGetDiffConfigByName("off", &config_off));
  SPECBENCH_CHECK(TryGetDiffConfigByName("defaults", &config_defaults));
  eq_options.configs = {config_off, config_defaults};

  struct PassTally {
    uint64_t programs = 0;
    uint64_t rewritten = 0;    // rewrites that actually changed the program
    uint64_t skipped = 0;      // original outside the reference subset
    uint64_t fixpoint_failures = 0;
    uint64_t equivalence_failures = 0;
    std::string first_failure;
  };
  std::vector<PassTally> tallies(passes.size());
  for (uint64_t seed = options.seed_begin; seed < options.seed_end; seed++) {
    const Program program = GenerateProgram(seed);
    for (size_t i = 0; i < passes.size(); i++) {
      const MitigationPass& pass = *passes[i];
      PassTally& tally = tallies[i];
      tally.programs++;
      const PassRunReport run = RunPassToFixpoint(pass, program, cpu);
      if (run.inserted != 0) {
        tally.rewritten++;
      }
      if (!run.fixpoint_ok()) {
        tally.fixpoint_failures++;
        if (tally.first_failure.empty()) {
          tally.first_failure = "seed " + std::to_string(seed) + ": fixpoint (" +
                                std::to_string(run.findings_after) + " residual after " +
                                std::to_string(run.iterations) + " round(s))";
        }
      }
      const EquivalenceReport eq =
          CheckRewriteEquivalence(program, run.hardened, run.index_map, eq_options);
      if (!eq.checked) {
        tally.skipped++;
      } else if (!eq.equivalent) {
        tally.equivalence_failures++;
        if (tally.first_failure.empty()) {
          tally.first_failure = "seed " + std::to_string(seed) + ": " + eq.divergence;
        }
      }
    }
  }

  uint64_t failures = 0;
  if (options.json) {
    std::string out = "[";
    for (size_t i = 0; i < passes.size(); i++) {
      const PassTally& t = tallies[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"pass\":\"%s\",\"programs\":%llu,\"rewritten\":%llu,"
                    "\"skipped\":%llu,\"fixpoint_failures\":%llu,"
                    "\"equivalence_failures\":%llu}",
                    i == 0 ? "" : ",", passes[i]->name().c_str(),
                    static_cast<unsigned long long>(t.programs),
                    static_cast<unsigned long long>(t.rewritten),
                    static_cast<unsigned long long>(t.skipped),
                    static_cast<unsigned long long>(t.fixpoint_failures),
                    static_cast<unsigned long long>(t.equivalence_failures));
      out += buf;
      failures += t.fixpoint_failures + t.equivalence_failures;
    }
    out += "]\n";
    std::printf("%s", out.c_str());
  } else {
    std::printf("harden fuzz: cpu=%s seeds=[%llu,%llu)\n", UarchName(cpu.uarch),
                static_cast<unsigned long long>(options.seed_begin),
                static_cast<unsigned long long>(options.seed_end));
    for (size_t i = 0; i < passes.size(); i++) {
      const PassTally& t = tallies[i];
      std::printf("%-18s programs=%-5llu rewritten=%-5llu skipped=%-3llu "
                  "fixpoint_failures=%llu equivalence_failures=%llu\n",
                  passes[i]->name().c_str(),
                  static_cast<unsigned long long>(t.programs),
                  static_cast<unsigned long long>(t.rewritten),
                  static_cast<unsigned long long>(t.skipped),
                  static_cast<unsigned long long>(t.fixpoint_failures),
                  static_cast<unsigned long long>(t.equivalence_failures));
      if (!t.first_failure.empty()) {
        std::printf("  first failure: %s\n", t.first_failure.c_str());
      }
      failures += t.fixpoint_failures + t.equivalence_failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int RunHarden(const CliOptions& options) {
  const std::vector<const MitigationPass*> passes = SelectPasses(options);
  if (options.seeds_given) {
    return RunHardenFuzz(options, passes);
  }
  return RunHardenCorpus(options, passes);
}

int RunAttackSuite(const CliOptions& options) {
  std::printf("%-16s %-16s %-10s %-10s\n", "CPU", "attack", "unmitigated", "mitigated");
  int bad = 0;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const AttackSpec& spec : AttackSuite()) {
      const char* off = "n/a";
      const char* on = "n/a";
      if (spec.vulnerable(cpu)) {  // Table 1's empty cells run nothing
        auto leaks = [&](bool mitigated) {
          return RunCanonicalTrial(spec, cpu, ParanoidConfig(spec, cpu, mitigated)).leaked;
        };
        off = leaks(/*mitigated=*/false) ? "LEAK" : "safe";
        const bool leaked = leaks(/*mitigated=*/true);
        on = leaked ? "LEAK" : "safe";
        bad += leaked ? 1 : 0;
      }
      std::printf("%-16s %-16s %-10s %-10s\n", UarchName(u), spec.name.c_str(), off, on);
    }
  }
  std::printf("\n%d leaks with mitigations enabled (expected 0).\n", bad);
  return bad == 0 ? 0 : 1;
}

// --- Flags ----------------------------------------------------------------

// One command-line flag. `value` is the placeholder usage prints after '='
// (nullptr for a switch, which takes no value); `set` stores the value in
// CliOptions, or prints a one-line diagnostic and returns false (exit 2). A
// list flag (comma-separated names) names its CliOptions member in `list`
// instead, and SetList stores it.
struct Flag {
  const char* name;
  const char* value;
  bool (*set)(const std::string& value, CliOptions* options);
  std::vector<std::string> CliOptions::*list = nullptr;
};

// The setter of every list flag: an empty list is an error, not "all".
bool SetList(const Flag& flag, const std::string& value, CliOptions* options) {
  std::vector<std::string> names = SplitList(value);
  if (names.empty()) {
    std::fprintf(stderr, "%s= needs at least one name\n", flag.name);
    return false;
  }
  options->*flag.list = std::move(names);
  return true;
}

const std::vector<Flag>& Flags() {
  static const std::string grid_names = NamedGridNames(",");
  static const std::vector<Flag> flags = {
      {"--json", nullptr, [](const std::string&, CliOptions* o) { o->json = true; return true; }},
      {"--csv", nullptr, [](const std::string&, CliOptions* o) { o->csv = true; return true; }},
      {"--quiet", nullptr, [](const std::string&, CliOptions* o) { o->quiet = true; return true; }},
      {"--cpus", "Name1,Name2",
       [](const std::string& v, CliOptions* o) {
         o->cpus = ParseCpuList(v);
         o->cpus_given = true;
         return true;
       }},
      {"--grids", grid_names.c_str(), nullptr, &CliOptions::grids},
      {"--workloads", "a,b", nullptr, &CliOptions::workloads},
      {"--configs", "a,b", nullptr, &CliOptions::configs},
      {"--boot-params", "nopti,mds=off,...", nullptr, &CliOptions::boot_params},
      {"--jobs", "N",
       [](const std::string& v, CliOptions* o) { return ParseJobsFlag(v, &o->jobs); }},
      {"--trials", "T",
       [](const std::string& v, CliOptions* o) {
         uint64_t trials = 0;
         if (!ParseU64Strict(v, &trials) || trials < 1 ||
             trials > static_cast<uint64_t>(INT_MAX)) {
           std::fprintf(stderr, "--trials=%s: want a positive repeat count\n", v.c_str());
           return false;
         }
         o->trials = static_cast<int>(trials);
         return true;
       }},
      {"--seed", "S",
       [](const std::string& v, CliOptions* o) {
         if (!ParseU64Strict(v, &o->seed)) {
           std::fprintf(stderr, "--seed=%s: want a decimal seed\n", v.c_str());
           return false;
         }
         return true;
       }},
      {"--seeds", "A:B",
       [](const std::string& v, CliOptions* o) {
         std::string error;
         if (!ParseSeedRange(v, &o->seed_begin, &o->seed_end, &error)) {
           std::fprintf(stderr, "--seeds=%s: %s\n", v.c_str(), error.c_str());
           return false;
         }
         o->seeds_given = true;
         return true;
       }},
      {"--passes", "targeted-lfence,...", nullptr, &CliOptions::passes},
      {"--inject-alu-fault", "N",
       [](const std::string& v, CliOptions* o) {
         if (!ParseU64Strict(v, &o->inject_alu_fault)) {
           std::fprintf(stderr, "--inject-alu-fault=%s: want a decimal ALU-op count\n",
                        v.c_str());
           return false;
         }
         return true;
       }},
      {"--corpus-out", "DIR",
       [](const std::string& v, CliOptions* o) { o->corpus_out = v; return true; }},
      {"--replay", "FILE", [](const std::string& v, CliOptions* o) { o->replay = v; return true; }},
      {"--arch-hashes", nullptr,
       [](const std::string&, CliOptions* o) { o->arch_hashes = true; return true; }},
      {"--shard", "i/N",
       [](const std::string& v, CliOptions* o) {
         std::string error;
         if (!ParseShardSpec(v, &o->shard, &error)) {
           std::fprintf(stderr, "--shard=%s: %s\n", v.c_str(), error.c_str());
           return false;
         }
         return true;
       }},
      {"--checkpoint", "FILE",
       [](const std::string& v, CliOptions* o) { o->checkpoint = v; return true; }},
      {"--resume", nullptr,
       [](const std::string&, CliOptions* o) { o->resume = true; return true; }},
      {"--inputs", "a.journal,b.journal,...", nullptr, &CliOptions::inputs},
      {"--socket", "PATH",
       [](const std::string& v, CliOptions* o) { o->socket_path = v; return true; }},
      {"--ping", nullptr, [](const std::string&, CliOptions* o) { o->ping = true; return true; }},
      {"--shutdown", nullptr,
       [](const std::string&, CliOptions* o) { o->send_shutdown = true; return true; }},
  };
  return flags;
}

const Flag* FindFlag(const std::string& name) {
  for (const Flag& flag : Flags()) {
    if (name == flag.name) {
      return &flag;
    }
  }
  return nullptr;
}

// --- Commands -------------------------------------------------------------

// One subcommand. `flags` is its allowlist: a flag that parses fine but does
// nothing for this command (e.g. `attacks --seeds=0:5`, `table1 --json`) is
// a user error worth exit code 2, not something to silently ignore. The
// order is the `valid options:` order, golden-tested in tests/cli_test.cc.
struct Command {
  const char* name;
  std::vector<const char*> flags;
  const char* usage;
  int (*run)(const CliOptions& options);
};

int PrintText(const std::string& text) {
  std::printf("%s\n", text.c_str());
  return 0;
}

// Handler of a command that prints one renderer's text.
template <std::string (*Render)()>
int PrintRendered(const CliOptions&) {
  return PrintText(Render());
}

// Per-kernel LEBench drill-down: which operations carry the overhead.
int RunKernelDrillDown(const CliOptions& options) {
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    std::printf("%s: per-kernel overhead of the default mitigation set\n", UarchName(u));
    for (const std::string& name : LeBench::KernelNames()) {
      const double def = LeBench::RunKernel(name, cpu, MitigationConfig::Defaults(cpu), 1);
      const double off = LeBench::RunKernel(name, cpu, MitigationConfig::AllOff(), 2);
      std::printf("  %-16s %8.0f vs %8.0f cycles/op  (%+.1f%%)\n", name.c_str(), def, off,
                  (def / off - 1.0) * 100.0);
    }
    std::printf("\n");
  }
  return 0;
}

int RunList(const CliOptions& options);

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"list", {}, "every command with the flags it takes, and the CPU models", RunList},
      {"table1", {}, "default mitigation matrix", PrintRendered<RenderTable1MitigationMatrix>},
      {"table2", {}, "CPU inventory", PrintRendered<RenderTable2CpuInfo>},
      {"table3", {}, "syscall/sysret/cr3 cycles", PrintRendered<RenderTable3EntryExit>},
      {"table4", {}, "verw cycles", PrintRendered<RenderTable4Verw>},
      {"table5", {}, "indirect branch variants", PrintRendered<RenderTable5IndirectBranch>},
      {"table6", {}, "IBPB cycles", PrintRendered<RenderTable6Ibpb>},
      {"table7", {}, "RSB stuffing cycles", PrintRendered<RenderTable7RsbStuff>},
      {"table8", {}, "lfence cycles", PrintRendered<RenderTable8Lfence>},
      {"tables9-10", {}, "the speculation probe matrix", PrintRendered<RenderTables9And10>},
      {"sec622", {}, "eIBRS bimodality", PrintRendered<RenderEibrsBimodal>},
      {"fig2", {"--csv", "--jobs", "--cpus"}, "LEBench attribution (per CPU)",
       [](const CliOptions& o) {
         const auto reports = RunFigure2LeBench(kExperimentSampler, o.cpus, RunnerFor(o));
         return PrintText(o.csv ? RenderAttributionCsv(reports) : RenderFigure2(reports));
       }},
      {"fig3", {"--csv", "--jobs", "--cpus"}, "Octane 2 attribution (per CPU)",
       [](const CliOptions& o) {
         const auto reports = RunFigure3Octane(o.cpus, RunnerFor(o));
         return PrintText(o.csv ? RenderAttributionCsv(reports) : RenderFigure3(reports));
       }},
      {"fig5", {"--cpus"}, "SSBD on PARSEC (per CPU)",
       [](const CliOptions& o) { return PrintText(RenderFigure5(RunFigure5Ssbd(o.cpus))); }},
      {"sec44", {"--cpus"}, "VM workloads",
       [](const CliOptions& o) {
         return PrintText(RenderSection44(RunSection44Vm(o.cpus)));
       }},
      {"sec45", {"--jobs", "--cpus"}, "PARSEC defaults",
       [](const CliOptions& o) {
         return PrintText(RenderSection45(RunSection45Parsec(o.cpus, RunnerFor(o))));
       }},
      {"scorecard", {"--jobs"},
       "every paper claim, paper vs measured, match/miss; byte-identical for any --jobs",
       [](const CliOptions& o) {
         std::printf("%s", RenderScorecard(BuildScorecard(RunnerFor(o))).c_str());
         return 0;
       }},
      {"fig2-kernels", {"--cpus"}, "per-kernel LEBench overhead drill-down", RunKernelDrillDown},
      {"sweep",
       {"--csv", "--quiet", "--jobs", "--seed", "--seeds", "--cpus", "--grids", "--workloads",
        "--configs", "--shard", "--checkpoint", "--resume"},
       "run experiment grids on the deterministic parallel runner; JSON/CSV on stdout is "
       "byte-identical for any --jobs; the difftest grid takes --seeds; --checkpoint "
       "journals each finished cell (crash-safe, fsynced) and --resume restarts a killed run "
       "from the journal; --shard runs slice i of N (requires --checkpoint; combine the "
       "journals with merge)",
       RunSweep},
      {"merge", {"--inputs", "--csv"},
       "combine shard journals (--inputs is required) into the full-grid output, "
       "byte-identical to the one-shot sweep",
       RunMerge},
      {"serve", {"--socket", "--jobs", "--quiet"},
       "sweep-as-a-service on a Unix socket (--socket is required); client batches share one "
       "thread pool (protocol: src/runner/service.h; docs/runner.md)",
       RunServe},
      {"submit",
       {"--socket", "--grids", "--seeds", "--cpus", "--workloads", "--configs", "--seed",
        "--shard", "--checkpoint", "--ping", "--shutdown"},
       "client for serve: sends one sweep batch and writes the returned records as a journal "
       "for merge (to stdout without --checkpoint); --ping and --shutdown send only that "
       "request",
       RunSubmit},
      {"counters", {"--cpus", "--workloads", "--boot-params"},
       "per-mitigation cycle counters from the cycle accountant, byte-stable JSON on stdout; "
       "a boot parameter that is not applied on a CPU exits 2",
       RunCounters},
      {"attacks", {"--cpus"}, "run the full attack ground-truth suite", RunAttackSuite},
      {"pareto", {"--json", "--csv", "--jobs", "--trials", "--seed", "--cpus"},
       "security x overhead frontier: every attack spec against every (CPU x mitigation "
       "config) cell plus the overhead basket; per CPU ranks configs, marks the non-dominated "
       "frontier, names the cheapest fully-protecting config vs the most protected one, and "
       "attributes which knob blocks each attack; output is byte-identical for any --jobs "
       "(JSON is golden-tested)",
       RunPareto},
      {"analyze", {"--json", "--cpus"},
       "static gadget analysis of the corpus, cross-validated against the simulator",
       RunAnalyze},
      {"harden", {"--seeds", "--passes", "--json", "--cpus"},
       "mitigation-pass framework: rewrite programs with the registered passes and verify "
       "each rewrite (analyze->harden->analyze fixpoint + architectural equivalence); "
       "default runs the gadget corpus, --seeds runs the difftest generator corpus instead "
       "and re-simulates every hardened program on a machine panel; exit 0 iff every check "
       "passes",
       RunHarden},
      {"difftest",
       {"--seeds", "--cpus", "--configs", "--jobs", "--inject-alu-fault", "--corpus-out",
        "--replay", "--arch-hashes"},
       "differential-execution oracle: random programs on the reference interpreter vs the "
       "machine under every CPU x mitigation config (off, defaults, ssbd, ibrs, nopcid, "
       "stibp); output is byte-identical for any --jobs; exit 0 iff architecturally "
       "equivalent; --replay with --arch-hashes prints the architectural end-state digests "
       "(the refactor-guard golden format)",
       RunDifftestCommand},
  };
  return commands;
}

const Command* FindCommand(const std::string& name) {
  for (const Command& command : Commands()) {
    if (name == command.name) {
      return &command;
    }
  }
  return nullptr;
}

// Usage lines are at most kUsageWidth columns; descriptions and flag lists
// start at column kUsageIndent.
constexpr size_t kUsageWidth = 78;
constexpr size_t kUsageIndent = 16;

// Prints `words` space-separated, starting at the description column and
// wrapping onto lines indented to it.
void PrintWrapped(const std::vector<std::string>& words) {
  size_t column = kUsageIndent;
  for (const std::string& word : words) {
    if (column > kUsageIndent && column + 1 + word.size() > kUsageWidth) {
      std::printf("\n%*s", static_cast<int>(kUsageIndent), "");
      column = kUsageIndent;
    }
    if (column > kUsageIndent) {
      std::printf(" ");
      column++;
    }
    std::printf("%s", word.c_str());
    column += word.size();
  }
  std::printf("\n");
}

// The usage text, generated from Commands() and Flags(): each command lists
// exactly the flags it accepts.
void PrintUsage() {
  std::printf(
      "usage: spectrebench <command> [flags]\n"
      "  the sampled experiments (fig2, fig3, sec44, sec45, sweep, submit) take\n"
      "  5-20 samples per configuration at a 1%% CI target\n\n"
      "commands:\n");
  for (const Command& command : Commands()) {
    std::printf("  %-*s", static_cast<int>(kUsageIndent - 2), command.name);
    PrintWrapped(SplitList(command.usage, ' '));
    if (command.flags.empty()) {
      continue;
    }
    std::vector<std::string> flags;
    for (const char* name : command.flags) {
      const char* value = FindFlag(name)->value;
      flags.push_back(std::string("[") + name + (value ? std::string("=") + value : "") + "]");
    }
    std::printf("%*s", static_cast<int>(kUsageIndent), "");
    PrintWrapped(flags);
  }
}

int RunList(const CliOptions&) {
  PrintUsage();
  std::printf("\nCPU models:\n");
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    std::printf("  %-16s %s %s\n", UarchName(u), VendorName(cpu.vendor), cpu.model_name.c_str());
  }
  return 0;
}

// Exit-2 diagnostic for a flag the command does not take (or that no
// command takes). Lists the valid options so the fix is one glance away.
int RejectFlag(const Command& command, const std::string& flag) {
  std::string valid;
  for (const char* f : command.flags) {
    if (!valid.empty()) {
      valid += " ";
    }
    valid += f;
  }
  if (valid.empty()) {
    valid = "none";
  }
  std::fprintf(stderr, "spectrebench %s: unrecognized option '%s' (valid options: %s)\n",
               command.name, flag.c_str(), valid.c_str());
  return 2;
}

// The command's entry for `name`, or nullptr if the command does not accept it.
const Flag* AcceptedFlag(const Command& command, const std::string& name) {
  for (const char* accepted : command.flags) {
    if (name == accepted) {
      return FindFlag(name);
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  // Validate the command before touching any flags so `spectrebench bogus
  // --bogus` reports the actual problem.
  const Command* entry = FindCommand(argv[1]);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n\n", argv[1]);
    PrintUsage();
    return 2;
  }
  CliOptions options;
  for (int i = 2; i < argc; i++) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = AcceptedFlag(*entry, name);
    if (flag == nullptr) {
      return RejectFlag(*entry, name);
    }
    if (flag->value != nullptr && eq == std::string::npos) {
      std::fprintf(stderr, "spectrebench %s: option '%s' needs a value (%s=%s)\n",
                   entry->name, name.c_str(), name.c_str(), flag->value);
      return 2;
    }
    if (flag->value == nullptr && eq != std::string::npos) {
      std::fprintf(stderr, "spectrebench %s: option '%s' takes no value\n", entry->name,
                   name.c_str());
      return 2;
    }
    const std::string value = eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (!(flag->list != nullptr ? SetList(*flag, value, &options)
                                : flag->set(value, &options))) {
      return 2;
    }
  }
  return entry->run(options);
}
