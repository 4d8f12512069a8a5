// spectrebench command-line interface: run any of the paper's experiments
// (or the ground-truth attack suite) by name, with CPU filtering.
//
//   spectrebench list
//   spectrebench table1|table2|...|table8|tables9-10|sec622
//   spectrebench fig2|fig3|fig5|sec44|sec45 [--cpus=Zen 3,Broadwell]
//   spectrebench scorecard [--jobs=N]
//   spectrebench sweep [--grids=fig2,fig3,sec45,difftest,harden] [--jobs=N]
//   spectrebench attacks [--cpus=...]
//   spectrebench difftest [--seeds=A:B] [--cpus=...] [--configs=...] [--jobs=N]
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
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
#include "src/attack/attacks.h"
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
  std::vector<std::string> workloads;  // empty = all
  std::vector<std::string> configs;    // empty = all
  std::vector<std::string> boot_params;  // Linux-style tokens for `counters`
  bool strict_boot_params = false;     // unrecognized token => exit non-zero
  // difftest options.
  uint64_t seed_begin = 0;             // --seeds=A:B (B exclusive)
  uint64_t seed_end = 100;
  bool seeds_given = false;            // harden: --seeds selects fuzz mode
  bool cpus_given = false;             // --cpus appeared on the command line
  std::vector<std::string> passes;     // harden: --passes=a,b (empty = all)
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

// Per-subcommand flag allowlist. A flag that parses fine but does nothing
// for the given command (e.g. `attacks --seeds=0:5`, `table1 --json`) is a
// user error worth exit code 2, not something to silently ignore. The error
// text is golden-tested (tests/cli_test.cc) — change it deliberately.
struct CommandSpec {
  const char* name;
  std::vector<const char*> flags;  // allowed, without the =value suffix
};

const std::vector<CommandSpec>& CommandSpecs() {
  static const std::vector<CommandSpec> specs = {
      {"list", {}},
      {"table1", {}},
      {"table2", {}},
      {"table3", {}},
      {"table4", {}},
      {"table5", {}},
      {"table6", {}},
      {"table7", {}},
      {"table8", {}},
      {"tables9-10", {}},
      {"sec622", {}},
      {"fig2", {"--csv", "--jobs", "--cpus"}},
      {"fig3", {"--csv", "--jobs", "--cpus"}},
      {"fig5", {"--cpus"}},
      {"sec44", {"--cpus"}},
      {"sec45", {"--jobs", "--cpus"}},
      {"scorecard", {"--jobs"}},
      {"fig2-kernels", {"--cpus"}},
      {"sweep",
       {"--csv", "--quiet", "--jobs", "--seed", "--seeds", "--cpus", "--grids", "--workloads",
        "--configs", "--shard", "--checkpoint", "--resume"}},
      {"merge", {"--inputs", "--csv"}},
      {"serve", {"--socket", "--jobs", "--quiet"}},
      {"submit",
       {"--socket", "--grids", "--seeds", "--cpus", "--workloads", "--configs", "--seed",
        "--shard", "--checkpoint", "--ping", "--shutdown"}},
      {"counters", {"--cpus", "--workloads", "--boot-params", "--strict-boot-params"}},
      {"attacks", {"--cpus"}},
      {"pareto", {"--json", "--csv", "--jobs", "--trials", "--seed", "--cpus"}},
      {"analyze", {"--json", "--cpus"}},
      {"harden", {"--seeds", "--passes", "--json", "--cpus"}},
      {"difftest",
       {"--seeds", "--cpus", "--configs", "--jobs", "--inject-alu-fault", "--corpus-out",
        "--replay", "--arch-hashes"}},
  };
  return specs;
}

const CommandSpec* FindCommandSpec(const std::string& command) {
  for (const CommandSpec& spec : CommandSpecs()) {
    if (command == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// Exit-2 diagnostic for a flag the command does not take (or that no
// command takes). Lists the valid options so the fix is one glance away.
int RejectFlag(const std::string& command, const CommandSpec& spec, const std::string& arg) {
  const std::string flag = arg.substr(0, arg.find('='));
  std::string valid;
  for (const char* f : spec.flags) {
    if (!valid.empty()) {
      valid += " ";
    }
    valid += f;
  }
  if (valid.empty()) {
    valid = "none";
  }
  std::fprintf(stderr, "spectrebench %s: unrecognized option '%s' (valid options: %s)\n",
               command.c_str(), flag.c_str(), valid.c_str());
  return 2;
}

bool FlagAllowed(const CommandSpec& spec, const std::string& arg) {
  const std::string flag = arg.substr(0, arg.find('='));
  for (const char* f : spec.flags) {
    if (flag == f) {
      return true;
    }
  }
  return false;
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
uint64_t FoldWord(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; i++) {
    hash ^= (word >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

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
        const ArchState got =
            RunMachineArch(machine, program, config, 1'000'000, opts.inject_alu_fault_after);
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
      out << SerializeCorpusProgram(d.shrunk, comment.str());
      std::fprintf(stderr, "difftest: wrote %s\n", path.str().c_str());
    }
  }
  return report.ok() ? 0 : 1;
}

// Per-mitigation cycle counters from the uarch event bus: one run per
// (cpu, workload) under the boot-param-adjusted default configuration,
// byte-stable JSON on stdout (golden-tested; no timing-environment fields).
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
  if (options.strict_boot_params && bad_boot_param) {
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
  std::printf("%-16s %-12s %-10s %-10s\n", "CPU", "attack", "unmitigated", "mitigated");
  int bad = 0;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    struct Row {
      const char* name;
      AttackResult off;
      AttackResult on;
    };
    const Row rows[] = {
        {"spectre-v1", RunSpectreV1Attack(cpu, false), RunSpectreV1Attack(cpu, true)},
        {"spectre-v2", RunSpectreV2Attack(cpu, {}),
         RunSpectreV2Attack(cpu, {.generic_retpoline = true})},
        {"spectre-rsb", RunSpectreRsbAttack(cpu, false), RunSpectreRsbAttack(cpu, true)},
        {"meltdown", RunMeltdownAttack(cpu, false), RunMeltdownAttack(cpu, true)},
        {"mds", RunMdsAttack(cpu, false), RunMdsAttack(cpu, true)},
        {"ssb", RunSsbAttack(cpu, false), RunSsbAttack(cpu, true)},
        {"lazyfp", RunLazyFpAttack(cpu, false), RunLazyFpAttack(cpu, true)},
        {"l1tf", RunL1tfAttack(cpu, false), RunL1tfAttack(cpu, true)},
        {"v2-smt", RunSpectreV2SmtAttack(cpu, false), RunSpectreV2SmtAttack(cpu, true)},
    };
    for (const Row& row : rows) {
      std::printf("%-16s %-12s %-10s %-10s\n", UarchName(u), row.name,
                  row.off.leaked ? "LEAK" : "safe", row.on.leaked ? "LEAK" : "safe");
      bad += row.on.leaked ? 1 : 0;
    }
  }
  std::printf("\n%d leaks with mitigations enabled (expected 0).\n", bad);
  return bad == 0 ? 0 : 1;
}

void PrintUsage() {
  std::printf(
      "usage: spectrebench <command> [--cpus=Name1,Name2]\n"
      "  the sampled experiments (fig2, fig3, sec44, sec45, sweep, submit) take\n"
      "  5-20 samples per configuration at a 1%% CI target\n\n"
      "commands:\n"
      "  list         experiments and CPU models\n"
      "  table1       default mitigation matrix        table2  CPU inventory\n"
      "  table3       syscall/sysret/cr3 cycles        table4  verw cycles\n"
      "  table5       indirect branch variants         table6  IBPB cycles\n"
      "  table7       RSB stuffing cycles              table8  lfence cycles\n"
      "  tables9-10   the speculation probe matrix     sec622  eIBRS bimodality\n"
      "  fig2         LEBench attribution (per CPU) [--csv] [--jobs=N]\n"
      "  fig3         Octane 2 attribution (per CPU) [--csv] [--jobs=N]\n"
      "  fig5         SSBD on PARSEC (per CPU)\n"
      "  sec44        VM workloads                     sec45   PARSEC defaults\n"
      "               (sec45 takes [--jobs=N])\n"
      "  scorecard    every paper claim, paper vs measured, match/miss\n"
      "               [--jobs=N]; byte-identical for any --jobs\n"
      "  fig2-kernels per-kernel LEBench overhead drill-down\n"
      "  sweep        run experiment grids on the deterministic parallel\n"
      "               runner: [--grids=fig2,fig3,sec45,difftest,harden]\n"
      "               [--jobs=N] [--seed=S] [--workloads=a,b] [--configs=c]\n"
      "               [--csv] [--quiet]; the difftest grid takes\n"
      "               [--seeds=A:B]; JSON/CSV on stdout is byte-identical\n"
      "               for any --jobs;\n"
      "               [--checkpoint=FILE] journals each finished cell\n"
      "               (crash-safe, fsynced) and [--resume] restarts a killed\n"
      "               run from the journal; [--shard=i/N] runs slice i of N\n"
      "               (requires --checkpoint; combine the journals with merge)\n"
      "  merge        combine shard journals into the full-grid output,\n"
      "               byte-identical to the one-shot sweep:\n"
      "               --inputs=a.journal,b.journal,... [--csv]\n"
      "  serve        sweep-as-a-service on a Unix socket; client batches\n"
      "               share one thread pool: --socket=PATH [--jobs=N]\n"
      "               [--quiet] (protocol: src/runner/service.h;\n"
      "               docs/runner.md)\n"
      "  submit       client for serve: sends one sweep batch and writes the\n"
      "               returned records as a journal for merge: --socket=PATH\n"
      "               [sweep grid/filter flags] [--shard=i/N]\n"
      "               [--checkpoint=FILE (default stdout)] | --ping |\n"
      "               --shutdown\n"
      "  counters     per-mitigation cycle counters from the uarch event bus:\n"
      "               [--cpus=...] [--workloads=lebench:getpid,octane:richards]\n"
      "               [--boot-params=nopti,mds=off,...] [--strict-boot-params];\n"
      "               byte-stable JSON on stdout; tokens ApplyBootParam rejects\n"
      "               warn on stderr (exit non-zero under --strict-boot-params)\n"
      "  attacks      run the full attack ground-truth suite\n"
      "  pareto       security x overhead frontier: every attack spec against\n"
      "               every (CPU x mitigation config) cell plus the overhead\n"
      "               basket; per CPU ranks configs, marks the non-dominated\n"
      "               frontier, names the cheapest fully-protecting config vs\n"
      "               the most protected one, and attributes which knob blocks\n"
      "               each attack: [--json|--csv] [--jobs=N] [--trials=T]\n"
      "               [--seed=S] [--cpus=...]; output is byte-identical for\n"
      "               any --jobs (JSON is golden-tested)\n"
      "  analyze      static gadget analysis of the corpus, cross-validated\n"
      "               against the simulator [--json]\n"
      "  harden       mitigation-pass framework: rewrite programs with the\n"
      "               registered passes and verify each rewrite\n"
      "               (analyze->harden->analyze fixpoint + architectural\n"
      "               equivalence): [--passes=targeted-lfence,...] [--json]\n"
      "               [--cpus=...]; default runs the gadget corpus, with\n"
      "               --seeds=A:B runs the difftest generator corpus instead\n"
      "               and re-simulates every hardened program on a machine\n"
      "               panel; exit 0 iff every check passes\n"
      "  difftest     differential-execution oracle: random programs on the\n"
      "               reference interpreter vs the machine under every CPU x\n"
      "               mitigation config: [--seeds=A:B] [--cpus=...] \n"
      "               [--configs=off,defaults,ssbd,ibrs,nopcid,stibp]\n"
      "               [--jobs=N] [--corpus-out=DIR] [--replay=FILE]\n"
      "               [--inject-alu-fault=N]; output is byte-identical for\n"
      "               any --jobs; exit 0 iff architecturally equivalent;\n"
      "               --replay=FILE --arch-hashes prints the architectural\n"
      "               end-state digests (the refactor-guard golden format)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  // Validate the command before touching any flags so `spectrebench bogus
  // --bogus` reports the actual problem.
  const CommandSpec* spec = FindCommandSpec(command);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    PrintUsage();
    return 2;
  }
  CliOptions options;
  for (int i = 2; i < argc; i++) {
    const std::string arg = argv[i];
    if (!FlagAllowed(*spec, arg)) {
      return RejectFlag(command, *spec, arg);
    }
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg.rfind("--cpus=", 0) == 0) {
      options.cpus = ParseCpuList(arg.substr(7));
      options.cpus_given = true;
    } else if (arg.rfind("--grids=", 0) == 0) {
      options.grids = SplitList(arg.substr(8));
    } else if (arg.rfind("--workloads=", 0) == 0) {
      options.workloads = SplitList(arg.substr(12));
    } else if (arg.rfind("--configs=", 0) == 0) {
      options.configs = SplitList(arg.substr(10));
    } else if (arg.rfind("--boot-params=", 0) == 0) {
      options.boot_params = SplitList(arg.substr(14));
    } else if (arg == "--strict-boot-params") {
      options.strict_boot_params = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!ParseJobsFlag(arg.substr(7), &options.jobs)) {
        return 2;
      }
    } else if (arg.rfind("--trials=", 0) == 0) {
      uint64_t trials = 0;
      if (!ParseU64Strict(arg.substr(9), &trials) || trials < 1 ||
          trials > static_cast<uint64_t>(INT_MAX)) {
        std::fprintf(stderr, "%s: want a positive repeat count\n", arg.c_str());
        return 2;
      }
      options.trials = static_cast<int>(trials);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseU64Strict(arg.substr(7), &options.seed)) {
        std::fprintf(stderr, "%s: want a decimal seed\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--seeds=", 0) == 0) {
      const std::string value = arg.substr(8);
      std::string error;
      if (!ParseSeedRange(value, &options.seed_begin, &options.seed_end, &error)) {
        std::fprintf(stderr, "--seeds=%s: %s\n", value.c_str(), error.c_str());
        return 2;
      }
      options.seeds_given = true;
    } else if (arg.rfind("--passes=", 0) == 0) {
      options.passes = SplitList(arg.substr(9));
    } else if (arg.rfind("--inject-alu-fault=", 0) == 0) {
      if (!ParseU64Strict(arg.substr(19), &options.inject_alu_fault)) {
        std::fprintf(stderr, "%s: want a decimal ALU-op count\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--corpus-out=", 0) == 0) {
      options.corpus_out = arg.substr(13);
    } else if (arg.rfind("--replay=", 0) == 0) {
      options.replay = arg.substr(9);
    } else if (arg == "--arch-hashes") {
      options.arch_hashes = true;
    } else if (arg.rfind("--shard=", 0) == 0) {
      const std::string value = arg.substr(8);
      std::string error;
      if (!ParseShardSpec(value, &options.shard, &error)) {
        std::fprintf(stderr, "--shard=%s: %s\n", value.c_str(), error.c_str());
        return 2;
      }
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      options.checkpoint = arg.substr(13);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg.rfind("--inputs=", 0) == 0) {
      options.inputs = SplitList(arg.substr(9));
    } else if (arg.rfind("--socket=", 0) == 0) {
      options.socket_path = arg.substr(9);
    } else if (arg == "--ping") {
      options.ping = true;
    } else if (arg == "--shutdown") {
      options.send_shutdown = true;
    } else {
      // Allowlisted but not handled above: a CommandSpec / parser mismatch.
      std::fprintf(stderr, "internal error: unhandled option %s\n", arg.c_str());
      return 2;
    }
  }

  if (command == "list") {
    PrintUsage();
    std::printf("\nCPU models:\n");
    for (Uarch u : AllUarches()) {
      const CpuModel& cpu = GetCpuModel(u);
      std::printf("  %-16s %s %s\n", UarchName(u), VendorName(cpu.vendor),
                  cpu.model_name.c_str());
    }
    return 0;
  }
  if (command == "table1") {
    std::printf("%s\n", RenderTable1MitigationMatrix().c_str());
    return 0;
  }
  if (command == "table2") {
    std::printf("%s\n", RenderTable2CpuInfo().c_str());
    return 0;
  }
  if (command == "table3") {
    std::printf("%s\n", RenderTable3EntryExit().c_str());
    return 0;
  }
  if (command == "table4") {
    std::printf("%s\n", RenderTable4Verw().c_str());
    return 0;
  }
  if (command == "table5") {
    std::printf("%s\n", RenderTable5IndirectBranch().c_str());
    return 0;
  }
  if (command == "table6") {
    std::printf("%s\n", RenderTable6Ibpb().c_str());
    return 0;
  }
  if (command == "table7") {
    std::printf("%s\n", RenderTable7RsbStuff().c_str());
    return 0;
  }
  if (command == "table8") {
    std::printf("%s\n", RenderTable8Lfence().c_str());
    return 0;
  }
  if (command == "tables9-10") {
    std::printf("%s\n", RenderTables9And10().c_str());
    return 0;
  }
  if (command == "sec622") {
    std::printf("%s\n", RenderEibrsBimodal().c_str());
    return 0;
  }
  if (command == "fig2" || command == "fig3") {
    const bool fig2 = command == "fig2";
    const std::vector<AttributionReport> reports =
        fig2 ? RunFigure2LeBench(kExperimentSampler, options.cpus, RunnerFor(options))
             : RunFigure3Octane(kExperimentSampler, options.cpus, RunnerFor(options));
    const std::string text = options.csv ? RenderAttributionCsv(reports)
                             : fig2      ? RenderFigure2(reports)
                                         : RenderFigure3(reports);
    std::printf("%s\n", text.c_str());
    return 0;
  }
  if (command == "fig5") {
    std::printf("%s\n", RenderFigure5(RunFigure5Ssbd(options.cpus)).c_str());
    return 0;
  }
  if (command == "sec44") {
    std::printf("%s\n",
                RenderSection44(RunSection44Vm(kExperimentSampler, options.cpus)).c_str());
    return 0;
  }
  if (command == "sec45") {
    std::printf("%s\n", RenderSection45(RunSection45Parsec(kExperimentSampler, options.cpus,
                                                          RunnerFor(options)))
                             .c_str());
    return 0;
  }
  if (command == "scorecard") {
    std::printf("%s", RenderScorecard(BuildScorecard(RunnerFor(options))).c_str());
    return 0;
  }
  if (command == "fig2-kernels") {
    // Per-kernel LEBench drill-down: which operations carry the overhead.
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
  if (command == "sweep") {
    return RunSweep(options);
  }
  if (command == "merge") {
    return RunMerge(options);
  }
  if (command == "serve") {
    return RunServe(options);
  }
  if (command == "submit") {
    return RunSubmit(options);
  }
  if (command == "counters") {
    return RunCounters(options);
  }
  if (command == "attacks") {
    return RunAttackSuite(options);
  }
  if (command == "pareto") {
    return RunPareto(options);
  }
  if (command == "harden") {
    return RunHarden(options);
  }
  if (command == "analyze") {
    return RunAnalyze(options);
  }
  if (command == "difftest") {
    return RunDifftestCommand(options);
  }
  std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
  PrintUsage();
  return 2;
}
