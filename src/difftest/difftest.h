// Differential-execution oracle: reference interpreter vs uarch::Machine.
//
// For every seed in a range, generate a program (src/difftest/generator.h),
// compute its canonical architectural end state with the reference
// interpreter (src/difftest/reference.h), then execute it on uarch::Machine
// under every requested CPU model × mitigation configuration and demand the
// exact same ArchState. Mitigations and CPU models change *timing* and
// *microarchitectural* behaviour — caches, predictors, speculation windows —
// but must never change what the program computes; any mismatch is a
// simulator bug, and gets greedily shrunk (src/difftest/shrink.h) into a
// small reproducer plus a self-contained replay command line.
//
// Every cell runs on the cycle-detailed engine. Seeds run in blocks, each
// one cell of the sweep runner (src/runner/sweep.h); a block constructs one
// Machine per CPU model and Reset()s it between every config, seed and
// shrink candidate, so it pays for one cache-hierarchy allocation per CPU
// instead of one per cell, and a worker holds one machine at a time.
//
// Determinism contract: the report depends only on (seed range, cpu list,
// config list, generator options, fault injection) — never on --jobs or
// scheduling. Each block writes only its own pre-allocated slot and the
// report joins the slots in seed order.
#ifndef SPECTREBENCH_SRC_DIFFTEST_DIFFTEST_H_
#define SPECTREBENCH_SRC_DIFFTEST_DIFFTEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/isa/program.h"

namespace specbench {

class Machine;

// One mitigation configuration applied to a bare Machine (no OS substrate:
// the knobs below are the ones with direct machine-level state; the rest of
// MitigationConfig lives in kernel code paths difftest does not execute).
struct DiffConfig {
  std::string name;
  bool from_cpu_defaults = false;  // apply MitigationConfig::Defaults(cpu)
  bool ssbd = false;
  bool ibrs = false;
  bool stibp = false;
  bool pcid = true;
};

// The standard panel: off, defaults, ssbd, ibrs, nopcid, stibp.
std::vector<DiffConfig> DefaultDiffConfigs();
// Looks `name` up in DefaultDiffConfigs(). Returns false if unknown.
bool TryGetDiffConfigByName(const std::string& name, DiffConfig* out);

// Resets `machine` to power-on state, executes `program` on it under
// `config` with the cycle-detailed engine and returns its canonical
// architectural end state. `inject_alu_fault_after` (when nonzero) arms
// Machine::InjectAluFaultForTesting — the oracle self-check. Machine::Reset
// makes a reused machine bit- and cycle-identical to a fresh one, so callers
// running many cells on one CPU model keep one machine and pass it here.
//
// `reference`, when given, must be RunReference(program)'s result. The run
// records its retired index stream and final nonzero words; where one equals
// the reference's content, the state takes the reference's trace_hash or
// memory_digest instead of folding its own (equal input to the same pure
// fold gives the same value). The result is the same with or without it.
ArchState RunMachineArch(Machine& machine, const Program& program, const DiffConfig& config,
                         uint64_t max_instructions, uint64_t inject_alu_fault_after = 0,
                         const ReferenceResult* reference = nullptr);

// The same on a leased Machine for `cpu` (one-off runs).
ArchState RunMachineArch(const Program& program, const CpuModel& cpu, const DiffConfig& config,
                         uint64_t max_instructions, uint64_t inject_alu_fault_after = 0);

struct DifftestOptions {
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;            // exclusive
  std::vector<Uarch> cpus;            // empty = all 8 models
  std::vector<DiffConfig> configs;    // empty = DefaultDiffConfigs()
  GeneratorOptions generator;
  uint64_t max_instructions = 1'000'000;
  int jobs = 1;                       // worker threads (<= 0 = all cores)
  uint64_t inject_alu_fault_after = 0;  // fault every machine run (self-check)
  bool shrink = true;                 // minimize diverging programs
};

struct Divergence {
  uint64_t seed = 0;
  std::string cpu;     // CpuModel::name ("-" for reference-side failures)
  std::string config;  // DiffConfig::name
  std::string detail;  // first differing field, or the reference error
  Program shrunk;      // minimized reproducer (empty when shrinking is off)
  int shrunk_size = 0; // non-kNop instructions in `shrunk`
  std::string repro;   // self-contained command line replaying this case
};

struct DifftestReport {
  uint64_t programs = 0;    // seeds generated and executed
  uint64_t executions = 0;  // machine runs (programs × cpus × configs)
  uint64_t retired_instructions = 0;  // total retired across machine runs
  std::vector<Divergence> divergences;  // seed-major order, deterministic

  bool ok() const { return divergences.empty(); }
  // Deterministic human-readable summary (CLI output, CI logs).
  std::string ToText() const;
};

DifftestReport RunDifftest(const DifftestOptions& options);

// The oracle loop over seeds [first_seed, last_seed), ignoring the seed
// window and jobs of `options`: one Machine per CPU, Reset between every
// config, seed and shrink candidate; the block holds all of its programs.
DifftestReport RunDifftestBlock(const DifftestOptions& options, uint64_t first_seed,
                                uint64_t last_seed);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_DIFFTEST_DIFFTEST_H_
