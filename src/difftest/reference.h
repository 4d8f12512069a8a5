// Architectural reference interpreter for the differential-execution oracle.
//
// Executes an isa::Program the way the ISA manual would read if the machine
// had no microarchitecture at all: strictly in order, one instruction at a
// time, no caches, no predictors, no store buffer, no speculation. What it
// produces — final registers, a canonical memory digest, and a hash of the
// retired-instruction stream — is the ground truth that uarch::Machine must
// reproduce *architecturally* no matter which CPU model or mitigation
// configuration it simulates. Any disagreement is a simulator bug (or, once,
// a mitigation semantically altering execution — exactly what the oracle
// exists to catch).
//
// The interpreter supports the deterministic, user-mode subset of the ISA
// the program generator emits (src/difftest/generator.h). Opcodes whose
// architectural result is timing (rdtsc/rdpmc), privileged machine state
// (wrmsr, mov cr3, syscall, vm transitions) or host callouts (kcall) are
// rejected with ok=false rather than guessed at — the shrinker also leans on
// this validity checking to discard candidate programs that would trip a
// SPECBENCH_CHECK abort inside the machine.
#ifndef SPECTREBENCH_SRC_DIFFTEST_REFERENCE_H_
#define SPECTREBENCH_SRC_DIFFTEST_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/isa/isa.h"
#include "src/isa/program.h"

namespace specbench {

// FNV-1a offset basis: the initial value of the trace hash and of every
// memory digest. Exposed so the machine-side runner starts its fold from the
// same point as the reference interpreter.
inline constexpr uint64_t kArchHashBasis = 0xcbf29ce484222325ULL;

// The FNV-1a folds of one byte and of one 64-bit word (low byte first).
// The trace hash, the memory digest and the CLI's register digest
// (`difftest --arch-hashes`) are all built from them.
inline uint64_t FoldByte(uint64_t hash, uint8_t byte) { return (hash ^ byte) * 0x100000001b3ULL; }

inline uint64_t FoldWord(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; i++) {
    hash = FoldByte(hash, static_cast<uint8_t>(word >> (8 * i)));
  }
  return hash;
}

// Canonical architectural end state. Two executions of the same program are
// architecturally equivalent iff their ArchStates compare equal.
struct ArchState {
  std::array<uint64_t, kNumRegs> regs{};
  std::array<uint64_t, kNumFpRegs> fpregs{};
  uint64_t retired = 0;        // committed instruction count
  uint64_t trace_hash = 0;     // FNV-1a over (index, op) of each retired instr
  uint64_t memory_digest = 0;  // FNV-1a over sorted nonzero (addr, value) words
  bool halted = false;

  bool operator==(const ArchState& other) const = default;
};

// Human-readable first difference between two states ("reg[3]: 12 vs 13"),
// or an empty string when they are equal.
std::string DescribeArchDivergence(const ArchState& expected, const ArchState& actual);

// FNV-1a digest of a canonical memory snapshot (SparseMemory's
// SortedNonZeroWords, or the reference interpreter's own map).
uint64_t DigestMemoryWords(const std::vector<std::pair<uint64_t, uint64_t>>& words);

// One retired instruction folded into the running trace hash.
uint64_t FoldTraceHash(uint64_t hash, int32_t index, Op op);

// False for the timing, privileged and callout opcodes the interpreter does
// not run (see the file comment). This is the one list of them: RunReference
// fails on them, and the corpus parser (src/difftest/corpus.h) rejects them,
// so a replayed file never hands one to the machine.
bool ReferenceSupports(Op op);

struct ReferenceResult {
  bool ok = false;      // executed to kHalt within budget, no unsupported ops
  std::string error;    // why ok is false
  ArchState state;
  // The content behind state.trace_hash and state.memory_digest (empty
  // unless ok): the program index of each retired instruction, in order, and
  // the sorted nonzero (addr, value) words of the final memory. RunMachineArch
  // compares a run's content with these and takes the hash and digest when
  // they are equal (src/difftest/difftest.h); src/difftest/equivalence.h
  // compares memories word by word.
  std::vector<int32_t> retired_indices;
  std::vector<std::pair<uint64_t, uint64_t>> memory_words;
};

// Executes `program` from its base vaddr. `max_instructions` bounds runaway
// candidates (the generator only emits terminating programs, but the
// shrinker probes arbitrary mutations).
ReferenceResult RunReference(const Program& program, uint64_t max_instructions = 1'000'000);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_DIFFTEST_REFERENCE_H_
