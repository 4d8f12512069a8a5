// Decoded micro-op traces and the process-wide trace cache.
//
// The sweep / difftest hot loop re-runs the same generated programs across
// every CPU x mitigation cell, and before this cache every cell re-derived
// the same per-instruction decode facts (dispatch class, scoreboard source
// registers) from the raw Instruction on every step. A DecodedTrace is that
// decode done once; the TraceCache shares it across all Machines running the
// same (program digest, uarch) cell, so repeated cells skip fetch/decode
// entirely (docs/perf.md).
//
// Decode is a pure function of the Program (no CpuModel input today), but
// the cache key still includes the microarchitecture so the contract stays
// "one decoded trace per (program, CPU)" if decode ever becomes
// model-dependent (e.g. per-uarch fusion rules).
#ifndef SPECTREBENCH_SRC_UARCH_DECODED_TRACE_H_
#define SPECTREBENCH_SRC_UARCH_DECODED_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/isa/isa.h"
#include "src/isa/program.h"

namespace specbench {

// Which pipeline component executes an opcode (Machine::Step dispatch).
enum class StepClass : uint8_t { kCompute, kMemory, kBranch, kSystem };

StepClass ClassOf(Op op);

// One instruction's decode facts: its dispatch class and the registers whose
// `ready_at` cycles it waits for, both in Machine::Step and in speculative
// episodes.
struct DecodedOp {
  StepClass cls = StepClass::kSystem;
  uint8_t num_srcs = 0;
  uint8_t srcs[3] = {0, 0, 0};
};

// Immutable decode of one Program for one microarchitecture.
class DecodedTrace {
 public:
  DecodedTrace(const Program& program, Uarch uarch);

  const DecodedOp& op(int32_t index) const {
    return ops_[static_cast<size_t>(index)];
  }
  // The decode as one array of size() entries, parallel to Program::data().
  const DecodedOp* data() const { return ops_.data(); }
  int32_t size() const { return static_cast<int32_t>(ops_.size()); }
  uint64_t program_digest() const { return program_digest_; }
  // Program::Digest2 of the decoded program — the cache's hit-time collision
  // check (see TraceCache::Acquire).
  uint64_t program_check() const { return program_check_; }
  Uarch uarch() const { return uarch_; }

 private:
  std::vector<DecodedOp> ops_;
  uint64_t program_digest_;
  uint64_t program_check_;
  Uarch uarch_;
};

// Process-wide, mutex-protected cache of decoded traces keyed by
// (Program::Digest, Uarch). Entries are shared_ptr<const ...> so a cached
// trace stays alive for machines still running it even if the cache is
// cleared concurrently.
//
// Bounded by second-chance eviction: once kMaxEntries distinct keys are
// live, each insert evicts exactly one victim — a clock hand sweeps the
// entries, skipping (and unmarking) everything referenced since its last
// pass, so a hot working set survives a long stream of cold keys. (An
// earlier version dropped the whole table at the boundary; on heterogeneous
// million-cell sweeps that caused a re-decode stampede every 4096 distinct
// programs — the `evictions` counter plus the no-cliff check in
// TraceCacheTest.HotWorkingSetSurvivesColdStream keep that from coming
// back.)
//
// Collision guard: a hit must match the key digest, the program length, and
// Program::Digest2 (stored per trace). Digest alone is 64-bit FNV — good,
// but a silent collision would execute the *wrong decoded trace*; with the
// independent second hash a wrong-trace handout needs two simultaneous
// 64-bit collisions. A check mismatch counts as `collisions` and is treated
// as a miss (the colliding entry is overwritten).
class TraceCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
    uint64_t evictions = 0;   // single-entry second-chance evictions
    uint64_t collisions = 0;  // hits rejected by the Digest2/length check
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  static constexpr size_t kMaxEntries = 4096;

  static TraceCache& Global();

  // Returns the decoded trace for (program, uarch), decoding on first use.
  std::shared_ptr<const DecodedTrace> Acquire(const Program& program, Uarch uarch);

  // Same as Acquire but with the key digest forced — the only way to test
  // the collision guard, since finding a real 64-bit FNV collision is not
  // practical in a unit test.
  std::shared_ptr<const DecodedTrace> AcquireWithDigestForTesting(const Program& program,
                                                                  Uarch uarch,
                                                                  uint64_t forced_digest);

  Stats stats() const;
  void ResetStats();
  // Drops all entries (tests; in-flight shared_ptrs stay valid).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const DecodedTrace> trace;
    // Second-chance bit: set on every hit, cleared when the clock hand
    // passes; an entry is only evicted if unreferenced since the last sweep.
    bool referenced = false;
  };
  using EntryMap = std::map<std::pair<uint64_t, Uarch>, Entry>;

  std::shared_ptr<const DecodedTrace> AcquireImpl(const Program& program, Uarch uarch,
                                                  uint64_t digest);
  // Evicts one victim via the clock hand. Caller holds mu_; the map is
  // non-empty.
  void EvictOneLocked();

  mutable std::mutex mu_;
  EntryMap entries_;
  // Clock hand for second-chance eviction: the key to resume the sweep at
  // (kept as a key, not an iterator, so erase/insert cannot dangle it).
  std::pair<uint64_t, Uarch> clock_{0, Uarch{}};
  bool clock_valid_ = false;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t collisions_ = 0;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_DECODED_TRACE_H_
