// Branch prediction structures: BTB, RSB, conditional predictor.
//
// These are the attack surface of Spectre V2 / SpectreRSB and the thing the
// paper's §6 probe characterizes. The BTB implements the per-generation
// policies that generate Tables 9 and 10:
//   * pre-eIBRS parts: entries shared across privilege modes, and legacy
//     IBRS=1 turns prediction off entirely (paper §6.2.1);
//   * eIBRS parts (Cascade Lake / Ice Lake): entries tagged with the
//     privilege mode, so cross-mode training never hits (§6.2.2);
//   * Zen 3: the index incorporates caller/branch-history context, so
//     training from one call site does not steer a branch executed from
//     another (§6.2 "we did not manage to poison the BTB at all").
#ifndef SPECTREBENCH_SRC_UARCH_PREDICTORS_H_
#define SPECTREBENCH_SRC_UARCH_PREDICTORS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/isa/isa.h"

namespace specbench {

// Branch Target Buffer.
class Btb {
 public:
  explicit Btb(const PredictorPolicy& policy);

  struct Prediction {
    bool hit = false;
    uint64_t target = 0;
  };

  // Looks up a predicted target for the indirect branch at `pc`, executed in
  // `mode` with branch-history context `context` (only used when the policy
  // is BHB-indexed). `smt_thread` partitions entries between hyperthread
  // siblings when STIBP is active (0 otherwise).
  Prediction Predict(uint64_t pc, Mode mode, uint64_t context, uint64_t smt_thread = 0) const;

  // Installs/updates the mapping pc -> target (at branch retirement).
  void Train(uint64_t pc, uint64_t target, Mode mode, uint64_t context,
             uint64_t smt_thread = 0);

  // IBPB: invalidate everything.
  void FlushAll();
  // eIBRS periodic scrub (§6.2.2): drop entries trained in kernel mode.
  void FlushKernelEntries();
  // As-new state (machine reuse); identical to FlushAll today but kept
  // separate so reset semantics stay explicit if the BTB grows stats.
  void Reset() { entries_.clear(); }

  size_t size() const { return entries_.size(); }

 private:
  uint64_t KeyFor(uint64_t pc, Mode mode, uint64_t context, uint64_t smt_thread) const;

  PredictorPolicy policy_;
  struct Entry {
    uint64_t target = 0;
    Mode mode = Mode::kUser;
  };
  std::unordered_map<uint64_t, Entry> entries_;
};

// Return Stack Buffer: a fixed-depth stack of predicted return targets.
// Overflow drops the oldest entry; underflow returns no prediction (the
// machine then falls back to the BTB, which is the SpectreRSB surface).
class Rsb {
 public:
  explicit Rsb(uint32_t depth);

  void Push(uint64_t return_vaddr);
  // Pops the predicted return target; hit=false on underflow.
  struct Prediction {
    bool hit = false;
    uint64_t target = 0;
  };
  Prediction Pop();

  // RSB stuffing: fill all slots with `benign_target` (mitigation for
  // interrupted-retpoline and SpectreRSB, paper §5.3).
  void Stuff(uint64_t benign_target);
  void Clear();
  // As-new state: Clear() alone keeps the underflow count, which is exactly
  // the cross-run residue Machine::Reset must flush.
  void Reset() {
    stack_.clear();
    underflows_ = 0;
  }

  uint32_t depth() const { return depth_; }
  size_t size() const { return stack_.size(); }
  uint64_t underflows() const { return underflows_; }

  // Snapshot/restore support for speculative episodes (the speculative
  // engine pops from a copy so squash restores the committed state).
  std::vector<uint64_t> Snapshot() const { return stack_; }
  void Restore(std::vector<uint64_t> snapshot) { stack_ = std::move(snapshot); }

 private:
  uint32_t depth_;
  std::vector<uint64_t> stack_;
  uint64_t underflows_ = 0;
};

// Conditional branch predictor: per-PC 2-bit saturating counters.
class CondPredictor {
 public:
  explicit CondPredictor(uint32_t entries = 4096);

  // Defined inline: every conditional branch step calls both.
  bool Predict(uint64_t pc) const { return counters_[(pc >> 2) & index_mask_] >= 2; }
  void Train(uint64_t pc, bool taken) {
    uint8_t& counter = counters_[(pc >> 2) & index_mask_];
    if (taken && counter < 3) {
      counter++;
    } else if (!taken && counter > 0) {
      counter--;
    }
  }
  void Reset();

 private:
  uint32_t index_mask_;
  std::vector<uint8_t> counters_;  // 0..3; >=2 predicts taken
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_PREDICTORS_H_
