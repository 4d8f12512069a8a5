// CycleAttribution: the machine's cycle accountant. It folds what the
// pipeline components report into per-mitigation cycle totals, without
// difference-of-runs.
//
// A Machine holds at most one accountant (Machine::SetCycleAttribution);
// with none attached every accounting site is one branch on a null pointer.
// The components call the concrete inline methods below directly: no event
// is built and nothing is dispatched through a virtual call.
//
// Accounting contract (enforced by the Step() epilogue in machine.cc): for
// every retired instruction, the issue-clock advance decomposes into
//   * untagged serialization/backpressure slack (OnStall with cause kNone),
//   * explicit cause-tagged stalls (SSBD discipline, eIBRS scrubs) and
//     external charges (AddCycles from OS hooks), and
//   * the instruction's direct cost, charged to its static CauseTag
//     (OnRetire).
// Summing all three classes therefore reproduces the issue clock exactly;
// bucketing them by cause yields the attribution.
//
// Measurement windows: workloads bracket their timed region with
// lfence+rdtsc pairs. The accountant snapshots its totals at every rdtsc
// issue; the difference between the first and last snapshot is the
// in-window attribution and (because of the fence) matches the workload's
// own t1 - t0 cycle count exactly. docs/uarch.md discusses how this compares
// with the §4.1 difference-of-runs estimate and where the two diverge.
#ifndef SPECTREBENCH_SRC_UARCH_CYCLE_ATTRIBUTION_H_
#define SPECTREBENCH_SRC_UARCH_CYCLE_ATTRIBUTION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/isa/isa.h"

namespace specbench {

inline constexpr size_t kNumCauseTags = static_cast<size_t>(CauseTag::kCount);

class CycleAttribution {
 public:
  struct Totals {
    std::array<uint64_t, kNumCauseTags> cause_cycles{};
    uint64_t total_cycles = 0;

    uint64_t Cause(CauseTag tag) const {
      return cause_cycles[static_cast<size_t>(tag)];
    }
  };

  // --- Accounting (called by the machine) ---------------------------------
  // An instruction committed; `direct_cycles` is the issue-clock advance
  // left to its own cause once stalls and charges were reported.
  void OnRetire(CauseTag cause, uint64_t direct_cycles) {
    retired_++;
    Charge(cause, direct_cycles);
  }
  // Issue waited: fences, SSBD discipline, eIBRS scrubs, ROB backpressure.
  void OnStall(CauseTag cause, uint64_t cycles) {
    if (cause == CauseTag::kNone) {
      untagged_stall_cycles_ += cycles;
    }
    Charge(cause, cycles);
  }
  // Cycles charged outside instruction execution (AddCycles: OS handler
  // work, IBPB on switch, ...).
  void OnExternalCharge(CauseTag cause, uint64_t cycles) {
    external_cycles_ += cycles;
    Charge(cause, cycles);
  }
  // An rdtsc issued: a measurement boundary.
  void OnRdtsc() { snapshots_.push_back(totals_); }
  // A speculative episode ran and was squashed after `divider_cycles` of
  // divider activity.
  void OnEpisode(uint64_t divider_cycles) {
    episodes_++;
    episode_divider_cycles_ += divider_cycles;
  }
  void OnCacheFill() { cache_fills_++; }
  void OnFillBufferTouch() { fill_buffer_touches_++; }
  void OnTlbFlush() { tlb_flushes_++; }
  void OnStoreBufferDrain(uint64_t entries) { store_buffer_drains_ += entries; }

  void Reset();

  // --- Readout ------------------------------------------------------------
  // Cumulative since attach (or Reset).
  const Totals& totals() const { return totals_; }
  uint64_t retired() const { return retired_; }
  uint64_t episodes() const { return episodes_; }
  uint64_t episode_divider_cycles() const { return episode_divider_cycles_; }
  uint64_t untagged_stall_cycles() const { return untagged_stall_cycles_; }
  uint64_t external_cycles() const { return external_cycles_; }
  uint64_t cache_fills() const { return cache_fills_; }
  uint64_t fill_buffer_touches() const { return fill_buffer_touches_; }
  uint64_t tlb_flushes() const { return tlb_flushes_; }
  uint64_t store_buffer_drains() const { return store_buffer_drains_; }

  // Totals snapshotted at each rdtsc issue (measurement boundaries).
  const std::vector<Totals>& rdtsc_snapshots() const { return snapshots_; }
  // In-window view: difference between the last and first rdtsc snapshot.
  // Requires at least two snapshots.
  bool HasWindow() const { return snapshots_.size() >= 2; }
  uint64_t WindowTotalCycles() const;
  uint64_t WindowCauseCycles(CauseTag tag) const;

 private:
  void Charge(CauseTag cause, uint64_t cycles) {
    totals_.cause_cycles[static_cast<size_t>(cause)] += cycles;
    totals_.total_cycles += cycles;
  }

  Totals totals_;
  uint64_t retired_ = 0;
  uint64_t episodes_ = 0;
  uint64_t episode_divider_cycles_ = 0;
  uint64_t untagged_stall_cycles_ = 0;
  uint64_t external_cycles_ = 0;
  uint64_t cache_fills_ = 0;
  uint64_t fill_buffer_touches_ = 0;
  uint64_t tlb_flushes_ = 0;
  uint64_t store_buffer_drains_ = 0;
  std::vector<Totals> snapshots_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_CYCLE_ATTRIBUTION_H_
