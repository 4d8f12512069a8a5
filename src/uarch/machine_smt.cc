// SMT co-residence driver: two explicit hardware contexts in lockstep on
// the shared pipeline.
//
// The fetch arbiter (src/uarch/frontend.h) round-robins fixed-size fetch
// granules between the runnable contexts. The granted context issues onto
// the *shared* clock (`now_`) against the *shared* retirement frontier —
// port and scoreboard contention fall out of the existing timing model with
// no changes to Step() — and touches the shared caches, TLB, fill buffers,
// store buffer and predictors. What a context owns privately is its
// architectural state (ThreadContext), its RSB partition and call-site
// history (statically partitioned, as on real SMT parts), and its predictor
// identity: the SMT thread id that tags BTB entries when STIBP is active.
//
// Determinism contract: arbitration is a pure function of the runnable bits
// and the grant history, contexts are activated in spec order, and no host
// state is consulted — so a co-resident run is byte-identical across
// machines, jobs and repetitions. One-context runs (b.program == nullptr,
// or a sibling that halted) stream through the arbiter untouched and are
// bit-identical to RunPartial; tests/uarch_smt_test.cc enforces both.
#include "src/uarch/machine.h"

#include "src/util/check.h"

namespace specbench {

void Machine::ParkHardwareContext(int i) {
  HardwareContext& hw = hw_[i];
  hw.arch = SaveContext();
  hw.rsb = frontend_.rsb.Snapshot();
  hw.call_sites = frontend_.call_site_stack;
  hw.halted = halted_;
}

void Machine::ActivateHardwareContext(int i) {
  HardwareContext& hw = hw_[i];
  program_ = hw.program;
  decoded_ = hw.decoded;
  RefreshCodeView();
  smt_thread_id_ = hw.smt_thread_id;
  stibp_active_ = hw.stibp;
  RestoreContext(hw.arch);  // recompiles the mitigation policy
  frontend_.rsb.Restore(hw.rsb);
  frontend_.call_site_stack = hw.call_sites;
  const int32_t entry = program_->IndexOf(hw.arch.resume_rip);
  SPECBENCH_CHECK_MSG(entry >= 0, "co-resident resume point not inside its program");
  rip_ = entry;
  halted_ = false;
  active_hw_ = i;
}

Machine::CoResidentResult Machine::RunCoResident(const CoResidentSpec& a,
                                                 const CoResidentSpec& b,
                                                 uint64_t fetch_granule) {
  SPECBENCH_CHECK_MSG(a.program != nullptr, "RunCoResident needs thread a");
  SPECBENCH_CHECK(fetch_granule > 0);
  if (program_ == nullptr) {
    LoadProgram(a.program);
  }

  const CoResidentSpec* specs[2] = {&a, &b};
  for (int i = 0; i < 2; i++) {
    HardwareContext& hw = hw_[i];
    hw = HardwareContext{};
    const CoResidentSpec& spec = *specs[i];
    if (spec.program == nullptr) {
      continue;  // one-context (smt-off) degenerate case
    }
    hw.program = spec.program;
    hw.decoded = spec.program == program_
                     ? decoded_
                     : TraceCache::Global().Acquire(*spec.program, cpu_.uarch);
    // Each thread context starts from the machine state the caller set up,
    // with its own entry point and register overrides on top. Thread 0
    // additionally inherits the live RSB / call-site history (it *is* the
    // thread that was running); thread 1 comes up empty.
    hw.arch = SaveContext();
    for (const auto& [r, v] : spec.initial_regs) {
      SPECBENCH_CHECK(r < kNumRegs);
      hw.arch.regs[r] = v;
      hw.arch.ready_at[r] = 0;
    }
    hw.arch.resume_rip = spec.entry_vaddr;
    hw.smt_thread_id = spec.smt_thread_id;
    hw.stibp = spec.stibp;
    hw.budget = spec.max_instructions;
    if (i == 0) {
      hw.rsb = frontend_.rsb.Snapshot();
      hw.call_sites = frontend_.call_site_stack;
    }
  }

  frontend_.arbiter.Reset();
  active_hw_ = -1;
  const uint64_t cycles_before = cycles();

  while (true) {
    const int grant = frontend_.arbiter.Grant(hw_[0].runnable(), hw_[1].runnable());
    if (grant < 0) {
      break;
    }
    if (grant != active_hw_) {
      if (active_hw_ >= 0) {
        ParkHardwareContext(active_hw_);
      }
      ActivateHardwareContext(grant);
    }
    HardwareContext& hw = hw_[grant];
    for (uint64_t slot = 0;
         slot < fetch_granule && !halted_ && hw.instructions < hw.budget;
         slot++) {
      Step();
      hw.instructions++;
    }
    hw.halted = halted_;
    if (!hw.runnable() && hw.finish_cycles == 0) {
      // The cycle this thread stopped issuing — the only clock a co-resident
      // attacker can actually read (its own completion time).
      hw.finish_cycles = cycles();
    }
  }
  if (active_hw_ >= 0) {
    ParkHardwareContext(active_hw_);
    active_hw_ = -1;
  }

  CoResidentResult result;
  result.cycles = cycles() - cycles_before;
  for (int i = 0; i < 2; i++) {
    const HardwareContext& hw = hw_[i];
    result.thread[i].instructions = hw.instructions;
    result.thread[i].halted = hw.program != nullptr && hw.halted;
    result.thread[i].finish_cycles = hw.finish_cycles;
    result.thread[i].resume_rip =
        hw.program != nullptr && !hw.halted ? hw.arch.resume_rip : 0;
  }
  return result;
}

}  // namespace specbench
