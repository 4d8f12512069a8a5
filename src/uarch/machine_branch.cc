// Frontend / prediction unit execution paths: direct and conditional
// branches, calls, returns and indirect branches — every place the BTB, RSB
// and conditional predictor are consulted or trained, and every place a
// misprediction spawns a speculative episode.
#include <algorithm>

#include "src/uarch/machine.h"
#include "src/uarch/machine_internal.h"
#include "src/util/check.h"

namespace specbench {

using minternal::kAddrResolveDelay;
using minternal::kMinSpecWindow;

int32_t Machine::StepBranch(const Instruction& in, uint64_t pc, uint64_t srcs_ready) {
  int32_t next = rip_ + 1;
  switch (in.op) {
    case Op::kJmp:
      next = in.target;
      now_ += cpu_.latency.branch_base;
      break;
    case Op::kBranchNz:
    case Op::kBranchZ:
    case Op::kBranchEqImm: {
      const uint64_t resolve_at = std::max(now_, srcs_ready);
      const bool value_nz = regs_[in.src1] != 0;
      const bool taken =
          in.op == Op::kBranchEqImm
              ? regs_[in.src1] == static_cast<uint64_t>(in.imm)
              : (in.op == Op::kBranchNz ? value_nz : !value_nz);
      const bool predicted_taken = frontend_.cond.Predict(pc);
      frontend_.cond.Train(pc, taken);
      if (predicted_taken == taken) {
        now_ += cpu_.latency.branch_base;
      } else {
        // Wrong path: executes from the predicted direction until the
        // condition resolves (bounded by the speculation window).
        const uint64_t budget =
            std::clamp<uint64_t>(resolve_at > now_ ? resolve_at - now_ + kMinSpecWindow
                                                   : kMinSpecWindow,
                                 kMinSpecWindow, cpu_.speculation_window);
        RunSpeculativeEpisode(predicted_taken ? in.target : rip_ + 1, now_, budget);
        now_ = std::max(now_, resolve_at) + cpu_.latency.mispredict_penalty;
      }
      next = taken ? in.target : rip_ + 1;
      break;
    }
    case Op::kCall: {
      const uint64_t ret_vaddr = program_->VaddrOf(rip_ + 1);
      frontend_.rsb.Push(ret_vaddr);
      frontend_.PushCallSite(pc);
      // Push the return address through the store buffer (this is what a
      // retpoline overwrites).
      const uint64_t sp = regs_[kRegSp] - 8;
      WriteReg(kRegSp, sp, std::max(now_, ready_at_[kRegSp]) + 1);
      const Translation t = memory_map_->Translate(sp, cr3_, mode_);
      SPECBENCH_CHECK_MSG(t.valid, "call with unmapped stack");
      DrainResolvedStores(now_);
      BufferStore(t.paddr, ret_vaddr, now_ + cpu_.latency.store_resolve_delay,
                  now_ + kAddrResolveDelay);
      next = in.target;
      now_ += cpu_.latency.branch_base;
      break;
    }
    case Op::kRet: {
      const uint64_t sp = regs_[kRegSp];
      uint64_t ready_at = now_;
      const uint64_t actual = CommittedLoad(sp, std::max(now_, ready_at_[kRegSp]), &ready_at);
      WriteReg(kRegSp, sp + 8, std::max(now_, ready_at_[kRegSp]) + 1);
      frontend_.PopCallSite();
      const Rsb::Prediction pred = frontend_.rsb.Pop();
      if (pred.hit && pred.target == actual) {
        now_ += cpu_.latency.branch_base + 1;
      } else if (pred.hit) {
        // RSB top does not match the (possibly overwritten) return address:
        // the retpoline case. Speculation runs at the stale RSB target.
        const uint64_t budget = std::clamp<uint64_t>(
            ready_at > now_ ? ready_at - now_ + kMinSpecWindow : kMinSpecWindow,
            kMinSpecWindow, cpu_.speculation_window);
        RunSpeculativeEpisode(program_->IndexOf(pred.target), now_, budget);
        now_ = std::max(now_, ready_at) + cpu_.latency.mispredict_penalty;
        pmcs_[static_cast<size_t>(Pmc::kMispIndirect)]++;
      } else {
        // RSB underflow: fall back to the BTB (the SpectreRSB surface).
        pmcs_[static_cast<size_t>(Pmc::kRsbUnderflows)]++;
        Btb::Prediction btb_pred{};
        if (PredictionAllowed(mode_)) {
          btb_pred = frontend_.btb.Predict(pc, mode_, frontend_.CallerContext(),
                                           effects_.btb_thread_tag);
        }
        if (btb_pred.hit && btb_pred.target == actual) {
          now_ += cpu_.latency.indirect_predicted;
        } else if (btb_pred.hit) {
          const uint64_t budget = std::clamp<uint64_t>(
              ready_at > now_ ? ready_at - now_ + kMinSpecWindow : kMinSpecWindow,
              kMinSpecWindow, cpu_.speculation_window);
          RunSpeculativeEpisode(program_->IndexOf(btb_pred.target), now_, budget);
          now_ = std::max(now_, ready_at) + cpu_.latency.mispredict_penalty;
          pmcs_[static_cast<size_t>(Pmc::kMispIndirect)]++;
        } else {
          now_ = std::max(now_, ready_at) + cpu_.latency.frontend_redirect;
        }
      }
      const int32_t target = program_->IndexOf(actual);
      SPECBENCH_CHECK_MSG(target >= 0, "ret to address outside the program");
      next = target;
      break;
    }
    case Op::kIndirectJmp:
    case Op::kIndirectCall: {
      const uint64_t actual = regs_[in.src1];
      const uint64_t resolve_at = std::max(now_, srcs_ready);
      const bool allowed = PredictionAllowed(mode_);
      Btb::Prediction pred{};
      if (allowed) {
        pred = frontend_.btb.Predict(pc, mode_, frontend_.CallerContext(),
                                     effects_.btb_thread_tag);
      }
      if (pred.hit && pred.target == actual) {
        pmcs_[static_cast<size_t>(Pmc::kBtbHits)]++;
        now_ += cpu_.latency.indirect_predicted;
      } else if (pred.hit) {
        // BTB poisoned or stale: transient execution at the predicted target
        // until the true target resolves — the Spectre V2 mechanism.
        const uint64_t budget = std::clamp<uint64_t>(
            resolve_at > now_ ? resolve_at - now_ + kMinSpecWindow : kMinSpecWindow,
            kMinSpecWindow, cpu_.speculation_window);
        RunSpeculativeEpisode(program_->IndexOf(pred.target), now_, budget);
        now_ = std::max(now_, resolve_at) + cpu_.latency.mispredict_penalty;
        pmcs_[static_cast<size_t>(Pmc::kMispIndirect)]++;
      } else {
        // No prediction: the front end waits for the target. The paper notes
        // post-IBPB branches still count as mispredicts; we match that.
        now_ = std::max(now_, resolve_at) + cpu_.latency.indirect_predicted +
               cpu_.latency.frontend_redirect;
        pmcs_[static_cast<size_t>(Pmc::kMispIndirect)]++;
      }
      if (allowed) {
        frontend_.btb.Train(pc, actual, mode_, frontend_.CallerContext(),
                            effects_.btb_thread_tag);
      }
      if (in.op == Op::kIndirectCall) {
        const uint64_t ret_vaddr = program_->VaddrOf(rip_ + 1);
        frontend_.rsb.Push(ret_vaddr);
        frontend_.PushCallSite(pc);
        const uint64_t sp = regs_[kRegSp] - 8;
        WriteReg(kRegSp, sp, std::max(now_, ready_at_[kRegSp]) + 1);
        const Translation t = memory_map_->Translate(sp, cr3_, mode_);
        SPECBENCH_CHECK_MSG(t.valid, "indirect call with unmapped stack");
        DrainResolvedStores(now_);
        BufferStore(t.paddr, ret_vaddr, now_ + cpu_.latency.store_resolve_delay,
                    now_ + kAddrResolveDelay);
      }
      const int32_t target = program_->IndexOf(actual);
      SPECBENCH_CHECK_MSG(target >= 0, "indirect branch to address outside the program");
      next = target;
      break;
    }
    default:
      SPECBENCH_CHECK_MSG(false, "non-branch opcode in StepBranch");
  }
  return next;
}

}  // namespace specbench
