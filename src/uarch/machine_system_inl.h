// System / privilege-transition execution paths: fences, syscall/sysret,
// address-space switches, MSR traffic, buffer clears and flushes, VM
// transitions and simulator call-outs. Mitigation behaviour is read off the
// compiled MitigationEffects policy — never off raw config or vuln flags.
//
// Private to machine.cc, the step's translation unit: only it includes this
// header, so Step and RunPartial's loop inline the handler.
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_SYSTEM_INL_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_SYSTEM_INL_H_

#include <algorithm>

#include "src/uarch/machine.h"
#include "src/uarch/machine_internal.h"
#include "src/util/check.h"

namespace specbench {

inline int32_t Machine::StepSystem(const Instruction& in, uint64_t srcs_ready) {
  (void)srcs_ready;
  int32_t next = rip_ + 1;
  switch (in.op) {
    case Op::kLfence:
      Serialize();
      now_ += cpu_.latency.lfence;
      break;
    case Op::kMfence:
      Serialize();
      DrainStoreBuffer();
      now_ += cpu_.latency.lfence + 5;
      break;
    case Op::kSyscall: {
      SPECBENCH_CHECK_MSG(mode_ == Mode::kUser || mode_ == Mode::kGuestUser,
                          "syscall from non-user mode");
      Serialize();
      now_ += cpu_.latency.syscall;
      saved_user_rip_ = program_->VaddrOf(rip_ + 1);
      mode_ = mode_ == Mode::kUser ? Mode::kKernel : Mode::kGuestKernel;
      pmcs_[static_cast<size_t>(Pmc::kKernelEntries)]++;
      // §6.2.2: eIBRS parts periodically scrub kernel predictor state on
      // entry, observed as bimodal syscall latency.
      if (effects_.eibrs_scrub_period != 0 &&
          ++frontend_.kernel_entry_counter % effects_.eibrs_scrub_period == 0) {
        ChargeStall(effects_.eibrs_scrub_cycles, CauseTag::kSpectreV2);
        frontend_.btb.FlushKernelEntries();
      }
      const int32_t entry = program_->IndexOf(syscall_entry_);
      SPECBENCH_CHECK_MSG(entry >= 0, "syscall entry point not configured");
      next = entry;
      break;
    }
    case Op::kSysret: {
      SPECBENCH_CHECK_MSG(IsKernelMode(mode_), "sysret from user mode");
      Serialize();
      now_ += cpu_.latency.sysret;
      mode_ = mode_ == Mode::kGuestKernel ? Mode::kGuestUser : Mode::kUser;
      const int32_t target = program_->IndexOf(saved_user_rip_);
      SPECBENCH_CHECK_MSG(target >= 0, "sysret to address outside the program");
      next = target;
      break;
    }
    case Op::kSwapgs:
      now_ += cpu_.latency.swapgs;
      break;
    case Op::kMovCr3: {
      Serialize();
      now_ += cpu_.latency.swap_cr3;
      cr3_ = regs_[in.src1];
      if (effects_.flush_tlb_on_cr3_write) {
        mem_.tlb.FlushAll();
        if (attribution_ != nullptr) {
          attribution_->OnTlbFlush();
        }
      }
      break;
    }
    case Op::kVerw: {
      Serialize();
      now_ += effects_.verw_cycles;
      if (effects_.verw_clears_buffers) {
        // Microcode-patched verw: clears fill buffers, store buffer, ports.
        mem_.fill_buffers.Clear();
        DrainStoreBuffer();
        if (attribution_ != nullptr) {
          attribution_->OnFillBufferTouch();
        }
      }
      break;
    }
    case Op::kWrmsr: {
      Serialize();
      const uint32_t msr = static_cast<uint32_t>(in.imm);
      const uint64_t value = regs_[in.src1];
      if (msr == kMsrSpecCtrl) {
        now_ += cpu_.latency.wrmsr_spec_ctrl;
        msr_spec_ctrl_ = MitigationEffects::ClampSpecCtrl(cpu_, value);
        RecompileEffects();
      } else if (msr == kMsrPredCmd) {
        if ((value & kPredCmdIbpb) != 0) {
          now_ += cpu_.latency.ibpb;
          frontend_.btb.FlushAll();
        } else {
          now_ += cpu_.latency.wrmsr_other;
        }
      } else if (msr == kMsrFlushCmd) {
        if ((value & 1) != 0) {
          now_ += cpu_.latency.flush_l1d;
          mem_.caches.FlushL1();
        } else {
          now_ += cpu_.latency.wrmsr_other;
        }
      } else {
        now_ += cpu_.latency.wrmsr_other;
        msr_other_[msr] = value;
      }
      break;
    }
    case Op::kRdmsr: {
      Serialize();
      now_ += cpu_.latency.wrmsr_other / 2;
      const uint32_t msr = static_cast<uint32_t>(in.imm);
      uint64_t value = 0;
      if (msr == kMsrSpecCtrl) {
        value = msr_spec_ctrl_;
      } else if (auto it = msr_other_.find(msr); it != msr_other_.end()) {
        value = it->second;
      }
      WriteReg(in.dst, value, now_ + 1);
      break;
    }
    case Op::kFlushL1d:
      Serialize();
      mem_.caches.FlushL1();
      now_ += cpu_.latency.flush_l1d;
      break;
    case Op::kRsbStuff:
      // Stuff all RSB slots with benign entries (outside the program, so
      // speculation through them goes nowhere).
      frontend_.rsb.Stuff(0);
      now_ += cpu_.latency.rsb_stuff;
      break;
    case Op::kXsave:
      Serialize();
      now_ += cpu_.latency.xsave;
      break;
    case Op::kXrstor:
      Serialize();
      now_ += cpu_.latency.xrstor;
      break;
    case Op::kCpuid:
      Serialize();
      now_ += cpu_.latency.cpuid;
      break;
    case Op::kVmEnter: {
      SPECBENCH_CHECK_MSG(mode_ == Mode::kHost || mode_ == Mode::kKernel,
                          "vm_enter from non-host mode");
      Serialize();
      now_ += cpu_.latency.vm_enter;
      saved_host_rip_ = program_->VaddrOf(rip_ + 1);
      mode_ = Mode::kGuestKernel;
      const int32_t target = program_->IndexOf(guest_resume_rip_);
      SPECBENCH_CHECK_MSG(target >= 0, "guest resume point not configured");
      next = target;
      break;
    }
    case Op::kVmExit: {
      SPECBENCH_CHECK_MSG(mode_ == Mode::kGuestKernel || mode_ == Mode::kGuestUser,
                          "vm_exit from non-guest mode");
      Serialize();
      now_ += cpu_.latency.vm_exit;
      guest_resume_rip_ = program_->VaddrOf(rip_ + 1);
      mode_ = Mode::kHost;
      const int32_t target = program_->IndexOf(vm_exit_handler_);
      SPECBENCH_CHECK_MSG(target >= 0, "vm exit handler not configured");
      next = target;
      break;
    }
    case Op::kKcall: {
      auto it = kcall_hooks_.find(in.imm);
      SPECBENCH_CHECK_MSG(it != kcall_hooks_.end(), "kKcall with unregistered hook id");
      now_++;
      it->second(*this);
      break;
    }
    case Op::kHalt:
      halted_ = true;
      now_++;
      break;
    default:
      SPECBENCH_CHECK_MSG(false, "non-system opcode in StepSystem");
  }
  return next;
}

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MACHINE_SYSTEM_INL_H_
