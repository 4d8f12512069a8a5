// Speculative-episode engine: wrong-path interpretation after a
// misprediction, with its own register file copy, store set and RSB/call
// stack snapshots. Episodes have no architectural effects but leave real
// microarchitectural traces (cache fills, fill-buffer samples, divider
// activity) — and report themselves to the cycle accountant (OnEpisode, with
// the divider-active cycles the paper's probe keys on).
#include <algorithm>
#include <map>
#include <vector>

#include "src/uarch/machine.h"
#include "src/uarch/machine_internal.h"

namespace specbench {

using minternal::AluCompute;
using minternal::EffectiveAddress;
using minternal::kNeverReady;

uint64_t Machine::SpeculativeLoad(uint64_t vaddr, uint64_t at,
                                  const std::map<uint64_t, uint64_t>& spec_stores,
                                  bool* completed) {
  *completed = true;
  pmcs_[static_cast<size_t>(Pmc::kSpeculativeLoads)]++;

  // Younger speculative stores forward first.
  if (auto it = spec_stores.find(AlignWord(vaddr)); it != spec_stores.end()) {
    return it->second;
  }

  const Translation t = Translate(vaddr, mode_);
  if (!t.mapped) {
    // No translation at all. On MDS-vulnerable parts the load "completes"
    // with stale fill-buffer data (RIDL-style); otherwise it yields zero.
    if (effects_.mds_leak) {
      if (attribution_ != nullptr) {
        attribution_->OnFillBufferTouch();
      }
      return mem_.fill_buffers.Sample(vaddr);
    }
    return 0;
  }
  const uint64_t paddr = t.paddr;
  if (!t.present) {
    // L1 Terminal Fault: the present bit is ignored during speculation and
    // the stale physical address hits in the L1 on vulnerable parts.
    if (effects_.l1tf_leak && mem_.caches.LevelOf(paddr) == 1) {
      return mem_.memory.Read(paddr);
    }
    return 0;
  }
  if (!t.user_accessible && mode_ == Mode::kUser) {
    // Meltdown: vulnerable parts forward kernel data to transient uops.
    if (effects_.meltdown_leak) {
      const uint32_t latency = mem_.caches.Access(paddr);
      if (latency > mem_.caches.l1().latency()) {
        mem_.fill_buffers.RecordFill(paddr, mem_.memory.Read(paddr));
        if (attribution_ != nullptr) {
          attribution_->OnCacheFill();
        }
      }
      return mem_.memory.Read(paddr);
    }
    return 0;
  }

  // Ordinary speculative access: check store bypass, then touch the caches —
  // the persistent side effect that makes the cache a covert channel.
  if (const StoreBuffer::Entry* entry = mem_.store_buffer.FindNewest(paddr)) {
    if (entry->resolve_at > at) {
      if (!effects_.ssb_bypass) {
        // SSBD (or SSB_NO silicon): no bypass; the load waits out the
        // episode rather than reading stale memory.
        *completed = false;
        return 0;
      }
      // Speculative Store Bypass: read stale memory under the store.
      mem_.caches.Access(paddr);
      return mem_.memory.Read(paddr);
    }
    return entry->value;
  }
  const uint32_t latency = mem_.caches.Access(paddr);
  if (latency > mem_.caches.l1().latency()) {
    mem_.fill_buffers.RecordFill(paddr, mem_.memory.Read(paddr));
    if (attribution_ != nullptr) {
      attribution_->OnCacheFill();
    }
  }
  return mem_.memory.Read(paddr);
}

void Machine::RunSpeculativeEpisode(int32_t index, uint64_t t0, uint64_t budget) {
  if (index < 0 || index >= code_size_) {
    return;
  }
  const uint64_t divider_before = pmcs_[static_cast<size_t>(Pmc::kArithDividerActive)];
  SpeculativeEpisodeBody(index, t0, budget);
  if (attribution_ != nullptr) {
    attribution_->OnEpisode(pmcs_[static_cast<size_t>(Pmc::kArithDividerActive)] -
                            divider_before);
  }
}

void Machine::SpeculativeEpisodeBody(int32_t index, uint64_t t0, uint64_t budget) {
  SpecRegs s{regs_, ready_at_};
  std::map<uint64_t, uint64_t> spec_stores;
  std::vector<uint64_t> spec_rsb = frontend_.rsb.Snapshot();
  std::vector<uint64_t> spec_call_sites = frontend_.call_site_stack;

  const uint64_t deadline = t0 + budget;
  uint64_t t = t0;
  int32_t idx = index;

  while (t < deadline && idx >= 0 && idx < code_size_) {
    const Instruction& in = code_[idx];
    pmcs_[static_cast<size_t>(Pmc::kSquashedUops)]++;
    t++;

    // Source readiness on the speculative timeline, over the sources the
    // decoder selected (src/isa/decode.cc).
    const DecodedOp& decoded = code_ops_[idx];
    uint64_t srcs = 0;
    for (uint8_t i = 0; i < decoded.num_srcs; i++) {
      srcs = std::max(srcs, s.ready_at[decoded.srcs[i]]);
    }
    const uint64_t exec_at = std::max(t, srcs);
    const bool executable = exec_at < deadline;
    auto spec_write = [&](uint8_t dst, uint64_t value, uint64_t ready) {
      if (dst != kNoReg) {
        s.value[dst] = value;
        s.ready_at[dst] = ready;
      }
    };
    auto mark_unready = [&](uint8_t dst) {
      if (dst != kNoReg) {
        s.ready_at[dst] = kNeverReady;
      }
    };

    int32_t next = idx + 1;
    switch (in.op) {
      case Op::kNop:
        break;
      case Op::kMovImm:
        spec_write(in.dst, static_cast<uint64_t>(in.imm), t);
        break;
      case Op::kMov:
        if (executable) {
          spec_write(in.dst, s.value[in.src1], exec_at + 1);
        } else {
          mark_unready(in.dst);
        }
        break;
      case Op::kAlu: {
        if (executable) {
          const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : s.value[in.src2];
          spec_write(in.dst, AluCompute(in.alu, s.value[in.src1], b),
                     exec_at + cpu_.latency.alu);
        } else {
          mark_unready(in.dst);
        }
        break;
      }
      case Op::kMul: {
        if (executable) {
          const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : s.value[in.src2];
          spec_write(in.dst, s.value[in.src1] * b, exec_at + cpu_.latency.mul);
        } else {
          mark_unready(in.dst);
        }
        break;
      }
      case Op::kDiv: {
        if (executable) {
          const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : s.value[in.src2];
          spec_write(in.dst, b == 0 ? 0 : s.value[in.src1] / b, exec_at + cpu_.latency.div);
          // The observable the paper's probe keys on: speculatively executed
          // divides keep the divider busy (§6.1).
          pmcs_[static_cast<size_t>(Pmc::kArithDividerActive)] += cpu_.latency.div;
        } else {
          mark_unready(in.dst);
        }
        break;
      }
      case Op::kCmov: {
        // The index-masking barrier: the result waits on the condition, so
        // dependent loads cannot issue until the bounds check resolves.
        // Fusion hardware (§7) instead resolves immediately to the *safe*
        // (condition-false) value when the guard is still unresolved, so
        // dependents proceed without ever seeing unmasked data.
        if (executable) {
          const uint64_t value = s.value[in.src2] != 0 ? s.value[in.src1] : s.value[in.dst];
          spec_write(in.dst, value, exec_at + 1);
        } else if (effects_.cmov_load_fusion) {
          spec_write(in.dst, s.value[in.dst], t + 1);  // masked/safe default
        } else {
          mark_unready(in.dst);
        }
        break;
      }
      case Op::kLea:
        if (executable) {
          spec_write(in.dst, EffectiveAddress(in, s.value), exec_at + 1);
        } else {
          mark_unready(in.dst);
        }
        break;
      case Op::kLoad: {
        if (executable) {
          bool completed = false;
          const uint64_t vaddr = EffectiveAddress(in, s.value);
          const uint64_t value = SpeculativeLoad(vaddr, exec_at, spec_stores, &completed);
          if (completed) {
            spec_write(in.dst, value, exec_at + mem_.caches.l1().latency());
          } else {
            mark_unready(in.dst);
          }
        } else {
          mark_unready(in.dst);
        }
        break;
      }
      case Op::kStore:
        if (executable) {
          spec_stores[AlignWord(EffectiveAddress(in, s.value))] = s.value[in.src1];
        }
        break;
      case Op::kJmp:
        next = in.target;
        break;
      case Op::kBranchNz:
      case Op::kBranchZ:
      case Op::kBranchEqImm: {
        // Nested branches follow the predictor; no nested squash modelling.
        const uint64_t pc = program_->VaddrOf(idx);
        const bool taken = frontend_.cond.Predict(pc);
        next = taken ? in.target : idx + 1;
        break;
      }
      case Op::kCall: {
        const uint64_t ret_vaddr = program_->VaddrOf(idx + 1);
        if (spec_rsb.size() == cpu_.predictor.rsb_depth) {
          spec_rsb.erase(spec_rsb.begin());
        }
        spec_rsb.push_back(ret_vaddr);
        spec_call_sites.push_back(program_->VaddrOf(idx));
        spec_stores[AlignWord(s.value[kRegSp] - 8)] = ret_vaddr;
        s.value[kRegSp] -= 8;
        next = in.target;
        break;
      }
      case Op::kRet: {
        if (spec_rsb.empty()) {
          return;  // no prediction: the speculative front end stalls
        }
        const uint64_t predicted = spec_rsb.back();
        spec_rsb.pop_back();
        if (!spec_call_sites.empty()) {
          spec_call_sites.pop_back();
        }
        s.value[kRegSp] += 8;
        const int32_t target = program_->IndexOf(predicted);
        if (target < 0) {
          return;  // stuffed/benign RSB entry: speculation goes nowhere
        }
        next = target;
        break;
      }
      case Op::kIndirectJmp:
      case Op::kIndirectCall: {
        if (!PredictionAllowed(mode_)) {
          return;
        }
        const Btb::Prediction pred =
            frontend_.btb.Predict(program_->VaddrOf(idx), mode_,
                                  FrontendUnit::ContextHash(spec_call_sites),
                                  effects_.btb_thread_tag);
        if (!pred.hit) {
          return;
        }
        if (in.op == Op::kIndirectCall) {
          const uint64_t ret_vaddr = program_->VaddrOf(idx + 1);
          if (spec_rsb.size() == cpu_.predictor.rsb_depth) {
            spec_rsb.erase(spec_rsb.begin());
          }
          spec_rsb.push_back(ret_vaddr);
          spec_call_sites.push_back(program_->VaddrOf(idx));
          spec_stores[AlignWord(s.value[kRegSp] - 8)] = ret_vaddr;
          s.value[kRegSp] -= 8;
        }
        const int32_t target = program_->IndexOf(pred.target);
        if (target < 0) {
          return;
        }
        next = target;
        break;
      }
      case Op::kPause:
        t++;  // costs an extra slot and nothing else
        break;
      case Op::kRdtsc:
      case Op::kRdpmc:
        spec_write(in.dst, t, t + 1);
        break;
      case Op::kFpToGp: {
        if (!fpu_enabled_) {
          // LazyFP: vulnerable parts forward the *stale* FP registers of the
          // previous FPU owner to transient consumers.
          spec_write(in.dst, effects_.lazy_fp_leak ? fpregs_[in.imm & (kNumFpRegs - 1)] : 0,
                     exec_at + cpu_.latency.fp_op);
        } else if (executable) {
          spec_write(in.dst, fpregs_[in.imm & (kNumFpRegs - 1)], exec_at + cpu_.latency.fp_op);
        } else {
          mark_unready(in.dst);
        }
        break;
      }
      default:
        // No case above is in the opcode table's stop set (CI's "One opcode
        // table" guard keeps it so), so the stop test costs the cased
        // opcodes nothing.
        if (IsSerializing(in.op)) {
          return;  // speculation cannot pass it
        }
        break;  // clflush, gp_to_fp, fp_op, swapgs: no speculative side effects modelled
    }
    idx = next;
  }
}

}  // namespace specbench
