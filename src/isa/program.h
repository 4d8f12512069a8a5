// Program container and builder (a tiny assembler with labels).
//
// Every instruction has a virtual address (base + 4 * index) so that code
// pointers can be stored in simulated memory, flushed with clflush, and used
// as indirect branch targets — the ingredients of the paper's Figure 6 probe.
#ifndef SPECTREBENCH_SRC_ISA_PROGRAM_H_
#define SPECTREBENCH_SRC_ISA_PROGRAM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/isa/decode.h"
#include "src/isa/isa.h"
#include "src/util/check.h"

namespace specbench {

inline constexpr uint64_t kDefaultCodeBase = 0x400000;
inline constexpr uint64_t kInstructionBytes = 4;

// An immutable program: its instructions, each one's decode, its base
// address and its exported symbols. The constructor decodes every
// instruction once (DecodeOne), so threads that share a Program share its
// decode without synchronisation.
class Program {
 public:
  Program() = default;
  Program(std::vector<Instruction> instructions, uint64_t base_vaddr,
          std::map<std::string, int32_t> symbols);

  const Instruction& at(int32_t index) const { return instructions_[static_cast<size_t>(index)]; }
  // The instructions as one array of size() entries (may be null when empty).
  const Instruction* data() const { return instructions_.data(); }
  // The decode of every instruction, parallel to data(): ops()[i] is
  // DecodeOne(at(i)).
  const std::vector<DecodedOp>& ops() const { return ops_; }
  int32_t size() const { return static_cast<int32_t>(instructions_.size()); }
  uint64_t base_vaddr() const { return base_vaddr_; }

  // Virtual address of instruction `index`, for 0 <= index <= size().
  // Defined inline: the machine's step loop calls it for every pc.
  uint64_t VaddrOf(int32_t index) const {
    SPECBENCH_CHECK(index >= 0 && index <= size());
    return base_vaddr_ + static_cast<uint64_t>(index) * kInstructionBytes;
  }
  // Instruction index of `vaddr`; -1 if it does not fall inside this program.
  int32_t IndexOf(uint64_t vaddr) const {
    if (vaddr < base_vaddr_ || (vaddr - base_vaddr_) % kInstructionBytes != 0) {
      return -1;
    }
    const uint64_t index = (vaddr - base_vaddr_) / kInstructionBytes;
    return index < instructions_.size() ? static_cast<int32_t>(index) : -1;
  }

  // Address of a named entry point (bound label exported by the builder).
  // Aborts if the symbol does not exist.
  uint64_t SymbolVaddr(const std::string& name) const;
  int32_t SymbolIndex(const std::string& name) const;
  bool HasSymbol(const std::string& name) const;
  // All exported symbols, name -> instruction index (analyzer entry points).
  const std::map<std::string, int32_t>& symbols() const { return symbols_; }

 private:
  std::vector<Instruction> instructions_;
  std::vector<DecodedOp> ops_;
  uint64_t base_vaddr_ = kDefaultCodeBase;
  std::map<std::string, int32_t> symbols_;
};

// Label handle produced by ProgramBuilder::NewLabel.
struct Label {
  int32_t id = -1;
};

// Fluent builder. Typical use:
//
//   ProgramBuilder b;
//   Label loop = b.NewLabel();
//   b.MovImm(0, 100);
//   b.Bind(loop);
//   b.AluImm(AluOp::kSub, 0, 0, 1);
//   b.BranchNz(0, loop);
//   b.Halt();
//   Program p = b.Build();
class ProgramBuilder {
 public:
  Label NewLabel();
  // Binds `label` to the next emitted instruction.
  void Bind(Label label);
  // Binds and exports the position under `name` for Program::SymbolVaddr.
  Label BindSymbol(const std::string& name);

  ProgramBuilder& Nop();
  ProgramBuilder& MovImm(uint8_t dst, int64_t imm);
  ProgramBuilder& Mov(uint8_t dst, uint8_t src);
  ProgramBuilder& Alu(AluOp op, uint8_t dst, uint8_t a, uint8_t b);
  ProgramBuilder& AluImm(AluOp op, uint8_t dst, uint8_t a, int64_t imm);
  ProgramBuilder& Mul(uint8_t dst, uint8_t a, uint8_t b);
  ProgramBuilder& MulImm(uint8_t dst, uint8_t a, int64_t imm);
  ProgramBuilder& Div(uint8_t dst, uint8_t a, uint8_t b);
  ProgramBuilder& DivImm(uint8_t dst, uint8_t a, int64_t imm);
  // if reg[cond] != 0 then dst = src.
  ProgramBuilder& Cmov(uint8_t dst, uint8_t src, uint8_t cond);
  ProgramBuilder& Load(uint8_t dst, MemRef mem);
  ProgramBuilder& Store(MemRef mem, uint8_t src);
  ProgramBuilder& Lea(uint8_t dst, MemRef mem);
  ProgramBuilder& Jmp(Label target);
  ProgramBuilder& BranchNz(uint8_t reg, Label target);
  ProgramBuilder& BranchZ(uint8_t reg, Label target);
  ProgramBuilder& Call(Label target);
  ProgramBuilder& Ret();
  ProgramBuilder& IndirectJmp(uint8_t reg);
  ProgramBuilder& IndirectCall(uint8_t reg);
  ProgramBuilder& Lfence();
  ProgramBuilder& Mfence();
  ProgramBuilder& Pause();
  ProgramBuilder& Syscall();
  ProgramBuilder& Sysret();
  ProgramBuilder& Swapgs();
  ProgramBuilder& MovCr3(uint8_t src);
  ProgramBuilder& Verw();
  ProgramBuilder& Wrmsr(uint32_t msr, uint8_t src);
  ProgramBuilder& Rdmsr(uint8_t dst, uint32_t msr);
  ProgramBuilder& Rdtsc(uint8_t dst);
  ProgramBuilder& Rdpmc(uint8_t dst, Pmc counter);
  ProgramBuilder& Clflush(MemRef mem);
  ProgramBuilder& FlushL1d();
  ProgramBuilder& RsbStuff();
  ProgramBuilder& Xsave();
  ProgramBuilder& Xrstor();
  ProgramBuilder& FpOp(uint8_t fpreg);
  ProgramBuilder& FpToGp(uint8_t dst, uint8_t fpreg);
  ProgramBuilder& GpToFp(uint8_t fpreg, uint8_t src);
  ProgramBuilder& Cpuid();
  ProgramBuilder& VmEnter();
  ProgramBuilder& VmExit();
  ProgramBuilder& Kcall(int64_t hook_id);
  ProgramBuilder& Halt();

  // Number of instructions emitted so far (== index of the next one).
  int32_t NextIndex() const { return static_cast<int32_t>(instructions_.size()); }

  // Attribution scope: every instruction emitted while a cause is pushed is
  // stamped with that tag, so mitigation emitters (OS entry/exit paths, JIT
  // hardening) mark their code once at the source instead of the machine
  // guessing later. Scopes nest; the innermost tag wins. Prefer the RAII
  // CauseScope helper below.
  void PushCause(CauseTag cause) { cause_stack_.push_back(cause); }
  void PopCause();
  CauseTag current_cause() const {
    return cause_stack_.empty() ? CauseTag::kNone : cause_stack_.back();
  }

  // Resolves all labels. Aborts on use of an unbound label.
  Program Build(uint64_t base_vaddr = kDefaultCodeBase);

 private:
  ProgramBuilder& Emit(Instruction instr);
  ProgramBuilder& EmitBranch(Op op, uint8_t src, Label target);

  std::vector<Instruction> instructions_;
  std::vector<int32_t> label_positions_;       // label id -> instruction index (-1 unbound)
  std::vector<std::pair<int32_t, int32_t>> fixups_;  // (instruction, label id)
  std::map<std::string, int32_t> symbols_;
  std::vector<CauseTag> cause_stack_;
};

// RAII attribution scope for ProgramBuilder (see PushCause).
class CauseScope {
 public:
  CauseScope(ProgramBuilder& builder, CauseTag cause) : builder_(builder) {
    builder_.PushCause(cause);
  }
  ~CauseScope() { builder_.PopCause(); }
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

 private:
  ProgramBuilder& builder_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ISA_PROGRAM_H_
