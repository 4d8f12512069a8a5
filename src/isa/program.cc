#include "src/isa/program.h"

#include "src/util/check.h"

namespace specbench {

Program::Program(std::vector<Instruction> instructions, uint64_t base_vaddr,
                 std::map<std::string, int32_t> symbols)
    : instructions_(std::move(instructions)),
      base_vaddr_(base_vaddr),
      symbols_(std::move(symbols)) {
  ops_.reserve(instructions_.size());
  for (const Instruction& instr : instructions_) {
    ops_.push_back(DecodeOne(instr));
  }
}

bool Program::ContainsVaddr(uint64_t vaddr) const { return IndexOf(vaddr) >= 0; }

uint64_t Program::SymbolVaddr(const std::string& name) const {
  return VaddrOf(SymbolIndex(name));
}

int32_t Program::SymbolIndex(const std::string& name) const {
  auto it = symbols_.find(name);
  SPECBENCH_CHECK_MSG(it != symbols_.end(), "unknown program symbol");
  return it->second;
}

bool Program::HasSymbol(const std::string& name) const {
  return symbols_.find(name) != symbols_.end();
}

Label ProgramBuilder::NewLabel() {
  label_positions_.push_back(-1);
  return Label{static_cast<int32_t>(label_positions_.size()) - 1};
}

void ProgramBuilder::Bind(Label label) {
  SPECBENCH_CHECK(label.id >= 0 && label.id < static_cast<int32_t>(label_positions_.size()));
  SPECBENCH_CHECK_MSG(label_positions_[static_cast<size_t>(label.id)] == -1,
                      "label bound twice");
  label_positions_[static_cast<size_t>(label.id)] = NextIndex();
}

Label ProgramBuilder::BindSymbol(const std::string& name) {
  Label label = NewLabel();
  Bind(label);
  SPECBENCH_CHECK_MSG(symbols_.find(name) == symbols_.end(), "symbol defined twice");
  symbols_[name] = NextIndex();
  return label;
}

ProgramBuilder& ProgramBuilder::Emit(Instruction instr) {
  instr.cause = current_cause();
  instructions_.push_back(instr);
  return *this;
}

void ProgramBuilder::PopCause() {
  SPECBENCH_CHECK_MSG(!cause_stack_.empty(), "PopCause without matching PushCause");
  cause_stack_.pop_back();
}

ProgramBuilder& ProgramBuilder::EmitBranch(Op op, uint8_t src, Label target) {
  SPECBENCH_CHECK(target.id >= 0 && target.id < static_cast<int32_t>(label_positions_.size()));
  Instruction instr;
  instr.op = op;
  instr.src1 = src;
  fixups_.emplace_back(NextIndex(), target.id);
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Nop() { return Emit(Instruction{}); }

ProgramBuilder& ProgramBuilder::MovImm(uint8_t dst, int64_t imm) {
  Instruction instr;
  instr.op = Op::kMovImm;
  instr.dst = dst;
  instr.imm = imm;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Mov(uint8_t dst, uint8_t src) {
  Instruction instr;
  instr.op = Op::kMov;
  instr.dst = dst;
  instr.src1 = src;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Alu(AluOp op, uint8_t dst, uint8_t a, uint8_t b) {
  Instruction instr;
  instr.op = Op::kAlu;
  instr.alu = op;
  instr.dst = dst;
  instr.src1 = a;
  instr.src2 = b;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::AluImm(AluOp op, uint8_t dst, uint8_t a, int64_t imm) {
  Instruction instr;
  instr.op = Op::kAlu;
  instr.alu = op;
  instr.dst = dst;
  instr.src1 = a;
  instr.use_imm = true;
  instr.imm = imm;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Mul(uint8_t dst, uint8_t a, uint8_t b) {
  Instruction instr;
  instr.op = Op::kMul;
  instr.dst = dst;
  instr.src1 = a;
  instr.src2 = b;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::MulImm(uint8_t dst, uint8_t a, int64_t imm) {
  Instruction instr;
  instr.op = Op::kMul;
  instr.dst = dst;
  instr.src1 = a;
  instr.use_imm = true;
  instr.imm = imm;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Div(uint8_t dst, uint8_t a, uint8_t b) {
  Instruction instr;
  instr.op = Op::kDiv;
  instr.dst = dst;
  instr.src1 = a;
  instr.src2 = b;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::DivImm(uint8_t dst, uint8_t a, int64_t imm) {
  Instruction instr;
  instr.op = Op::kDiv;
  instr.dst = dst;
  instr.src1 = a;
  instr.use_imm = true;
  instr.imm = imm;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Cmov(uint8_t dst, uint8_t src, uint8_t cond) {
  Instruction instr;
  instr.op = Op::kCmov;
  instr.dst = dst;
  instr.src1 = src;
  instr.src2 = cond;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Load(uint8_t dst, MemRef mem) {
  Instruction instr;
  instr.op = Op::kLoad;
  instr.dst = dst;
  instr.mem = mem;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Store(MemRef mem, uint8_t src) {
  Instruction instr;
  instr.op = Op::kStore;
  instr.src1 = src;
  instr.mem = mem;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Lea(uint8_t dst, MemRef mem) {
  Instruction instr;
  instr.op = Op::kLea;
  instr.dst = dst;
  instr.mem = mem;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Jmp(Label target) {
  return EmitBranch(Op::kJmp, kNoReg, target);
}

ProgramBuilder& ProgramBuilder::BranchNz(uint8_t reg, Label target) {
  return EmitBranch(Op::kBranchNz, reg, target);
}

ProgramBuilder& ProgramBuilder::BranchZ(uint8_t reg, Label target) {
  return EmitBranch(Op::kBranchZ, reg, target);
}

ProgramBuilder& ProgramBuilder::Call(Label target) {
  return EmitBranch(Op::kCall, kNoReg, target);
}

ProgramBuilder& ProgramBuilder::Ret() {
  Instruction instr;
  instr.op = Op::kRet;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::IndirectJmp(uint8_t reg) {
  Instruction instr;
  instr.op = Op::kIndirectJmp;
  instr.src1 = reg;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::IndirectCall(uint8_t reg) {
  Instruction instr;
  instr.op = Op::kIndirectCall;
  instr.src1 = reg;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Lfence() {
  Instruction instr;
  instr.op = Op::kLfence;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Mfence() {
  Instruction instr;
  instr.op = Op::kMfence;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Pause() {
  Instruction instr;
  instr.op = Op::kPause;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Syscall() {
  Instruction instr;
  instr.op = Op::kSyscall;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Sysret() {
  Instruction instr;
  instr.op = Op::kSysret;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Swapgs() {
  Instruction instr;
  instr.op = Op::kSwapgs;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::MovCr3(uint8_t src) {
  Instruction instr;
  instr.op = Op::kMovCr3;
  instr.src1 = src;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Verw() {
  Instruction instr;
  instr.op = Op::kVerw;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Wrmsr(uint32_t msr, uint8_t src) {
  Instruction instr;
  instr.op = Op::kWrmsr;
  instr.src1 = src;
  instr.imm = msr;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Rdmsr(uint8_t dst, uint32_t msr) {
  Instruction instr;
  instr.op = Op::kRdmsr;
  instr.dst = dst;
  instr.imm = msr;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Rdtsc(uint8_t dst) {
  Instruction instr;
  instr.op = Op::kRdtsc;
  instr.dst = dst;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Rdpmc(uint8_t dst, Pmc counter) {
  Instruction instr;
  instr.op = Op::kRdpmc;
  instr.dst = dst;
  instr.imm = static_cast<int64_t>(counter);
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Clflush(MemRef mem) {
  Instruction instr;
  instr.op = Op::kClflush;
  instr.mem = mem;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::FlushL1d() {
  Instruction instr;
  instr.op = Op::kFlushL1d;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::RsbStuff() {
  Instruction instr;
  instr.op = Op::kRsbStuff;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Xsave() {
  Instruction instr;
  instr.op = Op::kXsave;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Xrstor() {
  Instruction instr;
  instr.op = Op::kXrstor;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::FpOp(uint8_t fpreg) {
  Instruction instr;
  instr.op = Op::kFpOp;
  instr.imm = fpreg;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::FpToGp(uint8_t dst, uint8_t fpreg) {
  Instruction instr;
  instr.op = Op::kFpToGp;
  instr.dst = dst;
  instr.imm = fpreg;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::GpToFp(uint8_t fpreg, uint8_t src) {
  Instruction instr;
  instr.op = Op::kGpToFp;
  instr.src1 = src;
  instr.imm = fpreg;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Cpuid() {
  Instruction instr;
  instr.op = Op::kCpuid;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::VmEnter() {
  Instruction instr;
  instr.op = Op::kVmEnter;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::VmExit() {
  Instruction instr;
  instr.op = Op::kVmExit;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Kcall(int64_t hook_id) {
  Instruction instr;
  instr.op = Op::kKcall;
  instr.imm = hook_id;
  return Emit(instr);
}

ProgramBuilder& ProgramBuilder::Halt() {
  Instruction instr;
  instr.op = Op::kHalt;
  return Emit(instr);
}

Program ProgramBuilder::Build(uint64_t base_vaddr) {
  for (const auto& [index, label_id] : fixups_) {
    const int32_t position = label_positions_[static_cast<size_t>(label_id)];
    SPECBENCH_CHECK_MSG(position >= 0, "branch to unbound label");
    instructions_[static_cast<size_t>(index)].target = position;
  }
  return Program(std::move(instructions_), base_vaddr, std::move(symbols_));
}

}  // namespace specbench
