#include "src/difftest/reference.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/uarch/memory.h"

namespace specbench {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr uint64_t kFnvBasis = kArchHashBasis;

uint64_t FnvByte(uint64_t hash, uint8_t byte) { return (hash ^ byte) * kFnvPrime; }

uint64_t FnvWord(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; i++) {
    hash = FnvByte(hash, static_cast<uint8_t>(word >> (8 * i)));
  }
  return hash;
}

// Mirrors Machine::AluCompute exactly (shifts >= 64 are zero, unsigned
// compares).
uint64_t AluCompute(AluOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case AluOp::kAdd: return a + b;
    case AluOp::kSub: return a - b;
    case AluOp::kAnd: return a & b;
    case AluOp::kOr: return a | b;
    case AluOp::kXor: return a ^ b;
    case AluOp::kShl: return b >= 64 ? 0 : a << b;
    case AluOp::kShr: return b >= 64 ? 0 : a >> b;
    case AluOp::kCmpLt: return a < b ? 1 : 0;
    case AluOp::kCmpGe: return a >= b ? 1 : 0;
    case AluOp::kCmpEq: return a == b ? 1 : 0;
    case AluOp::kCmpNe: return a != b ? 1 : 0;
  }
  return 0;
}

}  // namespace

bool ReferenceSupports(Op op) {
  switch (op) {
    case Op::kSyscall:
    case Op::kSysret:
    case Op::kMovCr3:
    case Op::kWrmsr:
    case Op::kRdmsr:
    case Op::kRdtsc:
    case Op::kRdpmc:
    case Op::kVmEnter:
    case Op::kVmExit:
    case Op::kKcall:
      return false;
    default:
      return true;
  }
}

uint64_t FoldTraceHash(uint64_t hash, int32_t index, Op op) {
  hash = FnvByte(hash, static_cast<uint8_t>(op));
  for (int i = 0; i < 4; i++) {
    hash = FnvByte(hash, static_cast<uint8_t>(static_cast<uint32_t>(index) >> (8 * i)));
  }
  return hash;
}

uint64_t DigestMemoryWords(const std::vector<std::pair<uint64_t, uint64_t>>& words) {
  uint64_t hash = kFnvBasis;
  for (const auto& [addr, value] : words) {
    hash = FnvWord(hash, addr);
    hash = FnvWord(hash, value);
  }
  return hash;
}

std::string DescribeArchDivergence(const ArchState& expected, const ArchState& actual) {
  std::ostringstream out;
  for (uint8_t r = 0; r < kNumRegs; r++) {
    if (expected.regs[r] != actual.regs[r]) {
      out << "reg[" << int(r) << "]: expected 0x" << std::hex << expected.regs[r] << ", got 0x"
          << actual.regs[r];
      return out.str();
    }
  }
  for (uint8_t r = 0; r < kNumFpRegs; r++) {
    if (expected.fpregs[r] != actual.fpregs[r]) {
      out << "fpreg[" << int(r) << "]: expected 0x" << std::hex << expected.fpregs[r]
          << ", got 0x" << actual.fpregs[r];
      return out.str();
    }
  }
  if (expected.memory_digest != actual.memory_digest) {
    out << "memory digest: expected 0x" << std::hex << expected.memory_digest << ", got 0x"
        << actual.memory_digest;
    return out.str();
  }
  if (expected.retired != actual.retired) {
    out << "retired instructions: expected " << expected.retired << ", got " << actual.retired;
    return out.str();
  }
  if (expected.trace_hash != actual.trace_hash) {
    out << "trace hash: expected 0x" << std::hex << expected.trace_hash << ", got 0x"
        << actual.trace_hash;
    return out.str();
  }
  if (expected.halted != actual.halted) {
    out << "halted: expected " << expected.halted << ", got " << actual.halted;
    return out.str();
  }
  return std::string();
}

ReferenceResult RunReference(const Program& program, uint64_t max_instructions,
                             std::vector<std::pair<uint64_t, uint64_t>>* final_memory) {
  ReferenceResult result;
  ArchState& s = result.state;
  s.trace_hash = kFnvBasis;
  // Word-aligned architectural memory, mirroring SparseMemory's keying.
  std::map<uint64_t, uint64_t> memory;
  auto mem_read = [&memory](uint64_t vaddr) {
    auto it = memory.find(AlignWord(vaddr));
    return it == memory.end() ? 0 : it->second;
  };
  auto mem_write = [&memory](uint64_t vaddr, uint64_t value) {
    memory[AlignWord(vaddr)] = value;
  };
  auto ea = [&s](const MemRef& mem) {
    uint64_t addr = static_cast<uint64_t>(mem.disp);
    if (mem.base != kNoReg) {
      addr += s.regs[mem.base];
    }
    if (mem.index != kNoReg) {
      addr += s.regs[mem.index] * mem.scale;
    }
    return addr;
  };
  auto fail = [&result](std::string why) {
    result.ok = false;
    result.error = std::move(why);
    return result;
  };

  int32_t rip = 0;
  if (program.size() == 0) {
    return fail("empty program");
  }
  while (s.retired < max_instructions) {
    if (rip < 0 || rip >= program.size()) {
      return fail("control transfer outside the program");
    }
    const Instruction& in = program.at(rip);
    if (!ReferenceSupports(in.op)) {
      return fail(std::string("unsupported opcode in difftest program: ") + OpName(in.op));
    }
    s.retired++;
    s.trace_hash = FoldTraceHash(s.trace_hash, rip, in.op);
    int32_t next = rip + 1;
    switch (in.op) {
      case Op::kNop:
      case Op::kLfence:
      case Op::kMfence:
      case Op::kPause:
      case Op::kSwapgs:
      case Op::kVerw:
      case Op::kFlushL1d:
      case Op::kRsbStuff:
      case Op::kXsave:
      case Op::kXrstor:
      case Op::kCpuid:
      case Op::kClflush:
        break;  // architectural no-ops (timing/microarchitectural only)
      case Op::kMovImm:
        s.regs[in.dst] = static_cast<uint64_t>(in.imm);
        break;
      case Op::kMov:
        s.regs[in.dst] = s.regs[in.src1];
        break;
      case Op::kAlu: {
        const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : s.regs[in.src2];
        s.regs[in.dst] = AluCompute(in.alu, s.regs[in.src1], b);
        break;
      }
      case Op::kMul: {
        const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : s.regs[in.src2];
        s.regs[in.dst] = s.regs[in.src1] * b;
        break;
      }
      case Op::kDiv: {
        const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : s.regs[in.src2];
        s.regs[in.dst] = b == 0 ? 0 : s.regs[in.src1] / b;
        break;
      }
      case Op::kCmov:
        if (s.regs[in.src2] != 0) {
          s.regs[in.dst] = s.regs[in.src1];
        }
        break;
      case Op::kLea:
        s.regs[in.dst] = ea(in.mem);
        break;
      case Op::kLoad:
        s.regs[in.dst] = mem_read(ea(in.mem));
        break;
      case Op::kStore:
        mem_write(ea(in.mem), s.regs[in.src1]);
        break;
      case Op::kJmp:
        next = in.target;
        break;
      case Op::kBranchNz:
        next = s.regs[in.src1] != 0 ? in.target : rip + 1;
        break;
      case Op::kBranchZ:
        next = s.regs[in.src1] == 0 ? in.target : rip + 1;
        break;
      case Op::kBranchEqImm:
        next = s.regs[in.src1] == static_cast<uint64_t>(in.imm) ? in.target : rip + 1;
        break;
      case Op::kCall: {
        const uint64_t ret_vaddr = program.VaddrOf(rip + 1);
        s.regs[kRegSp] -= 8;
        mem_write(s.regs[kRegSp], ret_vaddr);
        next = in.target;
        break;
      }
      case Op::kRet: {
        const uint64_t actual = mem_read(s.regs[kRegSp]);
        s.regs[kRegSp] += 8;
        const int32_t target = program.IndexOf(actual);
        if (target < 0) {
          return fail("ret to address outside the program");
        }
        next = target;
        break;
      }
      case Op::kIndirectJmp:
      case Op::kIndirectCall: {
        const uint64_t actual = s.regs[in.src1];
        if (in.op == Op::kIndirectCall) {
          const uint64_t ret_vaddr = program.VaddrOf(rip + 1);
          s.regs[kRegSp] -= 8;
          mem_write(s.regs[kRegSp], ret_vaddr);
        }
        const int32_t target = program.IndexOf(actual);
        if (target < 0) {
          return fail("indirect branch to address outside the program");
        }
        next = target;
        break;
      }
      case Op::kFpOp: {
        const uint8_t fp = static_cast<uint8_t>(in.imm) & (kNumFpRegs - 1);
        s.fpregs[fp] = s.fpregs[fp] * 3 + 1;
        break;
      }
      case Op::kFpToGp:
        s.regs[in.dst] = s.fpregs[static_cast<uint8_t>(in.imm) & (kNumFpRegs - 1)];
        break;
      case Op::kGpToFp:
        s.fpregs[static_cast<uint8_t>(in.imm) & (kNumFpRegs - 1)] = s.regs[in.src1];
        break;
      case Op::kHalt:
        s.halted = true;
        break;
      default:  // rejected by ReferenceSupports above
        break;
    }
    if (s.halted) {
      break;
    }
    rip = next;
  }
  if (!s.halted) {
    return fail("instruction budget exhausted before kHalt");
  }

  std::vector<std::pair<uint64_t, uint64_t>> words;
  words.reserve(memory.size());
  for (const auto& [addr, value] : memory) {
    if (value != 0) {
      words.emplace_back(addr, value);
    }
  }
  s.memory_digest = DigestMemoryWords(words);
  if (final_memory != nullptr) {
    *final_memory = std::move(words);
  }
  result.ok = true;
  return result;
}

}  // namespace specbench
