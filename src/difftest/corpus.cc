#include "src/difftest/corpus.h"

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/difftest/reference.h"

namespace specbench {

namespace {

constexpr char kBanner[] = "# spectrebench difftest corpus v1";

void AppendField(std::string* line, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRId64, key, value);
  *line += buf;
}

std::string SerializeInstruction(const Instruction& in) {
  const Instruction defaults;
  std::string line = "i op=";
  line += OpName(in.op);
  if (in.op == Op::kAlu || in.alu != defaults.alu) {
    line += " alu=";
    line += AluOpName(in.alu);
  }
  if (in.dst != defaults.dst) AppendField(&line, "dst", in.dst);
  if (in.src1 != defaults.src1) AppendField(&line, "src1", in.src1);
  if (in.src2 != defaults.src2) AppendField(&line, "src2", in.src2);
  if (in.use_imm) AppendField(&line, "use_imm", 1);
  if (in.imm != defaults.imm) AppendField(&line, "imm", in.imm);
  const MemRef mem_defaults;
  if (in.mem.base != mem_defaults.base || in.mem.index != mem_defaults.index ||
      in.mem.scale != mem_defaults.scale || in.mem.disp != mem_defaults.disp) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " mem=%d,%d,%d,%" PRId64, in.mem.base, in.mem.index,
                  in.mem.scale, in.mem.disp);
    line += buf;
  }
  if (in.target != defaults.target) AppendField(&line, "target", in.target);
  return line;
}

bool ParseInt64(const std::string& text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 0);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

std::vector<std::string> SplitWhitespace(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// A register field: a general-purpose register number, or kNoReg (none).
// Checked before the narrowing cast, so 256 cannot wrap to register 0.
bool ParseRegister(const std::string& field, int64_t number, uint8_t* out, std::string* why) {
  if (number != kNoReg && (number < 0 || number >= kNumRegs)) {
    *why = field + " register " + std::to_string(number) + " is not 0.." +
           std::to_string(kNumRegs - 1) + " or " + std::to_string(kNoReg) + " (none)";
    return false;
  }
  *out = static_cast<uint8_t>(number);
  return true;
}

// True if the engine and the reference interpreter index the registers
// with src1 (src2) for this instruction. A field the line leaves out stays
// kNoReg, which must not reach them.
bool ReadsSrc1(Op op) {
  switch (op) {
    case Op::kMov:
    case Op::kAlu:
    case Op::kMul:
    case Op::kDiv:
    case Op::kCmov:
    case Op::kStore:
    case Op::kBranchNz:
    case Op::kBranchZ:
    case Op::kBranchEqImm:
    case Op::kIndirectJmp:
    case Op::kIndirectCall:
    case Op::kGpToFp:
      return true;
    default:
      return false;
  }
}

bool ReadsSrc2(const Instruction& in) {
  return in.op == Op::kCmov ||
         (!in.use_imm && (in.op == Op::kAlu || in.op == Op::kMul || in.op == Op::kDiv));
}

// The operand `in` needs but lacks, or nullptr.
const char* MissingOperand(const Instruction& in) {
  Instruction with_dst = in;
  with_dst.dst = 0;  // DestReg reports dst only for opcodes that write it
  if (in.dst == kNoReg && DestReg(with_dst) != kNoReg) {
    return "dst";
  }
  if (in.src1 == kNoReg && ReadsSrc1(in.op)) {
    return "src1";
  }
  if (in.src2 == kNoReg && ReadsSrc2(in)) {
    return "src2";
  }
  return nullptr;
}

bool ParseInstructionLine(const std::vector<std::string>& tokens, Instruction* out,
                          std::string* why) {
  Instruction in;
  bool saw_op = false;
  for (size_t t = 1; t < tokens.size(); t++) {
    const std::string& token = tokens[t];
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      *why = "expected key=value, got '" + token + "'";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    int64_t number = 0;
    if (key == "op") {
      if (!ParseOpName(value.c_str(), &in.op)) {
        *why = "unknown opcode '" + value + "'";
        return false;
      }
      saw_op = true;
    } else if (key == "alu") {
      if (!ParseAluOpName(value.c_str(), &in.alu)) {
        *why = "unknown alu op '" + value + "'";
        return false;
      }
    } else if (key == "mem") {
      // base,index,scale,disp
      std::vector<int64_t> fields;
      bool numeric = true;
      for (size_t start = 0; numeric;) {
        const size_t comma = value.find(',', start);
        numeric = ParseInt64(value.substr(start, comma - start), &number);
        fields.push_back(number);
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
      if (!numeric || fields.size() != 4) {
        *why = "bad mem operand '" + value + "'";
        return false;
      }
      if (!ParseRegister("mem base", fields[0], &in.mem.base, why) ||
          !ParseRegister("mem index", fields[1], &in.mem.index, why)) {
        return false;
      }
      const int64_t scale = fields[2];
      if (scale != 1 && scale != 2 && scale != 4 && scale != 8) {
        *why = "mem scale " + std::to_string(scale) + " is not 1, 2, 4 or 8";
        return false;
      }
      in.mem.scale = static_cast<uint8_t>(scale);
      in.mem.disp = fields[3];
    } else if (!ParseInt64(value, &number)) {
      *why = "bad integer for '" + key + "': '" + value + "'";
      return false;
    } else if (key == "dst" || key == "src1" || key == "src2") {
      uint8_t* field = key == "dst" ? &in.dst : key == "src1" ? &in.src1 : &in.src2;
      if (!ParseRegister(key, number, field, why)) {
        return false;
      }
    } else if (key == "use_imm") {
      in.use_imm = number != 0;
    } else if (key == "imm") {
      in.imm = number;
    } else if (key == "target") {
      if (number < INT32_MIN || number > INT32_MAX) {
        *why = "target " + value + " is out of range";
        return false;
      }
      in.target = static_cast<int32_t>(number);
    } else {
      *why = "unknown key '" + key + "'";
      return false;
    }
  }
  if (!saw_op) {
    *why = "instruction line without op=";
    return false;
  }
  if (!ReferenceSupports(in.op)) {
    *why = std::string("op=") + OpName(in.op) + " is not supported by the reference interpreter";
    return false;
  }
  if (const char* missing = MissingOperand(in)) {
    *why = std::string("op=") + OpName(in.op) + " needs " + missing + "=";
    return false;
  }
  *out = in;
  return true;
}

}  // namespace

std::string SerializeCorpusProgram(const Program& program, const std::string& comment) {
  std::ostringstream out;
  out << kBanner << "\n";
  std::istringstream comment_lines(comment);
  std::string line;
  while (std::getline(comment_lines, line)) {
    out << "# " << line << "\n";
  }
  char base[32];
  std::snprintf(base, sizeof(base), "base 0x%" PRIx64, program.base_vaddr());
  out << base << "\n";
  for (int32_t i = 0; i < program.size(); i++) {
    out << SerializeInstruction(program.at(i)) << "\n";
  }
  return out.str();
}

bool ParseCorpusProgram(const std::string& text, Program* out, std::string* error) {
  auto fail = [error](int line_number, const std::string& why) {
    if (error != nullptr) {
      std::ostringstream msg;
      msg << "line " << line_number << ": " << why;
      *error = msg.str();
    }
    return false;
  };

  std::istringstream in(text);
  std::string line;
  std::vector<Instruction> instructions;
  std::vector<int> instruction_lines;
  uint64_t base_vaddr = kDefaultCodeBase;
  int line_number = 0;
  while (std::getline(in, line)) {
    line_number++;
    const std::vector<std::string> tokens = SplitWhitespace(line);
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    if (tokens[0] == "base") {
      if (tokens.size() != 2 || !ParseUint64(tokens[1], &base_vaddr)) {
        return fail(line_number, "bad base line");
      }
    } else if (tokens[0] == "i") {
      Instruction instr;
      std::string why;
      if (!ParseInstructionLine(tokens, &instr, &why)) {
        return fail(line_number, why);
      }
      instructions.push_back(instr);
      instruction_lines.push_back(line_number);
    } else {
      return fail(line_number, "unknown directive '" + tokens[0] + "'");
    }
  }
  if (instructions.empty()) {
    return fail(line_number, "no instructions");
  }
  const int32_t size = static_cast<int32_t>(instructions.size());
  for (size_t i = 0; i < instructions.size(); i++) {
    const Instruction& instr = instructions[i];
    if ((IsDirectJump(instr.op) || IsConditionalBranch(instr.op)) &&
        (instr.target < 0 || instr.target >= size)) {
      return fail(instruction_lines[i], "branch target " + std::to_string(instr.target) +
                                            " is outside the program (0.." +
                                            std::to_string(size - 1) + ")");
    }
  }
  *out = Program(std::move(instructions), base_vaddr, {});
  return true;
}

}  // namespace specbench
