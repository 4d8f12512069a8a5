#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "src/difftest/corpus.h"
#include "src/difftest/generator.h"
#include "src/isa/decode.h"
#include "src/isa/program.h"

namespace specbench {
namespace {

TEST(ProgramBuilder, EmitsAndBuilds) {
  ProgramBuilder b;
  b.MovImm(0, 42);
  b.Halt();
  Program p = b.Build();
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(p.at(0).op, Op::kMovImm);
  EXPECT_EQ(p.at(0).imm, 42);
  EXPECT_EQ(p.at(1).op, Op::kHalt);
}

TEST(ProgramBuilder, LabelResolution) {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.MovImm(0, 3);
  b.Bind(loop);
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, loop);
  b.Halt();
  Program p = b.Build();
  EXPECT_EQ(p.at(2).target, 1);  // branch back to the bound position
}

TEST(ProgramBuilder, ForwardLabel) {
  ProgramBuilder b;
  Label skip = b.NewLabel();
  b.Jmp(skip);
  b.Nop();
  b.Bind(skip);
  b.Halt();
  Program p = b.Build();
  EXPECT_EQ(p.at(0).target, 2);
}

TEST(Program, VaddrRoundTrip) {
  ProgramBuilder b;
  for (int i = 0; i < 10; i++) {
    b.Nop();
  }
  b.Halt();
  Program p = b.Build(0x1000);
  for (int32_t i = 0; i < p.size(); i++) {
    EXPECT_EQ(p.IndexOf(p.VaddrOf(i)), i);
  }
}

TEST(Program, IndexOfRejectsOutside) {
  ProgramBuilder b;
  b.Halt();
  Program p = b.Build(0x1000);
  EXPECT_EQ(p.IndexOf(0x0), -1);
  EXPECT_EQ(p.IndexOf(0x1002), -1);   // misaligned
  EXPECT_EQ(p.IndexOf(0x1004), -1);   // past the end
  EXPECT_GE(p.IndexOf(0x1000), 0);
  EXPECT_EQ(p.IndexOf(0x2000), -1);
}

TEST(Program, Symbols) {
  ProgramBuilder b;
  b.Nop();
  b.BindSymbol("entry");
  b.Halt();
  Program p = b.Build(0x4000);
  EXPECT_TRUE(p.HasSymbol("entry"));
  EXPECT_FALSE(p.HasSymbol("missing"));
  EXPECT_EQ(p.SymbolIndex("entry"), 1);
  EXPECT_EQ(p.SymbolVaddr("entry"), 0x4000u + kInstructionBytes);
}

TEST(Program, MemRefFields) {
  ProgramBuilder b;
  b.Load(3, MemRef{.base = 1, .index = 2, .scale = 8, .disp = 0x100});
  b.Halt();
  Program p = b.Build();
  const Instruction& in = p.at(0);
  EXPECT_EQ(in.mem.base, 1);
  EXPECT_EQ(in.mem.index, 2);
  EXPECT_EQ(in.mem.scale, 8);
  EXPECT_EQ(in.mem.disp, 0x100);
}

TEST(OpName, CoversRepresentativeOps) {
  EXPECT_STREQ(OpName(Op::kVerw), "verw");
  EXPECT_STREQ(OpName(Op::kMovCr3), "mov_cr3");
  EXPECT_STREQ(OpName(Op::kRsbStuff), "rsb_stuff");
  EXPECT_STREQ(OpName(Op::kKcall), "kcall");
}

TEST(OpTable, OneRowPerOpInEnumOrder) {
  const std::span<const OpInfo> table = OpTable();
  std::set<std::string> names;
  for (size_t i = 0; i < table.size(); i++) {
    EXPECT_EQ(table[i].op, static_cast<Op>(i)) << "row " << i;
    EXPECT_EQ(&InfoOf(table[i].op), &table[i]) << "row " << i;
    EXPECT_TRUE(names.insert(table[i].name).second) << table[i].name << " names two rows";
  }
  // Op's last enumerator; it moves with the bound next to the table.
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(table.back().op, Op::kBranchEqImm);
}

TEST(OpTable, EveryOpNameRoundTrips) {
  for (const OpInfo& row : OpTable()) {
    Op parsed = Op::kNop;
    ASSERT_TRUE(ParseOpName(OpName(row.op), &parsed)) << row.name;
    EXPECT_EQ(parsed, row.op) << row.name;
  }
  Op parsed = Op::kNop;
  ASSERT_TRUE(ParseOpName("branch_eq_imm", &parsed));
  EXPECT_EQ(parsed, Op::kBranchEqImm);
  EXPECT_FALSE(ParseOpName("branch_eq", &parsed));
}

TEST(OpTable, EveryAluOpNameRoundTrips) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(AluOp::kCmpNe); i++) {
    const AluOp op = static_cast<AluOp>(i);
    EXPECT_TRUE(names.insert(AluOpName(op)).second) << AluOpName(op) << " names two AluOps";
    AluOp parsed = AluOp::kAdd;
    ASSERT_TRUE(ParseAluOpName(AluOpName(op), &parsed)) << AluOpName(op);
    EXPECT_EQ(parsed, op) << AluOpName(op);
  }
  AluOp parsed = AluOp::kAdd;
  EXPECT_FALSE(ParseAluOpName("cmp", &parsed));
}

TEST(ModeHelpers, KernelModes) {
  EXPECT_TRUE(IsKernelMode(Mode::kKernel));
  EXPECT_TRUE(IsKernelMode(Mode::kHost));
  EXPECT_TRUE(IsKernelMode(Mode::kGuestKernel));
  EXPECT_FALSE(IsKernelMode(Mode::kUser));
  EXPECT_FALSE(IsKernelMode(Mode::kGuestUser));
}

// --- The Program's own decode ----------------------------------------------

// Checks that `program` carries one decode per instruction and that each is
// DecodeOne of that instruction, field by field.
void ExpectDecodeParallel(const Program& program, const std::string& what) {
  ASSERT_EQ(program.ops().size(), static_cast<size_t>(program.size())) << what;
  for (int32_t i = 0; i < program.size(); i++) {
    const DecodedOp want = DecodeOne(program.at(i));
    const DecodedOp& got = program.ops()[static_cast<size_t>(i)];
    EXPECT_EQ(got.cls, want.cls) << what << " instruction " << i;
    ASSERT_EQ(got.num_srcs, want.num_srcs) << what << " instruction " << i;
    for (uint8_t s = 0; s < want.num_srcs; s++) {
      EXPECT_EQ(got.srcs[s], want.srcs[s]) << what << " instruction " << i << " source " << +s;
    }
  }
}

TEST(ProgramDecode, GeneratedProgramsCarryTheirDecode) {
  for (uint64_t seed = 0; seed < 500; seed++) {
    ExpectDecodeParallel(GenerateProgram(seed), "seed " + std::to_string(seed));
  }
}

TEST(ProgramDecode, CorpusProgramsCarryTheirDecode) {
  const std::filesystem::path dir =
      std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "corpus";
  int parsed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    Program program;
    std::string error;
    if (!ParseCorpusProgram(text.str(), &program, &error)) {
      continue;  // reject-* files are malformed on purpose
    }
    parsed++;
    ExpectDecodeParallel(program, entry.path().string());
  }
  EXPECT_GE(parsed, 1) << dir;
}

Program HaltOnly() {
  ProgramBuilder b;
  b.Halt();
  return b.Build();
}

TEST(ProgramDecode, CopiesAndMovesKeepTheDecodeParallel) {
  ProgramBuilder mixed;
  Label end = mixed.NewLabel();
  mixed.MovImm(0, 1);
  mixed.Load(2, MemRef{3, 4, 1, 0});
  mixed.Store(MemRef{5, kNoReg, 1, 8}, 6);
  mixed.Cmov(1, 2, 3);
  mixed.Jmp(end);
  mixed.Syscall();
  mixed.Bind(end);
  mixed.Halt();
  const Program original = mixed.Build();
  ExpectDecodeParallel(original, "original");
  EXPECT_EQ(original.ops()[1].cls, StepClass::kMemory);
  EXPECT_EQ(original.ops()[1].num_srcs, 2);
  EXPECT_EQ(original.ops()[2].num_srcs, 2);  // base and the stored register
  EXPECT_EQ(original.ops()[3].num_srcs, 3);  // cmov reads its destination
  EXPECT_EQ(original.ops()[4].cls, StepClass::kBranch);
  EXPECT_EQ(original.ops()[5].cls, StepClass::kSystem);

  // A copy owns a decode of its own instructions.
  const Program copy = original;
  ExpectDecodeParallel(copy, "copy");
  EXPECT_NE(copy.ops().data(), original.ops().data());

  // Assignment replaces the decode with the source's, whatever the sizes.
  Program p = HaltOnly();
  p = original;
  ExpectDecodeParallel(p, "copy-assigned");
  EXPECT_EQ(p.size(), original.size());

  // A move takes the decode with the instructions.
  Program moved = std::move(p);
  ExpectDecodeParallel(moved, "moved");
  EXPECT_EQ(moved.size(), original.size());
  Program move_assigned = HaltOnly();
  move_assigned = std::move(moved);
  ExpectDecodeParallel(move_assigned, "move-assigned");
  EXPECT_EQ(move_assigned.size(), original.size());
}

TEST(ProgramDecode, EmptyProgramHasNoDecode) {
  const Program empty;
  EXPECT_EQ(empty.size(), 0);
  EXPECT_TRUE(empty.ops().empty());
  ProgramBuilder b;
  const Program built = b.Build();
  EXPECT_EQ(built.size(), 0);
  EXPECT_TRUE(built.ops().empty());
  Program assigned = GenerateProgram(1);
  assigned = empty;
  EXPECT_EQ(assigned.size(), 0);
  EXPECT_TRUE(assigned.ops().empty());
}

}  // namespace
}  // namespace specbench
