// Textual corpus format for difftest reproducer programs.
//
// Shrunk diverging programs are committed under tests/corpus/ and replayed as
// regression tests, so the format is line-oriented, diff-friendly, and
// self-describing:
//
//   # spectrebench difftest corpus v1
//   # seed=17 cpu=skylake config=ssbd
//   base 0x400000
//   i op=mov_imm dst=12 imm=65536
//   i op=alu alu=add dst=0 src1=1 src2=2
//   i op=load dst=3 mem=12,0,1,8
//   i op=branch_nz src1=0 target=5
//   i op=halt
//
// Every instruction line serializes only the fields that differ from a
// default-constructed Instruction; `mem` is base,index,scale,disp with 255
// (kNoReg) for absent registers. Opcode and ALU names round-trip through
// OpName/ParseOpName, so renaming an opcode breaks parsing loudly instead of
// silently reinterpreting old corpora.
#ifndef SPECTREBENCH_SRC_DIFFTEST_CORPUS_H_
#define SPECTREBENCH_SRC_DIFFTEST_CORPUS_H_

#include <string>

#include "src/isa/program.h"

namespace specbench {

// Serializes `program` to corpus text. `comment` lines (may be multi-line)
// are emitted as leading `# ` comments after the version banner.
std::string SerializeCorpusProgram(const Program& program, const std::string& comment);

// Parses corpus text produced by SerializeCorpusProgram. Returns false and
// fills `error` (line number + reason) on malformed input, including an
// opcode the reference interpreter does not run (ReferenceSupports).
bool ParseCorpusProgram(const std::string& text, Program* out, std::string* error);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_DIFFTEST_CORPUS_H_
