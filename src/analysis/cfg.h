// Control-flow graph over a specbench::Program.
//
// Basic blocks are maximal straight-line instruction ranges; leaders are the
// program entry, every exported symbol, every branch target and every
// instruction following a control-flow opcode. Edges model the simulator's
// committed control transfers and are read off the terminator's opcode row
// (OpTable(), src/isa/isa.h):
//   * BranchKind kConditional / kDirect: a resolved-label edge to the target;
//   * BranchKind kIndirect: the target set is machine state (BTB), so the
//     block is marked has_indirect_successor;
//   * every opcode without kOpNoFallThrough: an edge to the next
//     instruction. For a call that is its return site (an interprocedural
//     over-approximation that keeps the dataflow pass intraprocedurally
//     simple while still propagating facts across calls); for kSyscall /
//     kSysret / kVmEnter / kVmExit, whose architectural target is machine
//     state, it is where the committed path resumes. kRet has no static
//     successor (the RSB detector walks call/ret pairing separately).
#ifndef SPECTREBENCH_SRC_ANALYSIS_CFG_H_
#define SPECTREBENCH_SRC_ANALYSIS_CFG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/isa/program.h"

namespace specbench {

struct BasicBlock {
  int32_t id = 0;
  int32_t first = 0;  // first instruction index (inclusive)
  int32_t last = 0;   // last instruction index (inclusive)
  std::vector<int32_t> successors;    // block ids
  std::vector<int32_t> predecessors;  // block ids
  // Terminator is an indirect branch: the successor set is unknowable
  // statically (every block is a potential successor).
  bool has_indirect_successor = false;
  bool is_entry = false;  // program entry or exported symbol
};

class Cfg {
 public:
  static Cfg Build(const Program& program);

  const Program& program() const { return *program_; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const BasicBlock& block(int32_t id) const { return blocks_[static_cast<size_t>(id)]; }
  int32_t num_blocks() const { return static_cast<int32_t>(blocks_.size()); }

  // Block containing instruction `index`.
  int32_t BlockOf(int32_t index) const { return block_of_[static_cast<size_t>(index)]; }

  // Entry block ids (program start plus exported symbols).
  const std::vector<int32_t>& entries() const { return entries_; }

 private:
  const Program* program_ = nullptr;
  std::vector<BasicBlock> blocks_;
  std::vector<int32_t> block_of_;  // instruction index -> block id
  std::vector<int32_t> entries_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_CFG_H_
