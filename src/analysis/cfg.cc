#include "src/analysis/cfg.h"

#include <algorithm>
#include <set>

#include "src/isa/isa.h"
#include "src/util/check.h"

namespace specbench {

Cfg Cfg::Build(const Program& program) {
  Cfg cfg;
  cfg.program_ = &program;
  const int32_t n = program.size();
  SPECBENCH_CHECK_MSG(n > 0, "cannot build a CFG over an empty program");

  // Pass 1: leaders.
  std::set<int32_t> leaders;
  leaders.insert(0);
  for (const auto& [name, index] : program.symbols()) {
    (void)name;
    leaders.insert(index);
  }
  for (int32_t i = 0; i < n; i++) {
    const Instruction& in = program.at(i);
    if (in.target >= 0 && in.target < n) {
      leaders.insert(in.target);
    }
    if (IsControlFlow(in.op) && i + 1 < n) {
      leaders.insert(i + 1);
    }
  }

  // Pass 2: blocks.
  cfg.block_of_.assign(static_cast<size_t>(n), -1);
  for (auto it = leaders.begin(); it != leaders.end(); ++it) {
    auto next = std::next(it);
    BasicBlock bb;
    bb.id = static_cast<int32_t>(cfg.blocks_.size());
    bb.first = *it;
    bb.last = (next == leaders.end() ? n : *next) - 1;
    for (int32_t i = bb.first; i <= bb.last; i++) {
      cfg.block_of_[static_cast<size_t>(i)] = bb.id;
    }
    cfg.blocks_.push_back(std::move(bb));
  }

  // Pass 3: edges.
  auto add_edge = [&](int32_t from, int32_t to_index) {
    if (to_index < 0 || to_index >= n) {
      return;
    }
    const int32_t to = cfg.block_of_[static_cast<size_t>(to_index)];
    BasicBlock& src = cfg.blocks_[static_cast<size_t>(from)];
    if (std::find(src.successors.begin(), src.successors.end(), to) == src.successors.end()) {
      src.successors.push_back(to);
      cfg.blocks_[static_cast<size_t>(to)].predecessors.push_back(from);
    }
  };
  for (BasicBlock& bb : cfg.blocks_) {
    const Instruction& term = program.at(bb.last);
    const OpInfo& info = InfoOf(term.op);
    if (info.branch == BranchKind::kConditional || info.branch == BranchKind::kDirect) {
      add_edge(bb.id, term.target);
    }
    bb.has_indirect_successor = info.branch == BranchKind::kIndirect;
    if (!info.Has(kOpNoFallThrough)) {
      // A call's return site (an over-approximation), a privilege
      // transition's resume point, or a block ended by a leader.
      add_edge(bb.id, bb.last + 1);
    }
  }

  // Entries: instruction 0 plus every exported symbol.
  std::set<int32_t> entry_blocks;
  entry_blocks.insert(cfg.block_of_[0]);
  for (const auto& [name, index] : program.symbols()) {
    (void)name;
    entry_blocks.insert(cfg.block_of_[static_cast<size_t>(index)]);
  }
  for (int32_t id : entry_blocks) {
    cfg.blocks_[static_cast<size_t>(id)].is_entry = true;
    cfg.entries_.push_back(id);
  }
  return cfg;
}

}  // namespace specbench
