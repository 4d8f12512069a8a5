// Deterministic sharding of a sweep grid across processes.
//
// A shard is a pure function of (cell registration index, shard spec): cell
// i belongs to shard i % count. Round-robin (rather than contiguous block)
// assignment spreads adjacent cells — which tend to share a CPU or workload
// and therefore a cost profile — evenly across shards, so N shard processes
// finish at roughly the same time.
//
// Crucially, sharding never touches seeding: a cell's seed is derived from
// (base_seed, cell key) alone (src/runner/seed.h), so the cell computes the
// exact same bytes whether it runs in a one-shot `--jobs=1` sweep, one of N
// shard processes, or a resumed run. That is the cross-process determinism
// contract the merge step (src/runner/checkpoint.h) relies on.
#ifndef SPECTREBENCH_SRC_RUNNER_SHARD_H_
#define SPECTREBENCH_SRC_RUNNER_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace specbench {

// One slice of a grid: shard `index` of `count`. The default spec (0 of 1)
// owns every cell.
struct ShardSpec {
  uint32_t index = 0;
  uint32_t count = 1;

  bool Owns(size_t cell_index) const { return cell_index % count == index; }
  // Number of cells this shard owns out of `total_cells`.
  size_t CellCount(size_t total_cells) const {
    return (total_cells + count - 1 - index) / count;
  }
  bool IsFullGrid() const { return count == 1; }
};

// Strict "--shard=i/N" parser: both parts decimal, N >= 1, i < N. Returns
// false with a one-line reason in *error otherwise.
bool ParseShardSpec(const std::string& text, ShardSpec* out, std::string* error);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_RUNNER_SHARD_H_
