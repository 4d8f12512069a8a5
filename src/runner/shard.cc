#include "src/runner/shard.h"

#include "src/runner/parse.h"

namespace specbench {

namespace {

bool ParseU32Strict(const std::string& text, uint32_t* out) {
  uint64_t value = 0;
  if (!ParseU64Strict(text, &value) || value > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

bool ParseShardSpec(const std::string& text, ShardSpec* out, std::string* error) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos) {
    *error = "want i/N (shard i of N, zero-based)";
    return false;
  }
  const std::string i = text.substr(0, slash);
  const std::string n = text.substr(slash + 1);
  ShardSpec spec;
  if (!ParseU32Strict(i, &spec.index)) {
    *error = "\"" + i + "\" is not a decimal shard index";
    return false;
  }
  if (!ParseU32Strict(n, &spec.count)) {
    *error = "\"" + n + "\" is not a decimal shard count";
    return false;
  }
  if (spec.count == 0) {
    *error = "shard count must be at least 1";
    return false;
  }
  if (spec.index >= spec.count) {
    *error = "shard index " + i + " out of range for " + n + " shards (zero-based)";
    return false;
  }
  *out = spec;
  return true;
}

std::vector<size_t> ShardCellIndices(const ShardSpec& spec, size_t total_cells) {
  std::vector<size_t> indices;
  indices.reserve(spec.CellCount(total_cells));
  for (size_t i = spec.index; i < total_cells; i += spec.count) {
    indices.push_back(i);
  }
  return indices;
}

}  // namespace specbench
