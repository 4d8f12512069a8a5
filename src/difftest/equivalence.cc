#include "src/difftest/equivalence.h"

#include <map>
#include <sstream>

#include "src/difftest/reference.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"

namespace specbench {

namespace {

// Bounds a runaway program, on the reference and on the machine alike.
constexpr uint64_t kMaxInstructions = 1'000'000;
// The dead-stack window: [kGenStackTop - kStackWindowBytes, kGenStackTop).
constexpr uint64_t kStackWindowBytes = 4096;

}  // namespace

EquivalenceReport CheckRewriteEquivalence(const Program& original, const Program& hardened,
                                          const std::vector<int32_t>& index_map,
                                          const EquivalenceOptions& options) {
  SPECBENCH_CHECK_MSG(static_cast<int32_t>(index_map.size()) == original.size() + 1,
                      "index_map must cover every original index plus one-past-the-end");
  EquivalenceReport report;

  const ReferenceResult ref_original = RunReference(original, kMaxInstructions);
  if (!ref_original.ok) {
    // Outside the deterministic user-mode subset (or non-terminating):
    // the reference cannot supply ground truth, so there is nothing to
    // check — the caller's replay-based validation still applies.
    report.divergence = "original program not checkable: " + ref_original.error;
    return report;
  }
  report.checked = true;

  const ReferenceResult ref_hardened = RunReference(hardened, kMaxInstructions);
  if (!ref_hardened.ok) {
    report.divergence = "hardened program failed on the reference: " + ref_hardened.error;
    return report;
  }

  const ArchState& so = ref_original.state;
  const ArchState& sh = ref_hardened.state;

  // A value is equivalent when equal, or when the original value is the
  // address of original instruction t and the hardened value is t's
  // relocated address.
  auto values_equivalent = [&](uint64_t vo, uint64_t vh) {
    if (vo == vh) {
      return true;
    }
    const int32_t t = original.IndexOf(vo);
    if (t < 0) {
      return false;
    }
    return vh == hardened.VaddrOf(index_map[static_cast<size_t>(t)]);
  };
  auto fail = [&](const std::string& what, uint64_t vo, uint64_t vh) {
    std::ostringstream out;
    out << what << ": original 0x" << std::hex << vo << ", hardened 0x" << vh;
    report.divergence = out.str();
    return report;
  };

  for (uint8_t r = 0; r < kNumRegs; r++) {
    if (!values_equivalent(so.regs[r], sh.regs[r])) {
      return fail("reg[" + std::to_string(r) + "]", so.regs[r], sh.regs[r]);
    }
  }
  for (uint8_t r = 0; r < kNumFpRegs; r++) {
    if (so.fpregs[r] != sh.fpregs[r]) {
      return fail("fpreg[" + std::to_string(r) + "]", so.fpregs[r], sh.fpregs[r]);
    }
  }
  if (so.halted != sh.halted) {
    return fail("halted", so.halted, sh.halted);
  }

  // Memory, word by word (the digests cannot match: relocated code
  // addresses stored to memory legitimately differ).
  const bool ignore_dead_stack =
      so.regs[kRegSp] == kGenStackTop && sh.regs[kRegSp] == kGenStackTop;
  auto in_dead_stack = [&](uint64_t addr) {
    return ignore_dead_stack && addr < kGenStackTop &&
           addr >= kGenStackTop - kStackWindowBytes;
  };
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> words;  // addr -> (orig, hardened)
  for (const auto& [addr, value] : ref_original.memory_words) {
    words[addr].first = value;
  }
  for (const auto& [addr, value] : ref_hardened.memory_words) {
    words[addr].second = value;
  }
  for (const auto& [addr, pair] : words) {
    if (in_dead_stack(addr)) {
      continue;
    }
    if (!values_equivalent(pair.first, pair.second)) {
      std::ostringstream what;
      what << "memory word at 0x" << std::hex << addr;
      return fail(what.str(), pair.first, pair.second);
    }
  }

  // Machine-side oracle: the hardened program must also be simulated
  // faithfully (exact ArchState agreement with its own reference run).
  const std::vector<DiffConfig> configs =
      options.configs.empty() ? DefaultDiffConfigs() : options.configs;
  for (Uarch uarch : options.cpus) {
    MachineLease lease(GetCpuModel(uarch));
    for (const DiffConfig& config : configs) {
      const ArchState machine =
          RunMachineArch(*lease, hardened, config, kMaxInstructions,
                         /*inject_alu_fault_after=*/0, &ref_hardened);
      if (!(machine == sh)) {
        report.divergence = std::string("hardened program diverges on ") + UarchName(uarch) +
                            "/" + config.name + ": " + DescribeArchDivergence(sh, machine);
        return report;
      }
    }
  }

  report.equivalent = true;
  return report;
}

}  // namespace specbench
