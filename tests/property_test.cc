// Parameterized property tests: invariants that must hold across the whole
// CPU catalog and mitigation-configuration space.
#include <gtest/gtest.h>

#include <tuple>

#include "src/core/microbench.h"
#include "src/core/attribution.h"
#include "src/os/kernel.h"
#include "src/uarch/cache.h"
#include "src/uarch/predictors.h"
#include "src/os/paging.h"
#include "src/uarch/machine.h"
#include "src/util/rng.h"
#include "src/workload/lebench.h"

namespace specbench {
namespace {

std::string CpuParamName(Uarch uarch) {
  std::string name = UarchName(uarch);
  for (char& c : name) {
    if (c == ' ') {
      c = '_';
    }
  }
  return name;
}

// --- Determinism --------------------------------------------------------------

class CpuSweep : public ::testing::TestWithParam<Uarch> {};
INSTANTIATE_TEST_SUITE_P(Catalog, CpuSweep, ::testing::ValuesIn(AllUarches()),
                         [](const ::testing::TestParamInfo<Uarch>& info) {
                           return CpuParamName(info.param);
                         });

TEST_P(CpuSweep, MachineIsDeterministic) {
  // The same program on two fresh machines yields identical cycle counts,
  // register state and microarchitectural counters.
  auto run = [&](Machine& m) {
    ProgramBuilder b;
    Label loop = b.NewLabel();
    b.MovImm(0, 500);
    b.MovImm(1, 0x800000);
    b.Bind(loop);
    b.Load(2, MemRef{.base = 1});
    b.AluImm(AluOp::kAdd, 2, 2, 3);
    b.Store(MemRef{.base = 1}, 2);
    b.AluImm(AluOp::kAdd, 1, 1, 64);
    b.AluImm(AluOp::kSub, 0, 0, 1);
    b.BranchNz(0, loop);
    b.Halt();
    Program p = b.Build();
    m.LoadProgram(&p);
    return m.Run(p.VaddrOf(0)).cycles;
  };
  Machine a(GetCpuModel(GetParam()));
  Machine b(GetCpuModel(GetParam()));
  EXPECT_EQ(run(a), run(b));
}

TEST_P(CpuSweep, MicrobenchesAreDeterministic) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  EXPECT_EQ(MeasureLfence(cpu), MeasureLfence(cpu));
  EXPECT_EQ(MeasureIbpb(cpu), MeasureIbpb(cpu));
  const EntryExitCosts a = MeasureEntryExit(cpu);
  const EntryExitCosts b = MeasureEntryExit(cpu);
  EXPECT_EQ(a.syscall, b.syscall);
  EXPECT_EQ(a.sysret, b.sysret);
}

TEST_P(CpuSweep, ContextSaveRestoreRoundTrips) {
  Machine m(GetCpuModel(GetParam()));
  ProgramBuilder b;
  b.MovImm(0, 7);
  b.GpToFp(2, 0);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.Run(p.VaddrOf(0));
  m.SetSsbd(true);
  const Machine::ThreadContext ctx = m.SaveContext();
  m.SetReg(0, 99);
  m.SetFpReg(2, 99);
  m.SetSsbd(false);
  m.SetMode(Mode::kKernel);
  m.RestoreContext(ctx);
  EXPECT_EQ(m.reg(0), 7u);
  EXPECT_EQ(m.fpreg(2), 7u);
  EXPECT_TRUE(m.ssbd_active());
  EXPECT_EQ(m.mode(), Mode::kUser);
}

TEST_P(CpuSweep, RunPartialResumesWhereItStopped) {
  Machine m(GetCpuModel(GetParam()));
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.MovImm(0, 100);
  b.Bind(loop);
  b.AluImm(AluOp::kAdd, 1, 1, 1);
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, loop);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  Machine::RunResult r = m.RunPartial(p.VaddrOf(0), 50);
  EXPECT_FALSE(r.halted);
  int resumes = 0;
  while (!r.halted) {
    r = m.RunPartial(r.resume_rip, 50);
    resumes++;
    ASSERT_LT(resumes, 50);
  }
  EXPECT_EQ(m.reg(1), 100u);  // all iterations executed exactly once
}

// --- Mitigation monotonicity ---------------------------------------------------

// Each (CPU, knob) pair: turning one default mitigation off never makes the
// null syscall *slower* (modulo noise; the simulator itself is
// deterministic, so we compare noiseless totals through a fixed seed).
class KnobSweep : public ::testing::TestWithParam<std::tuple<Uarch, int>> {};
INSTANTIATE_TEST_SUITE_P(
    CatalogByKnob, KnobSweep,
    ::testing::Combine(::testing::ValuesIn(AllUarches()), ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<std::tuple<Uarch, int>>& info) {
      return CpuParamName(std::get<0>(info.param)) + "_knob" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(KnobSweep, DisablingAMitigationNeverSlowsTheBoundary) {
  const auto [uarch, knob_index] = GetParam();
  const CpuModel& cpu = GetCpuModel(uarch);
  const MitigationKnob& knob = OsMitigationKnobs()[static_cast<size_t>(knob_index)];
  MitigationConfig with = MitigationConfig::Defaults(cpu);
  if (!knob.relevant(cpu, with)) {
    GTEST_SKIP() << "knob not in this CPU's default set";
  }
  MitigationConfig without = with;
  JitConfig jit = JitConfig::AllOn();
  knob.disable(&jit, &without);
  const double cost_with = LeBench::RunKernel("getpid", cpu, with, 7);
  const double cost_without = LeBench::RunKernel("getpid", cpu, without, 7);
  EXPECT_GE(cost_with, cost_without * 0.97)
      << knob.id << " made the syscall slower when disabled";
}

// --- Boot parameters -----------------------------------------------------------

TEST_P(CpuSweep, CmdlineRoundTripsToAllOff) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const MitigationConfig config = ConfigFromCmdline(
      cpu, {"nopti", "mds=off", "nospectre_v1", "nospectre_v2",
            "spec_store_bypass_disable=off", "l1tf=off"});
  EXPECT_FALSE(config.pti);
  EXPECT_FALSE(config.mds_clear_buffers);
  EXPECT_EQ(config.retpoline, RetpolineMode::kNone);
  EXPECT_FALSE(config.kernel_index_masking);
  EXPECT_EQ(config.ssbd, SsbdMode::kOff);
  EXPECT_FALSE(config.l1tf_pte_inversion);
}

// --- Random-operation invariants -------------------------------------------------

TEST(Properties, RsbNeverExceedsDepth) {
  Rng rng(99);
  Rsb rsb(16);
  for (int i = 0; i < 5000; i++) {
    switch (rng.NextBelow(3)) {
      case 0:
        rsb.Push(rng.NextU64());
        break;
      case 1:
        rsb.Pop();
        break;
      default:
        if (rng.NextBelow(50) == 0) {
          rsb.Stuff(0);
        }
        break;
    }
    ASSERT_LE(rsb.size(), 16u);
  }
}

TEST(Properties, CacheContainsAfterAccessUntilEviction) {
  // A line just accessed is always resident; Contains never mutates.
  Rng rng(123);
  Cache cache(CacheGeometry{4096, 4, 64, 4});
  for (int i = 0; i < 5000; i++) {
    const uint64_t addr = rng.NextBelow(1 << 16) & ~UINT64_C(7);
    cache.Access(addr);
    ASSERT_TRUE(cache.Contains(addr));
  }
}

TEST(Properties, PageMapperTranslationsAreConsistent) {
  // Random non-overlapping regions: every covered address translates to the
  // recorded physical offset; uncovered addresses stay unmapped.
  Rng rng(7);
  PageMapper mapper;
  struct Region {
    uint64_t start;
    uint64_t size;
    uint64_t paddr;
  };
  std::vector<Region> regions;
  uint64_t next_start = 0x1000;
  for (int i = 0; i < 64; i++) {
    const uint64_t size = (1 + rng.NextBelow(8)) * kPageBytes;
    const uint64_t gap = (1 + rng.NextBelow(4)) * kPageBytes;
    const uint64_t paddr = 0x100000000ULL + static_cast<uint64_t>(i) * 0x100000;
    mapper.AddRegion(1, next_start, size, paddr, true);
    regions.push_back(Region{next_start, size, paddr});
    next_start += size + gap;
  }
  for (const Region& region : regions) {
    for (uint64_t probe : {UINT64_C(0), region.size / 2, region.size - 8}) {
      const Translation t = mapper.Translate(region.start + probe, 1, Mode::kUser);
      ASSERT_TRUE(t.valid);
      ASSERT_EQ(t.paddr, region.paddr + probe);
    }
    // The gap after each region is unmapped.
    ASSERT_FALSE(mapper.Translate(region.start + region.size, 1, Mode::kUser).mapped);
  }
}

TEST(Properties, StoreBufferDrainPreservesAllStores) {
  // Randomized store traffic: every pushed value eventually lands in memory
  // exactly once (via forced drains, resolved drains or the final DrainAll).
  Rng rng(31);
  Machine m(GetCpuModel(Uarch::kZen2));
  ProgramBuilder b;
  std::map<uint64_t, uint64_t> expected;
  uint64_t addr_base = 0xA00000;
  b.MovImm(1, 0);
  for (int i = 0; i < 200; i++) {
    const uint64_t addr = addr_base + rng.NextBelow(64) * 8;
    const uint64_t value = rng.NextBelow(1 << 20);
    b.MovImm(2, static_cast<int64_t>(value));
    b.MovImm(3, static_cast<int64_t>(addr));
    b.Store(MemRef{.base = 3}, 2);
    expected[addr] = value;  // last write wins
  }
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.Run(p.VaddrOf(0));
  for (const auto& [addr, value] : expected) {
    ASSERT_EQ(m.PeekData(addr), value) << std::hex << addr;
  }
}

}  // namespace
}  // namespace specbench
