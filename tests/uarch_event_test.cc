// The cycle accountant: the CycleAttribution bucketing contract, and the two
// properties the machine must never lose — attaching an accountant is
// observation-only, and running without one costs (next to) nothing.
#include <gtest/gtest.h>

#include <chrono>

#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"
#include "src/uarch/cycle_attribution.h"
#include "src/uarch/machine.h"

namespace specbench {
namespace {

TEST(CycleAttribution, CauseTagNames) {
  EXPECT_STREQ(CauseTagName(CauseTag::kNone), "baseline");
  EXPECT_STREQ(CauseTagName(CauseTag::kSpectreV2), "spectre_v2");
  EXPECT_STREQ(CauseTagName(CauseTag::kJsIndexMasking), "js_index_masking");
}

TEST(CycleAttribution, BucketsEveryEventClass) {
  CycleAttribution attribution;
  attribution.OnRetire(CauseTag::kNone, 3);
  attribution.OnRetire(CauseTag::kPti, 7);
  attribution.OnStall(CauseTag::kNone, 5);
  attribution.OnStall(CauseTag::kSsbd, 11);
  attribution.OnExternalCharge(CauseTag::kSpectreV2, 13);
  attribution.OnEpisode(/*divider_cycles=*/4);
  attribution.OnCacheFill();
  attribution.OnFillBufferTouch();
  attribution.OnTlbFlush();
  attribution.OnStoreBufferDrain(/*entries=*/6);

  EXPECT_EQ(attribution.retired(), 2u);
  EXPECT_EQ(attribution.totals().Cause(CauseTag::kNone), 8u);
  EXPECT_EQ(attribution.totals().Cause(CauseTag::kPti), 7u);
  EXPECT_EQ(attribution.totals().Cause(CauseTag::kSsbd), 11u);
  EXPECT_EQ(attribution.totals().Cause(CauseTag::kSpectreV2), 13u);
  EXPECT_EQ(attribution.totals().total_cycles, 3u + 7u + 5u + 11u + 13u);
  EXPECT_EQ(attribution.untagged_stall_cycles(), 5u);
  EXPECT_EQ(attribution.external_cycles(), 13u);
  EXPECT_EQ(attribution.episodes(), 1u);
  EXPECT_EQ(attribution.episode_divider_cycles(), 4u);
  EXPECT_EQ(attribution.cache_fills(), 1u);
  EXPECT_EQ(attribution.fill_buffer_touches(), 1u);
  EXPECT_EQ(attribution.tlb_flushes(), 1u);
  EXPECT_EQ(attribution.store_buffer_drains(), 6u);

  attribution.Reset();
  EXPECT_EQ(attribution.totals().total_cycles, 0u);
  EXPECT_EQ(attribution.retired(), 0u);
  EXPECT_FALSE(attribution.HasWindow());
}

TEST(CycleAttribution, RdtscIssuesSnapshotTheWindow) {
  CycleAttribution attribution;
  attribution.OnRetire(CauseTag::kNone, 10);
  attribution.OnRdtsc();
  EXPECT_FALSE(attribution.HasWindow());
  attribution.OnRetire(CauseTag::kMds, 20);
  attribution.OnRetire(CauseTag::kNone, 30);
  attribution.OnRdtsc();
  ASSERT_TRUE(attribution.HasWindow());
  EXPECT_EQ(attribution.WindowTotalCycles(), 50u);
  EXPECT_EQ(attribution.WindowCauseCycles(CauseTag::kMds), 20u);
  EXPECT_EQ(attribution.WindowCauseCycles(CauseTag::kNone), 30u);
  // Charges after the last mark are outside the window.
  attribution.OnRetire(CauseTag::kMds, 40);
  EXPECT_EQ(attribution.rdtsc_snapshots().size(), 2u);
  EXPECT_EQ(attribution.WindowCauseCycles(CauseTag::kMds), 20u);
}

// A small fixed workload: loads, stores, arithmetic and branches, bracketed
// by lfence+rdtsc so the attribution window is defined.
Program BuildWorkload(int iterations) {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.MovImm(0, iterations);
  b.MovImm(1, 0x1000);
  b.Lfence();
  b.Rdtsc(10);
  b.Bind(loop);
  b.Store(MemRef{.base = 1}, 0);
  b.Load(2, MemRef{.base = 1});
  b.Alu(AluOp::kAdd, 3, 3, 2);
  b.AluImm(AluOp::kXor, 4, 3, 0x55);
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, loop);
  b.Lfence();
  b.Rdtsc(11);
  b.Halt();
  return b.Build();
}

TEST(CycleAttributionMachine, AttachingIsObservationOnly) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  Program p = BuildWorkload(500);

  Machine plain(cpu);
  plain.LoadProgram(&p);
  const Machine::RunResult r_plain = plain.Run(p.VaddrOf(0));

  Machine observed(cpu);
  observed.LoadProgram(&p);
  CycleAttribution attribution;
  observed.SetCycleAttribution(&attribution);
  const Machine::RunResult r_observed = observed.Run(p.VaddrOf(0));

  EXPECT_EQ(r_plain.cycles, r_observed.cycles);
  EXPECT_EQ(r_plain.instructions, r_observed.instructions);
  EXPECT_EQ(plain.cycles(), observed.cycles());
  for (uint8_t r = 0; r < 16; r++) {
    EXPECT_EQ(plain.reg(r), observed.reg(r)) << "register " << int{r};
  }

  // The accounting identity, end to end on real hardware paths: the window's
  // charged cycles equal the program's own rdtsc delta exactly.
  ASSERT_TRUE(attribution.HasWindow());
  EXPECT_EQ(attribution.WindowTotalCycles(), observed.reg(11) - observed.reg(10));
  EXPECT_EQ(attribution.retired(), r_observed.instructions);
}

// Reset() detaches the accountant: a reused machine must not keep charging
// an accountant owned by the previous run's harness.
TEST(CycleAttributionMachine, ResetDetachesTheAccountant) {
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  CycleAttribution attribution;
  m.SetCycleAttribution(&attribution);
  EXPECT_EQ(m.cycle_attribution(), &attribution);
  m.Reset();
  EXPECT_EQ(m.cycle_attribution(), nullptr);
}

// Guard: accounting must be provably free when nobody counts. A run with no
// accountant attached has to sustain a healthy simulated instruction rate —
// the threshold is deliberately an order of magnitude under what the
// simulator does on a developer machine (~10M+ instr/s), so it only trips
// if the accounting sites regress to unconditional work (or worse).
TEST(CycleAttributionMachine, UnattachedRunSustainsThroughput) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  Program p = BuildWorkload(200'000);
  Machine m(cpu);
  m.LoadProgram(&p);
  ASSERT_EQ(m.cycle_attribution(), nullptr);

  const auto start = std::chrono::steady_clock::now();
  const Machine::RunResult r = m.Run(p.VaddrOf(0), /*max_instructions=*/10'000'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(r.halted);
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  const double instr_per_sec = static_cast<double>(r.instructions) / seconds;
  EXPECT_GT(instr_per_sec, 1e6) << "unattached cycle accounting became load-bearing: "
                                << r.instructions << " instructions took " << seconds << "s";
}

}  // namespace
}  // namespace specbench
