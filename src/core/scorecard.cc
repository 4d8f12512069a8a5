#include "src/core/scorecard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/attack/attacks.h"
#include "src/attack/speculation_probe.h"
#include "src/core/experiments.h"
#include "src/core/paper_expectations.h"
#include "src/core/sweep_grids.h"
#include "src/util/check.h"
#include "src/util/text_table.h"
#include "src/workload/lebench.h"
#include "src/workload/octane.h"

namespace specbench {

namespace {

using Rows = std::vector<ScorecardRow>;
constexpr ClaimKind kCal = ClaimKind::kCalibrated;
constexpr ClaimKind kEme = ClaimKind::kEmergent;

// A paper number as the text states it: "30", "7.5", "0.5".
std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

std::string BandText(const Band& band, const std::string& unit) {
  if (std::isinf(band.lo)) {
    return "<=" + Num(band.hi) + unit;
  }
  if (std::isinf(band.hi)) {
    return ">=" + Num(band.lo) + unit;
  }
  if (band.lo == -band.hi) {
    return "+/-" + Num(band.hi) + unit;
  }
  return Num(band.lo) + "-" + Num(band.hi) + unit;
}

// "~X" claims print the band they are checked against.
std::string ApproxText(double paper, const std::string& unit) {
  return "~" + Num(paper) + unit + " (" + BandText(Approximately(paper), unit) + ")";
}

std::string Id(const std::string& table, Uarch u, const std::string& what = "") {
  return table + "." + CpuSlug(UarchName(u)) + (what.empty() ? "" : "." + what);
}

std::string Pct(double value) { return FormatPercent(value, 2); }
std::string Delta(double cycles) { return "+" + FormatCycles(cycles); }
const char* Outcome(const AttackResult& result) { return result.leaked ? "LEAK" : "safe"; }

double Mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

// An emergent percentage inside a band; `paper` defaults to the band.
void AddPct(Rows& rows, std::string id, const std::string& section, const Band& band, double pct,
            const std::string& where = "", std::string paper = "") {
  rows.push_back({std::move(id), section, kEme,
                  paper.empty() ? BandText(band, "%") : std::move(paper),
                  Pct(pct) + (where.empty() ? "" : " (" + where + ")"), band.Holds(pct)});
}

void AddApproxPct(Rows& rows, std::string id, const std::string& section, double paper,
                  double pct) {
  AddPct(rows, std::move(id), section, Approximately(paper), pct, "", ApproxText(paper, "%"));
}

// An emergent ordering: `low` costs less than `high`.
void AddLess(Rows& rows, std::string id, const std::string& section, const std::string& low_name,
             double low, const std::string& high_name, double high,
             std::string (*format)(double) = Pct) {
  rows.push_back({std::move(id), section, kEme, low_name + " < " + high_name,
                  format(low) + " < " + format(high), low < high});
}

// A calibrated cycle count within the paper's tolerance.
void AddCycles(Rows& rows, std::string id, const std::string& section, double measured,
               double paper, const Tolerance& tolerance) {
  rows.push_back({std::move(id), section, kCal, Num(paper) + " +/-" + Num(tolerance.Bound(paper)),
                  FormatCycles(measured), tolerance.Holds(measured, paper)});
}

double LeBenchGeomean(const CpuModel& cpu, const MitigationConfig& config, uint64_t seed) {
  return LeBench::SuiteGeomean(LeBench::RunSuite(cpu, config, seed));
}

// Octane 2 slowdown of (jit, os) against everything off.
double OctaneSlowdown(const CpuModel& cpu, const JitConfig& jit, const MitigationConfig& os,
                      uint64_t seed) {
  const double base = Octane::SuiteScore(
      Octane::RunSuite(cpu, JitConfig::AllOff(), MitigationConfig::AllOff(), 1));
  return (base / Octane::SuiteScore(Octane::RunSuite(cpu, jit, os, seed)) - 1.0) * 100.0;
}

double SegmentPct(const AttributionReport& report, const std::string& id) {
  for (const AttributionSegment& segment : report.segments) {
    if (segment.id == id) {
      return segment.overhead_pct.value;
    }
  }
  SPECBENCH_CHECK_MSG(false, "scorecard: a claim reads an unknown attribution segment");
  return 0;
}

// --- The claims ---------------------------------------------------------------

void AddMicrobenchRows(Rows& rows) {
  for (Uarch u : AllUarches()) {
    const EntryExitCosts costs = MeasureEntryExit(GetCpuModel(u));
    const PaperTable3Row t3 = PaperTable3(u);
    AddCycles(rows, Id("table3", u, "syscall"), "Table 3", costs.syscall, t3.syscall,
              kTable3EntryExitTolerance);
    AddCycles(rows, Id("table3", u, "sysret"), "Table 3", costs.sysret, t3.sysret,
              kTable3EntryExitTolerance);
    if (t3.swap_cr3.has_value()) {
      AddCycles(rows, Id("table3", u, "swap_cr3"), "Table 3", costs.swap_cr3, *t3.swap_cr3,
                kTable3SwapCr3Tolerance);
    }
  }
  for (Uarch u : AllUarches()) {
    const double verw = MeasureVerw(GetCpuModel(u));
    if (const auto t4 = PaperTable4(u); t4.has_value()) {
      AddCycles(rows, Id("table4", u, "verw"), "Table 4", verw, *t4, kTable4VerwTolerance);
    } else {
      rows.push_back({Id("table4", u, "verw"), "Table 4", kCal,
                      "N/A (<" + Num(kTable4LegacyVerwMaxCycles) + ")", FormatCycles(verw),
                      verw < kTable4LegacyVerwMaxCycles});
    }
  }
  // Table 5: a retpoline costs more than a predicted branch; IBRS is ~free
  // on eIBRS parts and costly on legacy parts.
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const IndirectBranchCosts b = MeasureIndirectBranch(cpu);
    const PaperTable5Row t5 = PaperTable5(u);
    const double retpoline = b.generic_retpoline - b.baseline;
    const double ibrs = b.ibrs - b.baseline;
    rows.push_back({Id("table5", u, "generic_retpoline"), "Table 5", kEme,
                    "+" + Num(t5.generic_delta) + " (>0)", Delta(retpoline), retpoline > 0});
    if (cpu.predictor.eibrs) {
      rows.push_back({Id("table5", u, "ibrs"), "Table 5", kEme,
                      "+" + Num(*t5.ibrs_delta) + " (<=+" + Num(kTable5EibrsMaxDelta) + ")",
                      Delta(ibrs), std::fabs(ibrs) <= kTable5EibrsMaxDelta});
    } else if (cpu.predictor.ibrs_supported) {
      rows.push_back({Id("table5", u, "ibrs"), "Table 5", kEme,
                      "+" + Num(*t5.ibrs_delta) + " (>+" + Num(kTable5LegacyIbrsMinDelta) + ")",
                      Delta(ibrs), ibrs > kTable5LegacyIbrsMinDelta});
    }
  }
  // The paper's standout AMD result: the lfence retpoline is slower than the
  // generic one on Zen and ~free on Zen 2.
  const IndirectBranchCosts zen = MeasureIndirectBranch(GetCpuModel(Uarch::kZen1));
  const IndirectBranchCosts zen2 = MeasureIndirectBranch(GetCpuModel(Uarch::kZen2));
  AddLess(rows, Id("table5", Uarch::kZen1, "amd_vs_generic"), "Table 5", "generic",
          zen.generic_retpoline - zen.baseline, "AMD", zen.amd_retpoline - zen.baseline, Delta);
  AddLess(rows, Id("table5", Uarch::kZen2, "amd_vs_generic"), "Table 5", "AMD",
          zen2.amd_retpoline - zen2.baseline, "generic", zen2.generic_retpoline - zen2.baseline,
          Delta);
  for (Uarch u : AllUarches()) {
    AddCycles(rows, Id("table6", u, "ibpb"), "Table 6", MeasureIbpb(GetCpuModel(u)),
              PaperTable6Ibpb(u), kTable6IbpbTolerance);
  }
  for (Uarch u : AllUarches()) {
    AddCycles(rows, Id("table7", u, "rsb_stuff"), "Table 7", MeasureRsbStuff(GetCpuModel(u)),
              PaperTable7RsbStuff(u), kTable7RsbTolerance);
  }
  for (Uarch u : AllUarches()) {
    AddCycles(rows, Id("table8", u, "lfence"), "Table 8", MeasureLfence(GetCpuModel(u)),
              PaperTable8Lfence(u), kTable8LfenceTolerance);
  }
}

// Tables 9/10 as one string per CPU, encoded as in PaperTable9().
void AddProbeRows(Rows& rows) {
  for (bool ibrs : {false, true}) {
    for (Uarch u : AllUarches()) {
      const std::string expected = ibrs ? PaperTable10(u) : PaperTable9(u);
      const SpeculationProbe probe(GetCpuModel(u));
      std::string measured;
      for (const ProbeCase& c : Table9Columns(ibrs)) {
        const ProbeOutcome outcome = probe.Run(c);
        measured += outcome == ProbeOutcome::kSpeculated ? 'y' : 'n';
        if (outcome == ProbeOutcome::kUnsupported) {
          measured = "N/A";
          break;
        }
      }
      rows.push_back({Id(ibrs ? "table10" : "table9", u), ibrs ? "Table 10" : "Table 9", kEme,
                      expected, measured, measured == expected});
    }
  }
  const ProbeOutcome control = SpeculationProbe(GetCpuModel(Uarch::kZen3)).RunSameSiteControl();
  rows.push_back({Id("table9", Uarch::kZen3, "same_site_control"), "Section 6.2", kEme,
                  kZen3SameSiteSpeculates ? "speculated" : "safe", ProbeOutcomeName(control),
                  (control == ProbeOutcome::kSpeculated) == kZen3SameSiteSpeculates});
}

// Figures 2 and 3 (reports in AllUarches() order) and Figure 5.
void AddFigureRows(Rows& rows, const std::vector<AttributionReport>& lebench,
                   const std::vector<AttributionReport>& octane) {
  for (Uarch u : AllUarches()) {
    const AttributionReport& report = lebench[static_cast<size_t>(u)];
    if (const std::optional<Band> band = PaperFigure2Total(u); band.has_value()) {
      AddPct(rows, Id("fig2", u, "total"), "Figure 2", *band, report.total_overhead_pct.value);
    }
    AddPct(rows, Id("fig2", u, "spectre_v1"), "Figure 2", AtMost(kFigure2SpectreV1MaxPct),
           SegmentPct(report, "spectre_v1"));
  }
  AddApproxPct(rows, Id("fig2", Uarch::kBroadwell, "pti"), "Section 5.1", kSection51PtiPct,
               SegmentPct(lebench.front(), "pti"));

  std::vector<double> masking;
  std::vector<double> object;
  std::vector<double> js_share;
  for (Uarch u : AllUarches()) {
    const AttributionReport& report = octane[static_cast<size_t>(u)];
    AddPct(rows, Id("fig3", u, "total"), "Figure 3", kFigure3Total,
           report.total_overhead_pct.value);
    AddPct(rows, Id("fig3", u, "ssbd"), "Figure 3", AtLeast(kFigure3SsbdMinPct),
           SegmentPct(report, "ssbd"));
    masking.push_back(SegmentPct(report, "index_masking"));
    object.push_back(SegmentPct(report, "object_guards"));
    js_share.push_back((masking.back() + object.back()) / report.total_overhead_pct.value * 100);
  }
  AddApproxPct(rows, "fig3.index_masking.mean", "Figure 3", kFigure3IndexMaskingPct,
               Mean(masking));
  AddApproxPct(rows, "fig3.object_guards.mean", "Figure 3", kFigure3ObjectPct, Mean(object));
  AddApproxPct(rows, "fig3.js_v1_share.mean", "Figure 3", kFigure3JsSharePct, Mean(js_share));

  const std::vector<Fig5Row> fig5 = RunFigure5Ssbd();
  std::vector<double> cpu_mean;  // over the three kernels
  double max = 0;
  size_t swaptions_least = 0;
  for (const Fig5Row& row : fig5) {
    cpu_mean.push_back(Mean({row.swaptions_pct, row.facesim_pct, row.bodytrack_pct}));
    max = std::max({max, row.swaptions_pct, row.facesim_pct, row.bodytrack_pct});
    swaptions_least += row.swaptions_pct < std::min(row.facesim_pct, row.bodytrack_pct) ? 1 : 0;
  }
  AddApproxPct(rows, "fig5.max", "Figure 5", kFigure5MaxPct, max);
  // "Trending worse over time": each vendor's newest part (Table 2) loses
  // more than its oldest.
  for (const auto& [oldest, newest] :
       {std::pair{Uarch::kBroadwell, Uarch::kIceLakeServer}, {Uarch::kZen1, Uarch::kZen3}}) {
    AddLess(rows, Id("fig5", newest, "trend"), "Figure 5", UarchName(oldest),
            cpu_mean[static_cast<size_t>(oldest)], UarchName(newest),
            cpu_mean[static_cast<size_t>(newest)]);
  }
  rows.push_back({"fig5.swaptions_least", "Figure 5", kEme, "every CPU",
                  std::to_string(swaptions_least) + "/" + std::to_string(fig5.size()) + " CPUs",
                  swaptions_least == fig5.size()});
}

void AddSectionRows(Rows& rows, const std::vector<VmWorkloadResult>& vm,
                    const std::vector<ParsecDefaultResult>& parsec) {
  std::map<std::string, std::vector<double>> lfs;  // workload -> one value per CPU
  for (const VmWorkloadResult& r : vm) {
    if (r.workload == "lebench-in-vm") {
      AddPct(rows, "sec44." + CpuSlug(r.cpu) + ".lebench-in-vm", "Section 4.4",
             kSection44LeBenchInVm, r.overhead_pct.value);
    } else {
      lfs[r.workload].push_back(r.overhead_pct.value);
    }
  }
  for (auto& [workload, values] : lfs) {
    std::sort(values.begin(), values.end());  // an even count: the median is the middle pair
    AddPct(rows, "sec44." + workload + ".median", "Section 4.4",
           AtMost(kSection44LfsMedianMaxPct),
           (values[values.size() / 2 - 1] + values[values.size() / 2]) / 2.0);
  }

  double max_abs = 0;
  size_t quiet = 0;
  for (const ParsecDefaultResult& r : parsec) {
    max_abs = std::max(max_abs, std::fabs(r.overhead_pct.value));
    quiet += std::fabs(r.overhead_pct.value) <= kNoiseFloorPct ? 1 : 0;
  }
  rows.push_back({"sec45.max_abs", "Section 4.5", kEme, BandText(AtMost(kSection45MaxAbsPct), "%"),
                  FormatPercent(max_abs, 2), max_abs <= kSection45MaxAbsPct});
  rows.push_back({"sec45.within_noise", "Section 4.5", kEme,
                  ">=" + Num(kSection45UsuallyShare * 100) + "% of cells within +/-" +
                      Num(kNoiseFloorPct) + "%",
                  std::to_string(quiet) + "/" + std::to_string(parsec.size()) + " cells",
                  quiet >= kSection45UsuallyShare * static_cast<double>(parsec.size())});

  // The slow-entry period and cost are model inputs (the eIBRS scrub
  // parameters in src/cpu), hence calibrated.
  for (const EibrsBimodalRow& row : MeasureEibrsBimodal()) {
    const std::string id = "sec622." + CpuSlug(row.cpu);
    const uint64_t period = row.SlowEntryPeriod();
    const double extra = row.slow_avg - row.fast_avg;
    rows.push_back({id + ".slow_period", "Section 6.2.2", kCal,
                    "1 in " + BandText(kSection622SlowEntryPeriod, ""),
                    "1 in " + std::to_string(period),
                    kSection622SlowEntryPeriod.Holds(static_cast<double>(period))});
    rows.push_back({id + ".extra_cycles", "Section 6.2.2", kCal,
                    ApproxText(kSection622ExtraCycles, ""), Delta(extra),
                    Approximately(kSection622ExtraCycles).Holds(extra)});
  }
}

// The ablations the paper discusses. Each run has a fixed seed, so the rows
// do not depend on the runner.
void AddAblationRows(Rows& rows) {
  // §5.3/§6.2.1: LEBench overhead of each Spectre V2 strategy vs none, the
  // rest at defaults. Linux took retpolines over legacy IBRS on older parts
  // and eIBRS where the silicon provides it.
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig base = MitigationConfig::Defaults(cpu);
    base.retpoline = RetpolineMode::kNone;
    base.ibrs = IbrsMode::kOff;
    const double none = LeBenchGeomean(cpu, base, 1);
    auto overhead = [&](RetpolineMode retpoline, IbrsMode ibrs) {
      MitigationConfig c = base;
      c.retpoline = retpoline;
      c.ibrs = ibrs;
      return (LeBenchGeomean(cpu, c, 2) / none - 1.0) * 100.0;
    };
    const double retpoline = overhead(RetpolineMode::kGeneric, IbrsMode::kOff);
    if (cpu.predictor.eibrs) {
      AddLess(rows, Id("ablation.spectre_v2", u), "Section 5.3", "eIBRS",
              overhead(RetpolineMode::kNone, IbrsMode::kEibrs), "retpoline", retpoline);
    } else if (cpu.predictor.ibrs_supported) {
      AddLess(rows, Id("ablation.spectre_v2", u), "Section 5.3", "retpoline", retpoline,
              "legacy IBRS", overhead(RetpolineMode::kNone, IbrsMode::kLegacyIbrs));
    }
  }
  // §5.1: LEBench overhead of PTI with and without PCIDs; without them every
  // cr3 write flushes the TLB.
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    if (!cpu.vuln.meltdown) {
      continue;
    }
    MitigationConfig off = MitigationConfig::Defaults(cpu);
    off.pti = false;
    const double base = LeBenchGeomean(cpu, off, 1);
    MitigationConfig pcid = off;
    pcid.pti = true;
    MitigationConfig nopcid = pcid;
    nopcid.pcid = false;
    AddLess(rows, Id("ablation.pcid", u), "Section 5.1", "PCID",
            (LeBenchGeomean(cpu, pcid, 2) / base - 1.0) * 100.0, "no PCID",
            (LeBenchGeomean(cpu, nopcid, 3) / base - 1.0) * 100.0);
  }
  // §7: Octane 2 slowdown drops by the SSBD slice once Linux 5.16 stops
  // applying SSBD to seccomp processes; Speculative Load Hardening costs more
  // than the targeted JIT mitigations it would replace (OS side post-5.16).
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig pre516 = MitigationConfig::Defaults(cpu);
    pre516.ssbd = SsbdMode::kSeccomp;
    MitigationConfig post516 = MitigationConfig::Defaults(cpu);
    post516.ssbd = SsbdMode::kPrctl;
    const double post = OctaneSlowdown(cpu, JitConfig::AllOn(), post516, 3);
    AddLess(rows, Id("ablation.browser", u, "post_5_16"), "Section 7", "post-5.16", post,
            "pre-5.16", OctaneSlowdown(cpu, JitConfig::AllOn(), pre516, 2));
    AddLess(rows, Id("ablation.browser", u, "slh"), "Section 7", "targeted", post, "SLH",
            OctaneSlowdown(cpu, JitConfig::SlhOnly(), post516, 4));
  }
  // §3.3: verw guards transitions, but only SMT-off stops a sibling from
  // sampling fill buffers while the victim runs. Columns: SMT on + verw,
  // SMT off + verw, SMT off without verw.
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const AttackResult smt_on = RunMdsSmtAttack(cpu, MdsSmtOptions{true, true});
    const AttackResult smt_off = RunMdsSmtAttack(cpu, MdsSmtOptions{false, true});
    const AttackResult no_verw = RunMdsSmtAttack(cpu, MdsSmtOptions{false, false});
    rows.push_back({Id("ablation.smt_mds", u), "Section 3.3", kEme,
                    cpu.vuln.mds ? "LEAK/safe/-" : "safe/safe/safe",
                    std::string(Outcome(smt_on)) + "/" + Outcome(smt_off) + "/" + Outcome(no_verw),
                    cpu.vuln.mds ? smt_on.leaked && !smt_off.leaked
                                 : !smt_on.leaked && !smt_off.leaked && !no_verw.leaked});
  }
  // §7/§9: cmov+load fusion and SSB_NO silicon take the full browser stack
  // (measurement-period SSBD default) below the band it "has remained in",
  // without reopening the attacks.
  auto browser_stack = [](const CpuModel& cpu) {
    MitigationConfig os = MitigationConfig::Defaults(cpu);
    os.ssbd = SsbdMode::kSeccomp;
    return OctaneSlowdown(cpu, JitConfig::AllOn(), os, 2);
  };
  const CpuModel& future = FutureCpuModel();
  const CpuModel& today = GetCpuModel(Uarch::kIceLakeServer);
  AddPct(rows, "ablation.future_hw.octane", "Section 7", AtMost(kFigure3Total.lo),
         browser_stack(future), today.uarch_name + " " + Pct(browser_stack(today)));
  const AttackResult v1 = RunSpectreV1Attack(future, /*index_masking=*/true);
  const AttackResult v1_other_secret = RunSpectreV1Attack(future, /*index_masking=*/true, 5);
  const AttackResult ssb = RunSsbAttack(future, /*ssbd=*/false);
  rows.push_back({"ablation.future_hw.attacks", "Section 7", kEme, "safe/safe/safe",
                  std::string(Outcome(v1)) + "/" + Outcome(v1_other_secret) + "/" + Outcome(ssb),
                  !v1.leaked && !v1_other_secret.leaked && !ssb.leaked});
}

}  // namespace

std::vector<ScorecardRow> BuildScorecard(const RunnerOptions& runner) {
  const SamplerOptions& sampler = kExperimentSampler;  // the CLI commands' budget
  Rows rows;
  AddMicrobenchRows(rows);
  AddProbeRows(rows);
  AddFigureRows(rows, RunFigure2LeBench(sampler, AllUarches(), runner),
                RunFigure3Octane(sampler, AllUarches(), runner));
  AddSectionRows(rows, RunSection44Vm(sampler), RunSection45Parsec(sampler, AllUarches(), runner));
  AddAblationRows(rows);
  return rows;
}

std::string RenderScorecard(const std::vector<ScorecardRow>& rows) {
  TextTable t;
  t.SetHeader({"Claim", "Section", "Kind", "Paper", "Measured", "Verdict"});
  size_t matches = 0;
  for (const ScorecardRow& row : rows) {
    matches += row.match ? 1 : 0;
    t.AddRow({row.id, row.section, row.kind == ClaimKind::kCalibrated ? "calibrated" : "emergent",
              row.paper, row.measured, row.match ? "match" : "miss"});
  }
  std::ostringstream out;
  out << "Reproduction scorecard: every paper claim with its measured value.\n"
         "calibrated = the paper's number was a model input; emergent = it comes\n"
         "out of the simulation. Tables 9/10: y = speculated, n = not, columns\n"
         "u->k, u->u, k->k (with syscall), u->u, k->k.\n\n"
      << t.Render() << "\n"
      << rows.size() << " claims: " << matches << " match, " << rows.size() - matches
      << " miss\n";
  return out.str();
}

}  // namespace specbench
