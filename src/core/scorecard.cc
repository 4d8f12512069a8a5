#include "src/core/scorecard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "src/attack/speculation_probe.h"
#include "src/attack/suite.h"
#include "src/core/experiments.h"
#include "src/core/sweep_grids.h"
#include "src/cpu/paper_expectations.h"
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
const char* Outcome(bool leaked) { return leaked ? "LEAK" : "safe"; }

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

// The Octane 2 score with everything off: the baseline of OctaneSlowdown.
double OctaneBaseline(const CpuModel& cpu) {
  return Octane::SuiteScore(
      Octane::RunSuite(cpu, JitConfig::AllOff(), MitigationConfig::AllOff(), 1));
}

// Octane 2 slowdown of (jit, os) against `baseline`.
double OctaneSlowdown(double baseline, const CpuModel& cpu, const JitConfig& jit,
                      const MitigationConfig& os, uint64_t seed) {
  return (baseline / Octane::SuiteScore(Octane::RunSuite(cpu, jit, os, seed)) - 1.0) * 100.0;
}

// --- The claim families --------------------------------------------------------
//
// A family is one kind of claim over a list of CPUs: `measure` returns one
// CPU's numbers as cell metrics (verdicts as 0/1, probe columns as
// ProbeOutcome codes), and `rows` joins the family's cells into scorecard
// rows, cross-CPU aggregates included. BuildScorecard runs every family's
// cells on one Sweep, then joins them in table order.

// One finished cell as a join reads it.
struct Cell {
  const CpuModel& cpu;
  const CellOutput& output;

  // The metric `id`; a join reads only metrics its family reports.
  double operator[](const std::string& id) const {
    for (const CellMetric& metric : output.metrics) {
      if (metric.id == id) {
        return metric.estimate.value;
      }
    }
    SPECBENCH_CHECK_MSG(false, "scorecard: a claim reads a metric its cell did not report");
    return 0;
  }
};
using Cells = std::vector<Cell>;
// Every family's cells, by family name, for the joins that read another
// family's cells.
using FamilyCells = std::map<std::string, Cells>;

// The cell of `u` in a family over the whole catalog (AllUarches() order).
const Cell& At(const Cells& cells, Uarch u) {
  const Cell& cell = cells.at(static_cast<size_t>(u));
  SPECBENCH_CHECK_MSG(&cell.cpu == &GetCpuModel(u), "scorecard: a family skips a catalog CPU");
  return cell;
}

struct ClaimFamily {
  // A measured cell's key is {cpu, "claim", name}.
  std::string name;
  std::vector<const CpuModel*> cpus;
  // One CPU's numbers. Each cell ignores the runner's seed: every
  // measurement keeps its own fixed seed.
  std::function<CellOutput(const CpuModel& cpu)> measure;
  std::function<void(const Cells& cells, const FamilyCells& all, Rows& rows)> rows;
  // The sampled families (fig2, fig3, sec45) register their command's grid
  // over `cpus` instead of measure cells, so their keys and CellSeeds are
  // the commands'.
  Sweep (*grid)(const GridOptions& options) = nullptr;
};

// The catalog CPUs for which `keep` holds, in AllUarches() order.
std::vector<const CpuModel*> Catalog(bool (*keep)(const CpuModel&) = nullptr) {
  std::vector<const CpuModel*> cpus;
  for (Uarch u : AllUarches()) {
    if (keep == nullptr || keep(GetCpuModel(u))) {
      cpus.push_back(&GetCpuModel(u));
    }
  }
  return cpus;
}

CellOutput Metrics(std::initializer_list<std::pair<std::string, double>> values) {
  CellOutput out;
  for (const auto& [id, value] : values) {
    out.metrics.push_back(CellMetric{id, id, Estimate{value, 0.0}});
  }
  return out;
}

// Tables 6-8: one calibrated cycle count per CPU.
ClaimFamily CycleFamily(const std::string& table, const std::string& section,
                        const std::string& what, double (*measure)(const CpuModel&),
                        double (*paper)(Uarch), Tolerance tolerance) {
  return {table, Catalog(),
          [measure](const CpuModel& cpu) { return Metrics({{"cycles", measure(cpu)}}); },
          [=](const Cells& cells, const FamilyCells&, Rows& rows) {
            for (const Cell& cell : cells) {
              const Uarch u = cell.cpu.uarch;
              AddCycles(rows, Id(table, u, what), section, cell["cycles"], paper(u),
                        tolerance);
            }
          }};
}

// Tables 9/10 as one string per CPU, encoded as in PaperTable9(); a cell
// holds each column's ProbeOutcome, in Table9Columns() order.
ClaimFamily ProbeFamily(bool ibrs) {
  const std::string table = ibrs ? "table10" : "table9";
  return {table, Catalog(),
          [ibrs](const CpuModel& cpu) {
            CellOutput out;
            for (const ProbeOutcome outcome : SpeculationProbe(cpu).RunTable9Row(ibrs)) {
              out.metrics.push_back(CellMetric{"", "", {static_cast<double>(outcome), 0.0}});
            }
            return out;
          },
          [table, ibrs](const Cells& cells, const FamilyCells&, Rows& rows) {
            for (const Cell& cell : cells) {
              std::string measured;
              for (const CellMetric& metric : cell.output.metrics) {
                const auto outcome = static_cast<ProbeOutcome>(metric.estimate.value);
                if (outcome == ProbeOutcome::kUnsupported) {
                  measured = "N/A";
                  break;
                }
                measured += outcome == ProbeOutcome::kSpeculated ? 'y' : 'n';
              }
              const Uarch u = cell.cpu.uarch;
              const std::string expected = ibrs ? PaperTable10(u) : PaperTable9(u);
              rows.push_back({Id(table, u), ibrs ? "Table 10" : "Table 9", kEme, expected,
                              measured, measured == expected});
            }
          }};
}

const std::vector<ClaimFamily>& ClaimFamilies() {
  static const std::vector<ClaimFamily> families = {
      {"table3", Catalog(),
       [](const CpuModel& cpu) {
         const EntryExitCosts c = MeasureEntryExit(cpu);
         return Metrics({{"syscall", c.syscall}, {"sysret", c.sysret}, {"swap_cr3", c.swap_cr3}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const Uarch u = cell.cpu.uarch;
           const PaperTable3Row t3 = PaperTable3(u);
           AddCycles(rows, Id("table3", u, "syscall"), "Table 3", cell["syscall"], t3.syscall,
                     kTable3EntryExitTolerance);
           AddCycles(rows, Id("table3", u, "sysret"), "Table 3", cell["sysret"], t3.sysret,
                     kTable3EntryExitTolerance);
           if (t3.swap_cr3.has_value()) {
             AddCycles(rows, Id("table3", u, "swap_cr3"), "Table 3", cell["swap_cr3"],
                       *t3.swap_cr3, kTable3SwapCr3Tolerance);
           }
         }
       }},
      {"table4", Catalog(),
       [](const CpuModel& cpu) { return Metrics({{"verw", MeasureVerw(cpu)}}); },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const Uarch u = cell.cpu.uarch;
           if (const auto t4 = PaperTable4(u); t4.has_value()) {
             AddCycles(rows, Id("table4", u, "verw"), "Table 4", cell["verw"], *t4,
                       kTable4VerwTolerance);
           } else {
             rows.push_back({Id("table4", u, "verw"), "Table 4", kCal,
                             "N/A (<" + Num(kTable4LegacyVerwMaxCycles) + ")",
                             FormatCycles(cell["verw"]),
                             cell["verw"] < kTable4LegacyVerwMaxCycles});
           }
         }
       }},
      // Table 5: a retpoline costs more than a predicted branch; IBRS is ~free
      // on eIBRS parts and costly on legacy parts.
      {"table5", Catalog(),
       [](const CpuModel& cpu) {
         const IndirectBranchCosts b = MeasureIndirectBranch(cpu);
         return Metrics({{"generic", b.generic_retpoline - b.baseline},
                         {"amd", b.amd_retpoline - b.baseline},
                         {"ibrs", b.ibrs - b.baseline}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const Uarch u = cell.cpu.uarch;
           const PaperTable5Row t5 = PaperTable5(u);
           const double ibrs = cell["ibrs"];
           rows.push_back({Id("table5", u, "generic_retpoline"), "Table 5", kEme,
                           "+" + Num(t5.generic_delta) + " (>0)", Delta(cell["generic"]),
                           cell["generic"] > 0});
           if (cell.cpu.predictor.eibrs) {
             rows.push_back({Id("table5", u, "ibrs"), "Table 5", kEme,
                             "+" + Num(*t5.ibrs_delta) + " (<=+" + Num(kTable5EibrsMaxDelta) + ")",
                             Delta(ibrs), std::fabs(ibrs) <= kTable5EibrsMaxDelta});
           } else if (cell.cpu.predictor.ibrs_supported) {
             rows.push_back({Id("table5", u, "ibrs"), "Table 5", kEme,
                             "+" + Num(*t5.ibrs_delta) + " (>+" + Num(kTable5LegacyIbrsMinDelta) +
                                 ")",
                             Delta(ibrs), ibrs > kTable5LegacyIbrsMinDelta});
           }
         }
         // The paper's standout AMD result: the lfence retpoline is slower
         // than the generic one on Zen and ~free on Zen 2.
         const Cell& zen = At(cells, Uarch::kZen1);
         const Cell& zen2 = At(cells, Uarch::kZen2);
         AddLess(rows, Id("table5", Uarch::kZen1, "amd_vs_generic"), "Table 5", "generic",
                 zen["generic"], "AMD", zen["amd"], Delta);
         AddLess(rows, Id("table5", Uarch::kZen2, "amd_vs_generic"), "Table 5", "AMD",
                 zen2["amd"], "generic", zen2["generic"], Delta);
       }},
      CycleFamily("table6", "Table 6", "ibpb", MeasureIbpb, PaperTable6Ibpb,
                  kTable6IbpbTolerance),
      CycleFamily("table7", "Table 7", "rsb_stuff", MeasureRsbStuff, PaperTable7RsbStuff,
                  kTable7RsbTolerance),
      CycleFamily("table8", "Table 8", "lfence", MeasureLfence, PaperTable8Lfence,
                  kTable8LfenceTolerance),
      ProbeFamily(/*ibrs=*/false),
      ProbeFamily(/*ibrs=*/true),
      {"table9.same_site_control", {&GetCpuModel(Uarch::kZen3)},
       [](const CpuModel& cpu) {
         return Metrics(
             {{"outcome", static_cast<double>(SpeculationProbe(cpu).RunSameSiteControl())}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         const auto control = static_cast<ProbeOutcome>(cells.front()["outcome"]);
         rows.push_back({Id("table9", Uarch::kZen3, "same_site_control"), "Section 6.2", kEme,
                         kZen3SameSiteSpeculates ? "speculated" : "safe", ProbeOutcomeName(control),
                         (control == ProbeOutcome::kSpeculated) == kZen3SameSiteSpeculates});
       }},
      {"fig2", Catalog(), nullptr,
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const Uarch u = cell.cpu.uarch;
           if (const std::optional<Band> band = PaperFigure2Total(u); band.has_value()) {
             AddPct(rows, Id("fig2", u, "total"), "Figure 2", *band, cell["total"]);
           }
           AddPct(rows, Id("fig2", u, "spectre_v1"), "Figure 2", AtMost(kFigure2SpectreV1MaxPct),
                  cell["spectre_v1"]);
         }
         AddApproxPct(rows, Id("fig2", Uarch::kBroadwell, "pti"), "Section 5.1",
                      kSection51PtiPct, At(cells, Uarch::kBroadwell)["pti"]);
       },
       BuildFigure2Grid},
      {"fig3", Catalog(), nullptr,
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         std::vector<double> masking;
         std::vector<double> object;
         std::vector<double> js_share;
         for (const Cell& cell : cells) {
           const Uarch u = cell.cpu.uarch;
           AddPct(rows, Id("fig3", u, "total"), "Figure 3", kFigure3Total, cell["total"]);
           AddPct(rows, Id("fig3", u, "ssbd"), "Figure 3", AtLeast(kFigure3SsbdMinPct),
                  cell["ssbd"]);
           masking.push_back(cell["index_masking"]);
           object.push_back(cell["object_guards"]);
           js_share.push_back((masking.back() + object.back()) / cell["total"] * 100);
         }
         AddApproxPct(rows, "fig3.index_masking.mean", "Figure 3", kFigure3IndexMaskingPct,
                      Mean(masking));
         AddApproxPct(rows, "fig3.object_guards.mean", "Figure 3", kFigure3ObjectPct, Mean(object));
         AddApproxPct(rows, "fig3.js_v1_share.mean", "Figure 3", kFigure3JsSharePct,
                      Mean(js_share));
       },
       BuildFigure3Grid},
      {"fig5", Catalog(),
       [](const CpuModel& cpu) {
         const Fig5Row row = MeasureFigure5Ssbd(cpu);
         return Metrics({{"swaptions", row.swaptions_pct},
                         {"facesim", row.facesim_pct},
                         {"bodytrack", row.bodytrack_pct}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         double max = 0;
         size_t swaptions_least = 0;
         for (const Cell& cell : cells) {
           max = std::max({max, cell["swaptions"], cell["facesim"], cell["bodytrack"]});
           swaptions_least +=
               cell["swaptions"] < std::min(cell["facesim"], cell["bodytrack"]) ? 1 : 0;
         }
         AddApproxPct(rows, "fig5.max", "Figure 5", kFigure5MaxPct, max);
         // "Trending worse over time": each vendor's newest part (Table 2)
         // loses more than its oldest, over the mean of the three kernels.
         auto mean = [&cells](Uarch u) {
           const Cell& cell = At(cells, u);
           return Mean({cell["swaptions"], cell["facesim"], cell["bodytrack"]});
         };
         for (const auto& [oldest, newest] : {std::pair{Uarch::kBroadwell, Uarch::kIceLakeServer},
                                              {Uarch::kZen1, Uarch::kZen3}}) {
           AddLess(rows, Id("fig5", newest, "trend"), "Figure 5", UarchName(oldest), mean(oldest),
                   UarchName(newest), mean(newest));
         }
         rows.push_back({"fig5.swaptions_least", "Figure 5", kEme, "every CPU",
                         std::to_string(swaptions_least) + "/" + std::to_string(cells.size()) +
                             " CPUs",
                         swaptions_least == cells.size()});
       }},
      {"sec44", Catalog(),
       [](const CpuModel& cpu) {
         CellOutput out;
         for (const VmWorkloadResult& r : MeasureSection44Vm(cpu)) {
           out.metrics.push_back(CellMetric{r.workload, r.workload, r.overhead_pct});
         }
         return out;
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         std::map<std::string, std::vector<double>> lfs;  // workload -> one value per CPU
         for (const Cell& cell : cells) {
           AddPct(rows, Id("sec44", cell.cpu.uarch, "lebench-in-vm"), "Section 4.4",
                  kSection44LeBenchInVm, cell["lebench-in-vm"]);
           for (const CellMetric& metric : cell.output.metrics) {
             if (metric.id != "lebench-in-vm") {
               lfs[metric.id].push_back(metric.estimate.value);
             }
           }
         }
         for (auto& [workload, values] : lfs) {
           std::sort(values.begin(), values.end());  // an even count: the middle pair
           AddPct(rows, "sec44." + workload + ".median", "Section 4.4",
                  AtMost(kSection44LfsMedianMaxPct),
                  (values[values.size() / 2 - 1] + values[values.size() / 2]) / 2.0);
         }
       }},
      {"sec45", Catalog(), nullptr,
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         double max_abs = 0;
         size_t quiet = 0;
         for (const Cell& cell : cells) {
           max_abs = std::max(max_abs, std::fabs(cell["total"]));
           quiet += std::fabs(cell["total"]) <= kNoiseFloorPct ? 1 : 0;
         }
         rows.push_back({"sec45.max_abs", "Section 4.5", kEme,
                         BandText(AtMost(kSection45MaxAbsPct), "%"), FormatPercent(max_abs, 2),
                         max_abs <= kSection45MaxAbsPct});
         rows.push_back({"sec45.within_noise", "Section 4.5", kEme,
                         ">=" + Num(kSection45UsuallyShare * 100) + "% of cells within +/-" +
                             Num(kNoiseFloorPct) + "%",
                         std::to_string(quiet) + "/" + std::to_string(cells.size()) + " cells",
                         quiet >= kSection45UsuallyShare * static_cast<double>(cells.size())});
       },
       BuildSection45Grid},
      // The slow-entry period and cost are model inputs (the eIBRS scrub
      // parameters in src/cpu), hence calibrated.
      {"sec622", Catalog([](const CpuModel& cpu) { return cpu.predictor.eibrs; }),
       [](const CpuModel& cpu) {
         const EibrsBimodalRow row = MeasureEibrsBimodal(cpu);
         return Metrics({{"period", static_cast<double>(row.SlowEntryPeriod())},
                         {"extra", row.slow_avg - row.fast_avg}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const auto period = static_cast<uint64_t>(cell["period"]);
           rows.push_back({Id("sec622", cell.cpu.uarch, "slow_period"), "Section 6.2.2", kCal,
                           "1 in " + BandText(kSection622SlowEntryPeriod, ""),
                           "1 in " + std::to_string(period),
                           kSection622SlowEntryPeriod.Holds(static_cast<double>(period))});
           rows.push_back({Id("sec622", cell.cpu.uarch, "extra_cycles"), "Section 6.2.2", kCal,
                           ApproxText(kSection622ExtraCycles, ""), Delta(cell["extra"]),
                           Approximately(kSection622ExtraCycles).Holds(cell["extra"])});
         }
       }},
      // The ablations the paper discusses.
      //
      // §5.3/§6.2.1: LEBench overhead of each Spectre V2 strategy vs none, the
      // rest at defaults. Linux took retpolines over legacy IBRS on older
      // parts and eIBRS where the silicon provides it.
      {"ablation.spectre_v2",
       Catalog([](const CpuModel& c) { return c.predictor.eibrs || c.predictor.ibrs_supported; }),
       [](const CpuModel& cpu) {
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
         const IbrsMode ibrs = cpu.predictor.eibrs ? IbrsMode::kEibrs : IbrsMode::kLegacyIbrs;
         return Metrics({{"retpoline", overhead(RetpolineMode::kGeneric, IbrsMode::kOff)},
                         {"ibrs", overhead(RetpolineMode::kNone, ibrs)}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const std::string id = Id("ablation.spectre_v2", cell.cpu.uarch);
           if (cell.cpu.predictor.eibrs) {
             AddLess(rows, id, "Section 5.3", "eIBRS", cell["ibrs"], "retpoline",
                     cell["retpoline"]);
           } else {
             AddLess(rows, id, "Section 5.3", "retpoline", cell["retpoline"], "legacy IBRS",
                     cell["ibrs"]);
           }
         }
       }},
      // §5.1: LEBench overhead of PTI with and without PCIDs; without them
      // every cr3 write flushes the TLB.
      {"ablation.pcid", Catalog([](const CpuModel& cpu) { return cpu.vuln.meltdown; }),
       [](const CpuModel& cpu) {
         MitigationConfig off = MitigationConfig::Defaults(cpu);
         off.pti = false;
         const double base = LeBenchGeomean(cpu, off, 1);
         MitigationConfig pcid = off;
         pcid.pti = true;
         MitigationConfig nopcid = pcid;
         nopcid.pcid = false;
         return Metrics({{"pcid", (LeBenchGeomean(cpu, pcid, 2) / base - 1.0) * 100.0},
                         {"no_pcid", (LeBenchGeomean(cpu, nopcid, 3) / base - 1.0) * 100.0}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           AddLess(rows, Id("ablation.pcid", cell.cpu.uarch), "Section 5.1", "PCID", cell["pcid"],
                   "no PCID", cell["no_pcid"]);
         }
       }},
      // §7: Octane 2 slowdown drops by the SSBD slice once Linux 5.16 stops
      // applying SSBD to seccomp processes; Speculative Load Hardening costs
      // more than the targeted JIT mitigations it would replace (OS side
      // post-5.16).
      {"ablation.browser", Catalog(),
       [](const CpuModel& cpu) {
         MitigationConfig pre516 = MitigationConfig::Defaults(cpu);
         pre516.ssbd = SsbdMode::kSeccomp;
         MitigationConfig post516 = MitigationConfig::Defaults(cpu);
         post516.ssbd = SsbdMode::kPrctl;
         const double base = OctaneBaseline(cpu);
         return Metrics(
             {{"post_5_16", OctaneSlowdown(base, cpu, JitConfig::AllOn(), post516, 3)},
              {"pre_5_16", OctaneSlowdown(base, cpu, JitConfig::AllOn(), pre516, 2)},
              {"slh", OctaneSlowdown(base, cpu, JitConfig::SlhOnly(), post516, 4)}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const Uarch u = cell.cpu.uarch;
           AddLess(rows, Id("ablation.browser", u, "post_5_16"), "Section 7", "post-5.16",
                   cell["post_5_16"], "pre-5.16", cell["pre_5_16"]);
           AddLess(rows, Id("ablation.browser", u, "slh"), "Section 7", "targeted",
                   cell["post_5_16"], "SLH", cell["slh"]);
         }
       }},
      // §3.3: verw guards transitions, but only SMT-off stops a sibling from
      // sampling fill buffers while the victim runs. Columns: SMT on + verw,
      // SMT off + verw, SMT off without verw.
      {"ablation.smt_mds", Catalog(),
       [](const CpuModel& cpu) {
         auto leaked = [&cpu](bool smt, bool verw) {
           MitigationConfig config = MitigationConfig::AllOff();
           config.smt_off = !smt;
           config.mds_clear_buffers = verw;
           return RunCanonicalTrial(*FindAttackSpec("mds-smt"), cpu, config).leaked ? 1.0 : 0.0;
         };
         return Metrics({{"smt_on", leaked(true, true)},
                         {"smt_off", leaked(false, true)},
                         {"no_verw", leaked(false, false)}});
       },
       [](const Cells& cells, const FamilyCells&, Rows& rows) {
         for (const Cell& cell : cells) {
           const bool on = cell["smt_on"] != 0;
           const bool off = cell["smt_off"] != 0;
           const bool no_verw = cell["no_verw"] != 0;
           rows.push_back({Id("ablation.smt_mds", cell.cpu.uarch), "Section 3.3", kEme,
                           cell.cpu.vuln.mds ? "LEAK/safe/-" : "safe/safe/safe",
                           std::string(Outcome(on)) + "/" + Outcome(off) + "/" + Outcome(no_verw),
                           cell.cpu.vuln.mds ? on && !off : !on && !off && !no_verw});
         }
       }},
      // §7/§9: cmov+load fusion and SSB_NO silicon take the full browser
      // stack (measurement-period SSBD default) below the band it "has
      // remained in", without reopening the attacks. Today's number is Ice
      // Lake Server's pre-5.16 browser ablation: the same configuration.
      {"ablation.future_hw", {&FutureCpuModel()},
       [](const CpuModel& cpu) {
         MitigationConfig os = MitigationConfig::Defaults(cpu);
         os.ssbd = SsbdMode::kSeccomp;
         // The attacks under the same config: index masking on, SSBD not
         // forced for an ordinary process.
         const AttackSpec& v1 = *FindAttackSpec("spectre-v1");
         auto leaked = [](const AttackResult& result) { return result.leaked ? 1.0 : 0.0; };
         const double base = OctaneBaseline(cpu);
         return Metrics(
             {{"octane", OctaneSlowdown(base, cpu, JitConfig::AllOn(), os, 2)},
              {"v1", leaked(RunCanonicalTrial(v1, cpu, os))},
              {"v1_secret_5", leaked(v1.run(cpu, os, 5, /*trial_salt=*/0))},
              {"ssb", leaked(RunCanonicalTrial(*FindAttackSpec("ssb"), cpu, os))}});
       },
       [](const Cells& cells, const FamilyCells& all, Rows& rows) {
         const Cell& future = cells.front();
         const Cell& today = At(all.at("ablation.browser"), Uarch::kIceLakeServer);
         AddPct(rows, "ablation.future_hw.octane", "Section 7", AtMost(kFigure3Total.lo),
                future["octane"], today.cpu.uarch_name + " " + Pct(today["pre_5_16"]));
         const bool v1 = future["v1"] != 0;
         const bool v1_secret_5 = future["v1_secret_5"] != 0;
         const bool ssb = future["ssb"] != 0;
         rows.push_back({"ablation.future_hw.attacks", "Section 7", kEme, "safe/safe/safe",
                         std::string(Outcome(v1)) + "/" + Outcome(v1_secret_5) + "/" + Outcome(ssb),
                         !v1 && !v1_secret_5 && !ssb});
       }},
  };
  return families;
}

}  // namespace

std::vector<ScorecardRow> BuildScorecard(const RunnerOptions& runner) {
  // One barrier, then a pure join: every family's cells run on one Sweep,
  // and each cell remembers its family and CPU for the join.
  Sweep sweep;
  std::vector<std::pair<const ClaimFamily*, const CpuModel*>> owners;
  for (const ClaimFamily& family : ClaimFamilies()) {
    if (family.grid != nullptr) {
      GridOptions grid{kExperimentSampler, {}};
      for (const CpuModel* cpu : family.cpus) {
        grid.cpus.push_back(cpu->uarch);
      }
      sweep.Merge(family.grid(grid));
      while (owners.size() < sweep.size()) {
        owners.emplace_back(&family, &GetCpuModelByName(sweep.key(owners.size()).cpu));
      }
      continue;
    }
    for (const CpuModel* cpu : family.cpus) {
      sweep.Add(SweepCellKey{cpu->uarch_name, "claim", family.name},
                [cpu, measure = family.measure](uint64_t) { return measure(*cpu); });
      owners.emplace_back(&family, cpu);
    }
  }
  const SweepResult result = sweep.Run(runner);
  FamilyCells cells;
  for (size_t i = 0; i < owners.size(); i++) {
    cells[owners[i].first->name].push_back(Cell{*owners[i].second, result.cells[i].output});
  }
  Rows rows;
  for (const ClaimFamily& family : ClaimFamilies()) {
    family.rows(cells.at(family.name), cells, rows);
  }
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
