// The paper's published numbers and claims: the one place they live.
//
// Tables 3-8 are *calibration inputs* (the CPU models were parameterized
// from them); the tolerances say how closely the measured instruction paths
// must reproduce them. Everything else is an *output* claim the simulation
// must reproduce without having been given the number: a band or bound from
// the paper's text. The scorecard (src/core/scorecard.h) checks them all;
// tests and report renderers read them from here.
#ifndef SPECTREBENCH_SRC_CORE_PAPER_EXPECTATIONS_H_
#define SPECTREBENCH_SRC_CORE_PAPER_EXPECTATIONS_H_

#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "src/cpu/cpu_model.h"

namespace specbench {

// |measured - paper| <= rel * |paper| + abs.
struct Tolerance {
  double rel = 0;
  double abs = 0;
  double Bound(double paper) const { return std::fabs(paper) * rel + abs; }
  bool Holds(double measured, double paper) const {
    return std::fabs(measured - paper) <= Bound(paper);
  }
};

// A closed interval; either end may be open (infinite).
struct Band {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool Holds(double value) const { return value >= lo && value <= hi; }
};
inline Band AtLeast(double lo) { return Band{lo}; }
inline Band AtMost(double hi) { return Band{-std::numeric_limits<double>::infinity(), hi}; }
// A "~X" in the paper's text: X within kApproximateTolerance.
inline constexpr Tolerance kApproximateTolerance{0.25, 0.0};
inline Band Approximately(double paper) {
  const double bound = kApproximateTolerance.Bound(paper);
  return Band{paper - bound, paper + bound};
}

// --- Tables 3-8 (calibrated); "N/A" in the paper is nullopt ------------------

struct PaperTable3Row {
  double syscall;
  double sysret;
  std::optional<double> swap_cr3;
};
PaperTable3Row PaperTable3(Uarch uarch);
inline constexpr Tolerance kTable3EntryExitTolerance{0.25, 8.0};  // syscall, sysret
inline constexpr Tolerance kTable3SwapCr3Tolerance{0.15, 0.0};

// Table 4: verw cycles; N/A where verw keeps its cheap legacy behaviour.
std::optional<double> PaperTable4(Uarch uarch);
inline constexpr Tolerance kTable4VerwTolerance{0.10, 0.0};
inline constexpr double kTable4LegacyVerwMaxCycles = 60.0;

struct PaperTable5Row {
  double baseline;
  std::optional<double> ibrs_delta;
  double generic_delta;
  std::optional<double> amd_delta;
};
PaperTable5Row PaperTable5(Uarch uarch);
// Table 5's shape: IBRS is ~free on eIBRS parts and costly on legacy parts.
inline constexpr double kTable5EibrsMaxDelta = 4.0;
inline constexpr double kTable5LegacyIbrsMinDelta = 5.0;

double PaperTable6Ibpb(Uarch uarch);
inline constexpr Tolerance kTable6IbpbTolerance{0.10, 10.0};
double PaperTable7RsbStuff(Uarch uarch);
inline constexpr Tolerance kTable7RsbTolerance{0.15, 5.0};
double PaperTable8Lfence(Uarch uarch);
inline constexpr Tolerance kTable8LfenceTolerance{0.30, 4.0};

// --- Tables 9 and 10: the speculation probe ----------------------------------

// One character per column of Table9Columns() ({u->k, u->u, k->k} with a
// syscall, then u->u, k->k): 'y' where the victim branch speculated, 'n'
// where it did not. Table 10 (IBRS enabled) is "N/A" on Zen, which has no
// IBRS.
std::string PaperTable9(Uarch uarch);
std::string PaperTable10(Uarch uarch);
// §6.2: Zen 3 is not immune, just unpoisonable: same-call-site training works.
inline constexpr bool kZen3SameSiteSpeculates = true;

// --- Figures and sections ------------------------------------------------------

// §4.5's noise band ("usually within +/-0.5%"), also what "not measurable"
// and "visible" mean elsewhere.
inline constexpr double kNoiseFloorPct = 0.5;

// Figure 2, total LEBench overhead, for the CPUs the text quantifies: >30%
// on Broadwell/Skylake, <3% on the newest parts. Spectre V1 is not
// measurable; §5.1: PTI alone is "around 10%" on Broadwell.
std::optional<Band> PaperFigure2Total(Uarch uarch);
inline constexpr double kFigure2SpectreV1MaxPct = kNoiseFloorPct;
inline constexpr double kSection51PtiPct = 10.0;

// Figure 3, Octane 2 slowdown: "in the range of 15% to 25%" on every CPU;
// index masking ~4% and object mitigations ~6%, together roughly half; a
// visible SSBD slice because the browser is a seccomp process.
inline constexpr Band kFigure3Total{15.0, 25.0};
inline constexpr double kFigure3IndexMaskingPct = 4.0;
inline constexpr double kFigure3ObjectPct = 6.0;
inline constexpr double kFigure3JsSharePct = 50.0;
inline constexpr double kFigure3SsbdMinPct = kNoiseFloorPct;

// Figure 5: force-enabled SSBD costs "up to ~34%" on PARSEC, trending worse
// on newer parts, with the arithmetic-bound swaptions least affected.
inline constexpr double kFigure5MaxPct = 34.0;

// §4.4: host mitigations cost LEBench-in-VM within +/-3%, LFS under 2% median.
inline constexpr Band kSection44LeBenchInVm{-3.0, 3.0};
inline constexpr double kSection44LfsMedianMaxPct = 2.0;

// §4.5: PARSEC under default mitigations is usually (in at least half the
// cells) within the noise band and never more than 2%.
inline constexpr double kSection45MaxAbsPct = 2.0;
inline constexpr double kSection45UsuallyShare = 0.5;

// §6.2.2: with eIBRS "one in every 8 to 20 or so entries take an
// additional 210 cycles".
inline constexpr Band kSection622SlowEntryPeriod{8.0, 20.0};
inline constexpr double kSection622ExtraCycles = 210.0;

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_PAPER_EXPECTATIONS_H_
