// Text and JSON rendering for analyzer findings and corpus cross-validation
// results (consumed by the `spectrebench analyze` subcommand).
#ifndef SPECTREBENCH_SRC_ANALYSIS_REPORT_H_
#define SPECTREBENCH_SRC_ANALYSIS_REPORT_H_

#include <string>
#include <vector>

#include "src/analysis/crossval.h"
#include "src/analysis/detectors.h"
#include "src/isa/program.h"

namespace specbench {

struct CorpusReportEntry {
  std::string name;
  std::string description;
  AnalysisResult analysis;
  CrossValidationResult xval;
};

struct CorpusReport {
  std::string cpu_name;
  std::vector<CorpusReportEntry> entries;
};

// Full corpus + cross-validation summary for one CPU.
std::string RenderCorpusText(const CorpusReport& report);
std::string RenderCorpusJson(const CorpusReport& report);

// Concatenates per-CPU JSON reports into one document.
std::string RenderCorpusJsonMulti(const std::vector<CorpusReport>& reports);

// --- Hardening reports (`spectrebench harden`) ----------------------------

// One program through one mitigation pass.
struct HardenEntry {
  std::string program;        // corpus entry name or "seed-N"
  int sites = 0;              // original instruction indices rewritten
  int instructions_added = 0;
  int findings_before = 0;    // findings of the pass's target kinds
  int findings_after = 0;
  bool fixpoint = false;      // target kinds eliminated + second run inert
  bool equivalence_checked = false;
  bool equivalent = false;
  std::string note;           // divergence / why equivalence was skipped
};

// One (cpu, pass) cell of the harden run.
struct HardenReport {
  std::string cpu_name;
  std::string pass_name;
  std::string pass_summary;
  std::vector<HardenEntry> entries;
};

std::string RenderHardenText(const std::vector<HardenReport>& reports);
std::string RenderHardenJson(const std::vector<HardenReport>& reports);

// True when every entry's fixpoint holds and no checked equivalence failed.
bool HardenReportsOk(const std::vector<HardenReport>& reports);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_REPORT_H_
