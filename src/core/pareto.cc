#include "src/core/pareto.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/core/counters.h"
#include "src/jit/jit.h"
#include "src/util/check.h"
#include "src/workload/parsec.h"

namespace specbench {

namespace {

// Fixed-precision decimal for the byte-stable renderers.
std::string Fixed4(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

// Geometric mean of positive ratios without libm: product, then an n-th
// root by a fixed number of Newton steps. Only IEEE-exact operations
// (+,-,*,/), so the result is bit-identical on every conforming platform —
// pow()/exp()/log() are not correctly rounded and could shift a golden
// file's last digit between libm versions.
double GeomeanRatio(const std::vector<double>& ratios) {
  SPECBENCH_CHECK(!ratios.empty());
  double product = 1.0;
  for (double r : ratios) {
    SPECBENCH_CHECK(r > 0.0);
    product *= r;
  }
  const int n = static_cast<int>(ratios.size());
  if (n == 1) {
    return product;
  }
  double x = 1.0 + (product - 1.0) / n;  // first-order guess, exact ops only
  for (int iter = 0; iter < 64; iter++) {
    double xn1 = 1.0;  // x^(n-1)
    for (int i = 0; i < n - 1; i++) {
      xn1 *= x;
    }
    x = ((n - 1) * x + product / xn1) / n;
  }
  return x;
}

// Workload name of the overhead-basket cells in the pareto grid, and the
// config name of each CPU's nosmt charge cell.
const char kBasketWorkload[] = "basket";
const char kNosmtConfig[] = "nosmt";

// Cell metrics are doubles; a count must survive the round trip exactly.
double ExactDouble(uint64_t count) {
  SPECBENCH_CHECK(count <= (uint64_t{1} << 53));
  return static_cast<double>(count);
}

// The configs of one CPU's matrix that differ only in smt_off, as matrix
// indices in matrix order; groups are ordered by their first member.
std::vector<std::vector<size_t>> SmtTwinGroups(const std::vector<NamedConfig>& matrix) {
  std::vector<MitigationConfig> keys;
  std::vector<std::vector<size_t>> groups;
  for (size_t k = 0; k < matrix.size(); k++) {
    MitigationConfig key = matrix[k].config;
    key.smt_off = false;
    size_t g = 0;
    while (g < keys.size() && !(keys[g] == key)) {
      g++;
    }
    if (g == keys.size()) {
      keys.push_back(key);
      groups.emplace_back();
    }
    groups[g].push_back(k);
  }
  return groups;
}

// The suite and kernel of a ParetoWorkloads() entry ("suite:kernel").
std::pair<std::string, std::string> SplitWorkload(const std::string& workload) {
  const size_t colon = workload.find(':');
  return {workload.substr(0, colon), workload.substr(colon + 1)};
}

// One basket cell prices one smt_off twin group. No ParetoWorkloads() entry
// reads smt_off, so each runs once, under the group's first config; the join
// charges each twin its nosmt price. The metrics are the simulated cycles of
// every ParetoWorkloads() entry (id = workload), then the in-window cycles of
// every cause tag summed over the counters workloads (id = tag name).
CellOutput MeasureBasket(const CpuModel& cpu, const NamedConfig& named) {
  CellOutput out;
  std::array<uint64_t, kNumCauseTags> cause_cycles{};
  for (const std::string& workload : ParetoWorkloads()) {
    const auto [suite, kernel] = SplitWorkload(workload);
    double cycles = 0.0;
    if (suite == "parsec") {
      cycles = Parsec::SimulateKernel(kernel, cpu, named.config);
    } else {
      SPECBENCH_CHECK_MSG(suite == "lebench" || suite == "octane",
                          "unknown pareto workload suite");
      const CounterBreakdown row =
          suite == "lebench"
              ? MeasureLeBenchCounters(cpu, named.config, kernel)
              : MeasureOctaneCounters(cpu, JitConfig::AllOn(), named.config, kernel);
      cycles = ExactDouble(row.window_cycles);
      for (size_t i = 0; i < kNumCauseTags; i++) {
        cause_cycles[i] += row.cause_cycles[i];
      }
    }
    out.metrics.push_back(CellMetric{workload, named.name, Estimate{cycles, 0.0}});
  }
  for (size_t i = 0; i < kNumCauseTags; i++) {
    out.metrics.push_back(CellMetric{CauseTagName(static_cast<CauseTag>(i)), named.name,
                                     Estimate{ExactDouble(cause_cycles[i]), 0.0}});
  }
  return out;
}

// What nosmt costs every ParetoWorkloads() entry on one CPU (id = workload):
// the PARSEC co-run charge, and 1 for the single-stream LEBench and Octane
// kernels.
CellOutput MeasureNosmtCharges(const CpuModel& cpu) {
  CellOutput out;
  for (const std::string& workload : ParetoWorkloads()) {
    const auto [suite, kernel] = SplitWorkload(workload);
    const double charge = suite == "parsec" ? Parsec::NosmtCharge(kernel, cpu) : 1.0;
    out.metrics.push_back(CellMetric{workload, kNosmtConfig, Estimate{charge, 0.0}});
  }
  return out;
}

}  // namespace

const std::vector<std::string>& ParetoWorkloads() {
  // LEBench prices the boundary-crossing knobs (PTI, verw, IBPB/RSB, IBRS),
  // Octane the JIT-visible ones, PARSEC the compute-side ones the syscall
  // benchmarks cannot see (SSBD store-queue discipline, the nosmt
  // throughput yield).
  static const std::vector<std::string> kWorkloads = {
      "lebench:getpid", "lebench:context-switch", "octane:richards",
      "parsec:swaptions", "parsec:facesim",
  };
  return kWorkloads;
}

ParetoReport BuildParetoReport(const ParetoOptions& options) {
  ParetoReport report;

  SuiteOptions suite_options;
  suite_options.cpus = options.cpus;
  suite_options.trials = options.trials;
  suite_options.jobs = options.jobs;
  suite_options.base_seed = options.base_seed;

  // The attack suite, one nosmt charge cell per CPU and one basket cell per
  // (cpu, smt_off twin group) run as one grid: a single barrier, then the
  // pure join below. Charge and basket cells ignore their runner seed; their
  // inputs are fixed. Cells are registered one CPU at a time, its long
  // charge and basket cells before its short attack cells, so a worker's
  // leased machine (MachineLease) changes model once per CPU and the run
  // ends on short cells instead of a tail of basket cells.
  Sweep grid;
  report.suite.options = suite_options;
  // Per CPU: its charge cell, and per matrix config the basket cell that
  // simulated its twin group.
  std::vector<size_t> charge_cells;
  std::vector<std::vector<size_t>> config_cells;
  std::vector<std::vector<NamedConfig>> matrices;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    matrices.push_back(MitigationConfigMatrix(cpu));
    const std::vector<NamedConfig>& matrix = matrices.back();
    charge_cells.push_back(grid.size());
    grid.Add(SweepCellKey{UarchName(u), kNosmtConfig, kBasketWorkload},
             [&cpu](uint64_t) { return MeasureNosmtCharges(cpu); });
    config_cells.emplace_back(matrix.size());
    for (const std::vector<size_t>& indices : SmtTwinGroups(matrix)) {
      for (size_t k : indices) {
        config_cells.back()[k] = grid.size();
      }
      const NamedConfig& first = matrix[indices.front()];
      grid.Add(SweepCellKey{UarchName(u), first.name, kBasketWorkload},
               [&cpu, first](uint64_t) { return MeasureBasket(cpu, first); });
      report.basket_cells++;
    }
    SuiteOptions one_cpu = suite_options;
    one_cpu.cpus = {u};
    const std::vector<SuiteCell> cells = AddSuiteCells(one_cpu, &grid).cells;
    report.suite.cells.insert(report.suite.cells.end(), cells.begin(), cells.end());
  }
  RunnerOptions runner;
  runner.jobs = options.jobs;
  runner.base_seed = options.base_seed;
  const SweepResult result = grid.Run(runner);
  FoldSuiteCells(result, &report.suite);

  const std::vector<AttackSpec>& suite = AttackSuite();
  const size_t num_workloads = ParetoWorkloads().size();
  for (size_t c = 0; c < options.cpus.size(); c++) {
    const CpuModel& cpu = GetCpuModel(options.cpus[c]);
    const std::vector<NamedConfig>& matrix = matrices[c];

    CpuPareto row;
    row.cpu = UarchName(options.cpus[c]);

    // Config k's metrics come from the cell that simulated its twin group;
    // its cycles are that simulation's, charged nosmt's price when k turns
    // SMT off.
    const std::vector<CellMetric>& charges = result.cells[charge_cells[c]].output.metrics;
    const auto basket = [&](size_t k) -> const std::vector<CellMetric>& {
      const SweepCellResult& cell = result.cells[config_cells[c][k]];
      SPECBENCH_CHECK(cell.key.cpu == row.cpu && cell.key.workload == kBasketWorkload);
      return cell.output.metrics;
    };
    const auto cycles = [&](size_t k, size_t w) {
      const double charge = matrix[k].config.smt_off ? charges[w].estimate.value : 1.0;
      return basket(k)[w].estimate.value * charge;
    };

    // The "off" row is the overhead baseline for every config of this CPU.
    SPECBENCH_CHECK(matrix[0].name == "off");

    for (size_t k = 0; k < matrix.size(); k++) {
      const NamedConfig& named = matrix[k];

      ConfigEvaluation eval;
      eval.config = named.name;
      for (size_t i = 0; i < kNumCauseTags; i++) {
        eval.cause_cycles[i] = static_cast<uint64_t>(basket(k)[num_workloads + i].estimate.value);
      }

      std::vector<double> ratios;
      for (size_t w = 0; w < num_workloads; w++) {
        ratios.push_back(cycles(k, w) / cycles(0, w));
      }
      eval.overhead_pct = (GeomeanRatio(ratios) - 1.0) * 100.0;

      for (const AttackSpec& spec : suite) {
        if (spec.defended(cpu, named.config)) {
          eval.claims++;
        }
        const SuiteCell* verdict = report.suite.Find(row.cpu, named.name, spec.name);
        SPECBENCH_CHECK(verdict != nullptr);
        if (verdict->attempted) {
          eval.attempted++;
          if (verdict->leaks == 0) {
            eval.protected_count++;
          }
        }
      }
      eval.fully_protected = eval.protected_count == eval.attempted;
      row.configs.push_back(std::move(eval));
    }

    // Frontier: non-dominated in (protection, overhead).
    for (size_t i = 0; i < row.configs.size(); i++) {
      bool dominated = false;
      for (size_t j = 0; j < row.configs.size() && !dominated; j++) {
        if (i == j) {
          continue;
        }
        const ConfigEvaluation& a = row.configs[i];
        const ConfigEvaluation& b = row.configs[j];
        if (b.protected_count >= a.protected_count && b.overhead_pct <= a.overhead_pct &&
            (b.protected_count > a.protected_count || b.overhead_pct < a.overhead_pct)) {
          dominated = true;
        }
      }
      row.configs[i].on_frontier = !dominated;
    }

    // Cheapest sufficient vs most protected; ties toward earlier
    // registration in both cases.
    int best_claims = -1;
    double cheapest = 0.0;
    double most_protected_cost = 0.0;
    for (const ConfigEvaluation& eval : row.configs) {
      if (eval.fully_protected &&
          (row.cheapest_sufficient.empty() || eval.overhead_pct < cheapest)) {
        row.cheapest_sufficient = eval.config;
        cheapest = eval.overhead_pct;
      }
      if (eval.claims > best_claims) {
        best_claims = eval.claims;
        row.most_protected = eval.config;
        most_protected_cost = eval.overhead_pct;
      }
    }
    if (!row.cheapest_sufficient.empty()) {
      row.over_protection_gap_pct = most_protected_cost - cheapest;
    }

    // Which knob saved you: attribution against the cheapest sufficient
    // config's defended() claims.
    if (!row.cheapest_sufficient.empty()) {
      const MitigationConfig* chosen = nullptr;
      for (const NamedConfig& named : matrix) {
        if (named.name == row.cheapest_sufficient) {
          chosen = &named.config;
        }
      }
      SPECBENCH_CHECK(chosen != nullptr);
      for (const AttackSpec& spec : suite) {
        if (!spec.vulnerable(cpu) || !spec.defended(cpu, *chosen)) {
          continue;
        }
        AttackAttribution attribution;
        attribution.attack = spec.name;
        for (SuiteKnob knob : spec.knobs) {
          if (!KnobActive(*chosen, knob)) {
            continue;
          }
          if (!spec.defended(cpu, WithKnobDisabled(*chosen, knob))) {
            attribution.critical_knobs.push_back(SuiteKnobName(knob));
          } else {
            attribution.redundant_knobs.push_back(SuiteKnobName(knob));
          }
        }
        row.attributions.push_back(std::move(attribution));
      }
    }

    report.cpus.push_back(std::move(row));
  }
  return report;
}

std::string RenderParetoText(const ParetoReport& report) {
  std::ostringstream out;
  out << "Security x overhead frontier (" << report.suite.options.trials
      << " trials per attack cell, leak threshold: any trial)\n";
  for (const CpuPareto& cpu : report.cpus) {
    out << "\n== " << cpu.cpu << " ==\n";
    char line[160];
    std::snprintf(line, sizeof(line), "  %-20s %10s %10s %7s  %s\n", "config", "overhead%",
                  "protected", "claims", "frontier");
    out << line;
    for (const ConfigEvaluation& eval : cpu.configs) {
      std::string protection = std::to_string(eval.protected_count) + "/" +
                               std::to_string(eval.attempted);
      std::snprintf(line, sizeof(line), "  %-20s %10s %10s %7d  %s\n", eval.config.c_str(),
                    Fixed4(eval.overhead_pct).c_str(), protection.c_str(), eval.claims,
                    eval.on_frontier ? "*" : "");
      out << line;
    }
    if (cpu.cheapest_sufficient.empty()) {
      out << "  cheapest sufficient: none on this axis\n";
    } else {
      out << "  cheapest sufficient: " << cpu.cheapest_sufficient << "\n";
      out << "  most protected:      " << cpu.most_protected << "\n";
      out << "  over-protection gap: " << Fixed4(cpu.over_protection_gap_pct) << "%\n";
      out << "  which knob saved you (" << cpu.cheapest_sufficient << "):\n";
      for (const AttackAttribution& attribution : cpu.attributions) {
        out << "    " << attribution.attack << ":";
        for (const std::string& knob : attribution.critical_knobs) {
          out << " " << knob;
        }
        if (!attribution.redundant_knobs.empty()) {
          out << " (redundant:";
          for (const std::string& knob : attribution.redundant_knobs) {
            out << " " << knob;
          }
          out << ")";
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

std::string RenderParetoJson(const ParetoReport& report) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"spectrebench-pareto-v1\",\n";
  out << "  \"trials\": " << report.suite.options.trials << ",\n";
  out << "  \"seed\": " << report.suite.options.base_seed << ",\n";
  out << "  \"workloads\": [";
  const std::vector<std::string>& workloads = ParetoWorkloads();
  for (size_t i = 0; i < workloads.size(); i++) {
    out << (i == 0 ? "" : ", ") << "\"" << workloads[i] << "\"";
  }
  out << "],\n  \"cpus\": [";
  for (size_t c = 0; c < report.cpus.size(); c++) {
    const CpuPareto& cpu = report.cpus[c];
    out << (c == 0 ? "" : ",") << "\n    {\n";
    out << "      \"cpu\": \"" << cpu.cpu << "\",\n";
    out << "      \"configs\": [";
    for (size_t k = 0; k < cpu.configs.size(); k++) {
      const ConfigEvaluation& eval = cpu.configs[k];
      out << (k == 0 ? "" : ",") << "\n        {\n";
      out << "          \"config\": \"" << eval.config << "\",\n";
      out << "          \"overhead_pct\": " << Fixed4(eval.overhead_pct) << ",\n";
      out << "          \"attempted\": " << eval.attempted << ",\n";
      out << "          \"protected\": " << eval.protected_count << ",\n";
      out << "          \"fully_protected\": " << (eval.fully_protected ? "true" : "false")
          << ",\n";
      out << "          \"claims\": " << eval.claims << ",\n";
      out << "          \"on_frontier\": " << (eval.on_frontier ? "true" : "false") << ",\n";
      out << "          \"causes\": {";
      for (size_t i = 0; i < kNumCauseTags; i++) {
        out << (i == 0 ? "" : ",") << "\n            \""
            << CauseTagName(static_cast<CauseTag>(i)) << "\": " << eval.cause_cycles[i];
      }
      out << "\n          }\n        }";
    }
    out << "\n      ],\n";
    out << "      \"cheapest_sufficient\": \"" << cpu.cheapest_sufficient << "\",\n";
    out << "      \"most_protected\": \"" << cpu.most_protected << "\",\n";
    out << "      \"over_protection_gap_pct\": " << Fixed4(cpu.over_protection_gap_pct)
        << ",\n";
    out << "      \"attribution\": [";
    for (size_t a = 0; a < cpu.attributions.size(); a++) {
      const AttackAttribution& attribution = cpu.attributions[a];
      out << (a == 0 ? "" : ",") << "\n        {\"attack\": \"" << attribution.attack
          << "\", \"critical\": [";
      for (size_t i = 0; i < attribution.critical_knobs.size(); i++) {
        out << (i == 0 ? "" : ", ") << "\"" << attribution.critical_knobs[i] << "\"";
      }
      out << "], \"redundant\": [";
      for (size_t i = 0; i < attribution.redundant_knobs.size(); i++) {
        out << (i == 0 ? "" : ", ") << "\"" << attribution.redundant_knobs[i] << "\"";
      }
      out << "]}";
    }
    out << (cpu.attributions.empty() ? "" : "\n      ") << "],\n";
    out << "      \"matrix\": [";
    bool first_cell = true;
    for (const SuiteCell& cell : report.suite.cells) {
      if (cell.cpu != cpu.cpu) {
        continue;
      }
      out << (first_cell ? "" : ",") << "\n        {\"config\": \"" << cell.config
          << "\", \"attack\": \"" << cell.attack << "\", \"attempted\": "
          << (cell.attempted ? "true" : "false")
          << ", \"defended\": " << (cell.defended ? "true" : "false")
          << ", \"trials\": " << cell.trials << ", \"leaks\": " << cell.leaks
          << ", \"leak_rate\": " << Fixed4(cell.leak_rate) << "}";
      first_cell = false;
    }
    out << "\n      ]\n    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string RenderParetoCsv(const ParetoReport& report) {
  std::ostringstream out;
  out << "cpu,config,overhead_pct,protected,attempted,claims,fully_protected,on_frontier\n";
  for (const CpuPareto& cpu : report.cpus) {
    for (const ConfigEvaluation& eval : cpu.configs) {
      out << cpu.cpu << "," << eval.config << "," << Fixed4(eval.overhead_pct) << ","
          << eval.protected_count << "," << eval.attempted << "," << eval.claims << ","
          << (eval.fully_protected ? 1 : 0) << "," << (eval.on_frontier ? 1 : 0) << "\n";
    }
  }
  return out.str();
}

}  // namespace specbench
