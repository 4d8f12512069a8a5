#include "src/core/counters.h"

#include <sstream>

#include "src/util/check.h"
#include "src/workload/lebench.h"
#include "src/workload/octane.h"

namespace specbench {

namespace {

CounterBreakdown FoldWindow(const CpuModel& cpu, const std::string& workload,
                            const CycleAttribution& sink) {
  SPECBENCH_CHECK_MSG(sink.HasWindow(), "workload did not bracket a measurement window");
  CounterBreakdown row;
  row.cpu = UarchName(cpu.uarch);
  row.workload = workload;
  row.window_cycles = sink.WindowTotalCycles();
  uint64_t sum = 0;
  for (size_t i = 0; i < kNumCauseTags; i++) {
    row.cause_cycles[i] = sink.WindowCauseCycles(static_cast<CauseTag>(i));
    sum += row.cause_cycles[i];
  }
  // The accounting identity: every in-window cycle is charged to exactly one
  // cause (machine.cc Step epilogue), so the buckets partition the window.
  SPECBENCH_CHECK_MSG(sum == row.window_cycles, "cause buckets do not partition the window");
  row.retired = sink.retired();
  row.episodes = sink.episodes();
  row.cache_fills = sink.cache_fills();
  row.fill_buffer_touches = sink.fill_buffer_touches();
  row.tlb_flushes = sink.tlb_flushes();
  row.store_buffer_drains = sink.store_buffer_drains();
  return row;
}

}  // namespace

double CounterBreakdown::OverheadPct(CauseTag tag) const {
  const uint64_t base = baseline_cycles();
  if (base == 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(Cause(tag)) / static_cast<double>(base);
}

double CounterBreakdown::TotalOverheadPct() const {
  const uint64_t base = baseline_cycles();
  if (base == 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(window_cycles - base) / static_cast<double>(base);
}

CounterBreakdown MeasureLeBenchCounters(const CpuModel& cpu, const MitigationConfig& config,
                                        const std::string& kernel) {
  CycleAttribution sink;
  LeBench::SimulateKernel(kernel, cpu, config, &sink);
  return FoldWindow(cpu, "lebench:" + kernel, sink);
}

CounterBreakdown MeasureOctaneCounters(const CpuModel& cpu, const JitConfig& jit_config,
                                       const MitigationConfig& os_config,
                                       const std::string& kernel) {
  CycleAttribution sink;
  Octane::SimulateKernel(kernel, cpu, jit_config, os_config, &sink);
  return FoldWindow(cpu, "octane:" + kernel, sink);
}

std::string RenderCountersJson(const std::vector<CounterBreakdown>& rows) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"spectrebench-counters-v1\",\n  \"results\": [";
  for (size_t r = 0; r < rows.size(); r++) {
    const CounterBreakdown& row = rows[r];
    out << (r == 0 ? "" : ",") << "\n    {\n";
    out << "      \"cpu\": \"" << row.cpu << "\",\n";
    out << "      \"workload\": \"" << row.workload << "\",\n";
    out << "      \"window_cycles\": " << row.window_cycles << ",\n";
    out << "      \"causes\": {";
    for (size_t i = 0; i < kNumCauseTags; i++) {
      out << (i == 0 ? "" : ",") << "\n        \"" << CauseTagName(static_cast<CauseTag>(i))
          << "\": " << row.cause_cycles[i];
    }
    out << "\n      },\n";
    out << "      \"events\": {\n";
    out << "        \"retired\": " << row.retired << ",\n";
    out << "        \"episodes\": " << row.episodes << ",\n";
    out << "        \"cache_fills\": " << row.cache_fills << ",\n";
    out << "        \"fill_buffer_touches\": " << row.fill_buffer_touches << ",\n";
    out << "        \"tlb_flushes\": " << row.tlb_flushes << ",\n";
    out << "        \"store_buffer_drains\": " << row.store_buffer_drains << "\n";
    out << "      }\n    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace specbench
