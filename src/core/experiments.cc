#include "src/core/experiments.h"

#include <cmath>
#include <sstream>

#include "src/attack/speculation_probe.h"
#include "src/core/paper_expectations.h"
#include "src/isa/program.h"
#include "src/os/kernel.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/text_table.h"
#include "src/workload/lebench.h"
#include "src/workload/lfs.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"
#include "src/workload/parsec.h"

namespace specbench {

namespace {

std::string Check(bool value) { return value ? "yes" : ""; }

std::string OptStr(const std::optional<double>& value, int decimals = 0) {
  return value.has_value() ? FormatDouble(*value, decimals) : "N/A";
}

// Figures 2 and 3: one stacked bar per CPU, one segment per mitigation.
std::string RenderAttributionChart(const std::string& title,
                                   const std::vector<AttributionReport>& reports) {
  std::vector<Bar> bars;
  for (const AttributionReport& report : reports) {
    Bar bar;
    bar.label = report.cpu;
    bar.error = report.total_overhead_pct.ci95;
    for (const AttributionSegment& segment : report.segments) {
      if (segment.overhead_pct.value > 0.05) {
        bar.segments.push_back(BarSegment{segment.label, segment.overhead_pct.value});
      }
    }
    bars.push_back(bar);
  }
  return RenderBarChart(title, bars);
}

// Tables 6-8: one measured cycle count per CPU beside the paper's.
std::string RenderCycleTable(const std::string& title, const std::string& column,
                             double (*measure)(const CpuModel&), double (*paper)(Uarch)) {
  TextTable t;
  t.SetHeader({"Vendor", "CPU", column, "paper"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    t.AddRow({VendorName(cpu.vendor), UarchName(u), FormatCycles(measure(cpu)),
              FormatCycles(paper(u))});
  }
  return title + "\n\n" + t.Render();
}

}  // namespace

std::string RenderTable1MitigationMatrix() {
  TextTable t;
  std::vector<std::string> header = {"Attack / Mitigation"};
  for (Uarch u : AllUarches()) {
    header.push_back(UarchName(u));
  }
  t.SetHeader(header);

  struct Row {
    std::string label;
    std::function<std::string(const CpuModel&, const MitigationConfig&)> cell;
  };
  const std::vector<Row> rows = {
      {"Meltdown: Page Table Isolation",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.pti); }},
      {"L1TF: PTE Inversion",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.l1tf_pte_inversion); }},
      {"L1TF: Flush L1 Cache",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.l1d_flush_on_vmentry);
       }},
      {"LazyFP: Always save FPU",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.eager_fpu); }},
      {"Spectre V1: Index Masking",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.kernel_index_masking);
       }},
      {"Spectre V1: lfence after swapgs",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.lfence_after_swapgs);
       }},
      {"Spectre V2: Generic Retpoline",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.retpoline == RetpolineMode::kGeneric);
       }},
      {"Spectre V2: AMD Retpoline",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.retpoline == RetpolineMode::kAmd);
       }},
      {"Spectre V2: Enhanced IBRS",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.ibrs == IbrsMode::kEibrs);
       }},
      {"Spectre V2: RSB Stuffing",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.rsb_stuff_on_context_switch);
       }},
      {"Spectre V2: IBPB",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.ibpb_on_context_switch);
       }},
      {"Spec. Store Bypass: SSBD",
       [](const CpuModel&, const MitigationConfig& c) {
         return c.ssbd == SsbdMode::kOff ? std::string("") : std::string("!");
       }},
      {"MDS: Flush CPU Buffers",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.mds_clear_buffers); }},
      {"MDS: Disable SMT",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         if (!cpu.vuln.mds) {
           return std::string("");
         }
         return c.smt_off ? std::string("yes") : std::string("!");
       }},
  };
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (Uarch u : AllUarches()) {
      const CpuModel& cpu = GetCpuModel(u);
      cells.push_back(row.cell(cpu, MitigationConfig::Defaults(cpu)));
    }
    t.AddRow(cells);
  }
  std::ostringstream out;
  out << "Table 1. Default mitigations used by the simulated kernel on each processor.\n"
      << "('yes' = enabled by default; '!' = needed but not enabled by default;\n"
      << " blank = not required on this CPU.)\n\n"
      << t.Render();
  return out.str();
}

std::string RenderTable2CpuInfo() {
  TextTable t;
  t.SetHeader({"Vendor", "Model", "Microarchitecture", "Power (W)", "Clock (GHz)", "Cores",
               "SMT"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    t.AddRow({VendorName(cpu.vendor), cpu.model_name, cpu.uarch_name,
              std::to_string(cpu.power_watts), FormatDouble(cpu.clock_ghz, 2),
              std::to_string(cpu.cores), cpu.smt ? "2-way" : "no"});
  }
  return "Table 2. The CPUs the simulator models.\n\n" + t.Render();
}

// RunFigure2LeBench / RunFigure3Octane / RunSection45Parsec live in
// sweep_grids.cc: their cell grids are registered with the deterministic
// parallel runner instead of looping serially here.

std::string RenderFigure2(const std::vector<AttributionReport>& reports) {
  return RenderAttributionChart(
      "Figure 2. Overhead of mitigations on the LEBench suite (per-mitigation stack)", reports);
}

std::string RenderAttributionCsv(const std::vector<AttributionReport>& reports) {
  std::vector<std::vector<std::string>> rows;
  for (const AttributionReport& report : reports) {
    for (const AttributionSegment& segment : report.segments) {
      rows.push_back({report.cpu, report.workload, segment.id,
                      FormatDouble(segment.overhead_pct.value, 3),
                      FormatDouble(segment.overhead_pct.ci95, 3)});
    }
    rows.push_back({report.cpu, report.workload, "TOTAL",
                    FormatDouble(report.total_overhead_pct.value, 3),
                    FormatDouble(report.total_overhead_pct.ci95, 3)});
  }
  return RenderCsv({"cpu", "workload", "mitigation", "overhead_pct", "ci95"}, rows);
}

std::string RenderFigure3(const std::vector<AttributionReport>& reports) {
  return RenderAttributionChart(
      "Figure 3. Slowdown on the Octane 2 suite from JavaScript and OS mitigations", reports);
}

namespace {

// Guest workload for the LEBench-in-VM experiment: a syscall-heavy loop with
// an occasional device interaction (the timer/virtio activity real guests
// have), so host mitigations act only on the rare exits.
double RunGuestLeBenchLike(const CpuModel& cpu, const HostConfig& host, uint64_t seed) {
  MitigationConfig guest_config = MitigationConfig::Defaults(cpu);
  Kernel kernel(cpu, guest_config);
  Hypervisor hv(kernel, host);
  ProgramBuilder& b = kernel.builder();
  b.BindSymbol("guest_main");
  Label outer = b.NewLabel();
  Label inner = b.NewLabel();
  b.MovImm(3, 8);  // outer chunks
  b.Bind(outer);
  b.MovImm(4, 16);  // syscalls per chunk
  b.Bind(inner);
  kernel.EmitSyscall(b, Sys::kGetpid);
  b.AluImm(AluOp::kSub, 4, 4, 1);
  b.BranchNz(4, inner);
  // One device I/O per chunk (timer tick / virtio kick).
  b.MovImm(0, static_cast<int64_t>(kUserDataVaddr));
  b.MovImm(1, 512);
  b.MovImm(2, 0);
  kernel.EmitSyscall(b, kSysDiskIo);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, outer);
  b.Halt();
  kernel.Finalize();
  const auto result = kernel.Run("guest_main");
  return ApplyNoise(static_cast<double>(result.cycles), seed, 0.012);
}

}  // namespace

std::vector<VmWorkloadResult> RunSection44Vm(const SamplerOptions& options,
                                             const std::vector<Uarch>& cpus) {
  std::vector<VmWorkloadResult> results;
  for (Uarch u : cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    const HostConfig host_on = HostConfig::Defaults(cpu);
    const HostConfig host_off = HostConfig::AllOff();

    // LEBench-like guest.
    {
      uint64_t seed_on = 100;
      uint64_t seed_off = 5100;
      const Estimate on = SampleUntilConverged(
                              [&] { return RunGuestLeBenchLike(cpu, host_on, seed_on++); },
                              options)
                              .estimate;
      const Estimate off = SampleUntilConverged(
                               [&] { return RunGuestLeBenchLike(cpu, host_off, seed_off++); },
                               options)
                               .estimate;
      VmWorkloadResult r;
      r.cpu = UarchName(u);
      r.workload = "lebench-in-vm";
      r.overhead_pct = RelativeOverheadPercent(on, off);
      results.push_back(r);
    }

    // LFS smallfile / largefile against the emulated disk.
    for (const std::string& name : Lfs::KernelNames()) {
      uint64_t seed_on = 200;
      uint64_t seed_off = 7200;
      uint64_t exits = 0;
      const Estimate on =
          SampleUntilConverged(
              [&] {
                const LfsResult lfs = Lfs::RunKernel(name, cpu, MitigationConfig::Defaults(cpu),
                                                     host_on, seed_on++);
                exits = lfs.vm_exits;
                return lfs.cycles;
              },
              options)
              .estimate;
      const Estimate off =
          SampleUntilConverged(
              [&] {
                return Lfs::RunKernel(name, cpu, MitigationConfig::Defaults(cpu), host_off,
                                      seed_off++)
                    .cycles;
              },
              options)
              .estimate;
      VmWorkloadResult r;
      r.cpu = UarchName(u);
      r.workload = "lfs-" + name;
      r.overhead_pct = RelativeOverheadPercent(on, off);
      r.vm_exits_protected = exits;
      results.push_back(r);
    }
  }
  return results;
}

std::string RenderSection44(const std::vector<VmWorkloadResult>& results) {
  TextTable t;
  t.SetHeader({"CPU", "Workload", "Host-mitigation overhead", "95% CI", "VM exits"});
  for (const VmWorkloadResult& r : results) {
    t.AddRow({r.cpu, r.workload, FormatPercent(r.overhead_pct.value),
              "+/-" + FormatPercent(r.overhead_pct.ci95),
              r.vm_exits_protected != 0 ? std::to_string(r.vm_exits_protected) : ""});
  }
  return "Section 4.4. Virtual machine workloads: host mitigations on vs off.\n"
         "(Paper: LEBench-in-VM within +/-" + FormatPercent(kSection44LeBenchInVm.hi, 0) +
         "; LFS small/largefile ~<" + FormatPercent(kSection44LfsMedianMaxPct, 0) +
         " median,\n high run-to-run variability.)\n\n" + t.Render();
}

std::string RenderSection45(const std::vector<ParsecDefaultResult>& results) {
  TextTable t;
  t.SetHeader({"CPU", "Kernel", "Default-mitigation overhead", "95% CI"});
  for (const ParsecDefaultResult& r : results) {
    t.AddRow({r.cpu, r.kernel, FormatPercent(r.overhead_pct.value, 2),
              "+/-" + FormatPercent(r.overhead_pct.ci95, 2)});
  }
  return "Section 4.5. PARSEC kernels under default mitigations.\n"
         "(Paper: usually within +/-" + FormatPercent(kNoiseFloorPct) + ", never more than " +
         FormatPercent(kSection45MaxAbsPct, 0) + ".)\n\n" + t.Render();
}

std::string RenderTable3EntryExit() {
  TextTable t;
  t.SetHeader({"CPU", "syscall", "paper", "sysret", "paper", "swap cr3", "paper"});
  for (Uarch u : AllUarches()) {
    const EntryExitCosts costs = MeasureEntryExit(GetCpuModel(u));
    const PaperTable3Row paper = PaperTable3(u);
    t.AddRow({UarchName(u), FormatCycles(costs.syscall), FormatCycles(paper.syscall),
              FormatCycles(costs.sysret), FormatCycles(paper.sysret),
              GetCpuModel(u).vuln.meltdown ? FormatCycles(costs.swap_cr3) : "N/A",
              OptStr(paper.swap_cr3)});
  }
  return "Table 3. Cycles for syscall / sysret and (on vulnerable parts) the PTI\n"
         "page-table swap. 'paper' columns are the published measurements.\n\n" +
         t.Render();
}

std::string RenderTable4Verw() {
  TextTable t;
  t.SetHeader({"Vendor", "CPU", "verw cycles", "paper"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const double measured = MeasureVerw(cpu);
    t.AddRow({VendorName(cpu.vendor), UarchName(u),
              cpu.vuln.mds ? FormatCycles(measured) : "N/A (" + FormatCycles(measured) + ")",
              OptStr(PaperTable4(u))});
  }
  return "Table 4. Cycles to clear microarchitectural buffers with verw. On parts\n"
         "that are not MDS-vulnerable, verw retains only its cheap legacy behaviour\n"
         "(shown in parentheses).\n\n" +
         t.Render();
}

std::string RenderTable5IndirectBranch() {
  TextTable t;
  t.SetHeader({"CPU", "Baseline", "paper", "IBRS", "paper", "Generic", "paper", "AMD",
               "paper"});
  for (Uarch u : AllUarches()) {
    const IndirectBranchCosts costs = MeasureIndirectBranch(GetCpuModel(u));
    const PaperTable5Row paper = PaperTable5(u);
    auto delta = [&](double value) {
      return value < 0 ? std::string("N/A") : "+" + FormatCycles(value - costs.baseline);
    };
    auto paper_delta = [](const std::optional<double>& value) {
      return value.has_value() ? "+" + FormatCycles(*value) : std::string("N/A");
    };
    t.AddRow({UarchName(u), FormatCycles(costs.baseline), FormatCycles(paper.baseline),
              delta(costs.ibrs), paper_delta(paper.ibrs_delta), delta(costs.generic_retpoline),
              "+" + FormatCycles(paper.generic_delta), delta(costs.amd_retpoline),
              paper_delta(paper.amd_delta)});
  }
  return "Table 5. Cycles for an indirect branch: baseline, then deltas with IBRS,\n"
         "generic retpolines, and AMD (lfence) retpolines.\n\n" +
         t.Render();
}

std::string RenderTable6Ibpb() {
  return RenderCycleTable("Table 6. Cycles for an indirect branch prediction barrier.",
                          "IBPB cycles", MeasureIbpb, PaperTable6Ibpb);
}

std::string RenderTable7RsbStuff() {
  return RenderCycleTable("Table 7. Cycles to stuff the RSB.", "RSB fill cycles",
                          MeasureRsbStuff, PaperTable7RsbStuff);
}

std::string RenderTable8Lfence() {
  return RenderCycleTable("Table 8. Cycles for a single lfence in a loop.", "lfence cycles",
                          MeasureLfence, PaperTable8Lfence);
}

std::vector<Fig5Row> RunFigure5Ssbd(const std::vector<Uarch>& cpus) {
  std::vector<Fig5Row> rows;
  for (Uarch u : cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig ssbd = MitigationConfig::AllOff();
    ssbd.ssbd = SsbdMode::kAlways;
    Fig5Row row;
    row.cpu = UarchName(u);
    auto slowdown = [&](const std::string& name) {
      const double off = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 41);
      const double on = Parsec::RunKernel(name, cpu, ssbd, 42);
      return (on / off - 1.0) * 100.0;
    };
    row.swaptions_pct = slowdown("swaptions");
    row.facesim_pct = slowdown("facesim");
    row.bodytrack_pct = slowdown("bodytrack");
    rows.push_back(row);
  }
  return rows;
}

std::string RenderFigure5(const std::vector<Fig5Row>& rows) {
  std::vector<Bar> bars;
  for (const Fig5Row& row : rows) {
    bars.push_back(Bar{row.cpu + " swaptions", {{"swaptions", row.swaptions_pct}}, 0});
    bars.push_back(Bar{row.cpu + " facesim", {{"facesim", row.facesim_pct}}, 0});
    bars.push_back(Bar{row.cpu + " bodytrack", {{"bodytrack", row.bodytrack_pct}}, 0});
  }
  return RenderBarChart(
      "Figure 5. Slowdown from force-enabling Speculative Store Bypass Disable\n"
      "on the PARSEC kernels (paper: up to ~" +
          FormatPercent(kFigure5MaxPct, 0) + ", trending worse on newer parts)",
      bars);
}

std::string RenderTables9And10() {
  std::ostringstream out;
  for (bool ibrs : {false, true}) {
    TextTable t;
    std::vector<std::string> header = {"CPU"};
    for (const ProbeCase& c : Table9Columns(ibrs)) {
      header.push_back(ProbeCaseName(c));
    }
    t.SetHeader(header);
    for (Uarch u : AllUarches()) {
      SpeculationProbe probe(GetCpuModel(u));
      std::vector<std::string> cells = {UarchName(u)};
      for (const ProbeCase& c : Table9Columns(ibrs)) {
        const ProbeOutcome outcome = probe.Run(c);
        cells.push_back(outcome == ProbeOutcome::kSpeculated
                            ? "yes"
                            : (outcome == ProbeOutcome::kUnsupported ? "N/A" : ""));
      }
      t.AddRow(cells);
    }
    out << (ibrs ? "Table 10. Same, with IBRS *enabled*.\n"
                 : "Table 9. Whether a BTB entry trained in mode X steers speculation of a\n"
                   "victim indirect branch in mode Y, IBRS disabled ('yes' = divider PMC\n"
                   "observed transient execution at the trained target).\n")
        << "\n"
        << t.Render() << "\n";
  }
  // The Zen 3 control experiment from §6.2.
  SpeculationProbe zen3(GetCpuModel(Uarch::kZen3));
  out << "Zen 3 same-call-site control (train and probe share a caller context): "
      << ProbeOutcomeName(zen3.RunSameSiteControl()) << "\n";
  return out.str();
}

std::vector<EibrsBimodalRow> MeasureEibrsBimodal() {
  std::vector<EibrsBimodalRow> rows;
  for (Uarch u : {Uarch::kCascadeLake, Uarch::kIceLakeClient, Uarch::kIceLakeServer}) {
    const CpuModel& cpu = GetCpuModel(u);
    MachineLease lease(cpu);
    Machine& m = *lease;
    m.SetIbrs(true);
    m.SetReg(kRegSp, 0x70000000);
    ProgramBuilder b;
    Label entry = b.NewLabel();
    b.Syscall();
    b.Halt();
    b.Bind(entry);
    b.Sysret();
    Program p = b.Build();
    m.LoadProgram(&p);
    m.SetSyscallEntry(p.VaddrOf(2));
    EibrsBimodalRow row;
    row.cpu = UarchName(u);
    double fast_sum = 0;
    double slow_sum = 0;
    for (int i = 0; i < 200; i++) {
      const uint64_t before = m.cycles();
      m.Run(p.VaddrOf(0));
      const uint64_t cost = m.cycles() - before;
      if (cost > cpu.latency.syscall + cpu.latency.sysret + 100) {
        row.slow++;
        slow_sum += static_cast<double>(cost);
      } else {
        row.fast++;
        fast_sum += static_cast<double>(cost);
      }
    }
    row.fast_avg = row.fast ? fast_sum / static_cast<double>(row.fast) : 0;
    row.slow_avg = row.slow ? slow_sum / static_cast<double>(row.slow) : 0;
    rows.push_back(row);
  }
  return rows;
}

std::string RenderEibrsBimodal() {
  std::ostringstream out;
  out << "Section 6.2.2. Kernel-entry latency distribution with eIBRS: most\n"
         "entries are fast, but every Nth entry pays ~"
      << FormatDouble(kSection622ExtraCycles, 0)
      << " extra cycles while the\n"
         "kernel predictor state is scrubbed.\n\n";
  for (const EibrsBimodalRow& row : MeasureEibrsBimodal()) {
    out << row.cpu << ": " << row.fast << " fast entries (avg " << FormatCycles(row.fast_avg)
        << " cyc), " << row.slow << " slow entries (avg " << FormatCycles(row.slow_avg)
        << " cyc); every " << row.SlowEntryPeriod() << "th entry is slow\n";
  }
  return out.str();
}

}  // namespace specbench
