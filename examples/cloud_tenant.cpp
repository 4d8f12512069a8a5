// Cloud tenant scenario (the paper's §4.4 / §5.6 story).
//
// A guest OS runs a filesystem workload against an emulated disk; every disk
// request exits to the hypervisor. On L1TF-vulnerable hardware the host must
// flush the L1 before re-entering the guest (plus verw on MDS parts). This
// example measures the host-mitigation overhead for an I/O-heavy and an
// I/O-light workload, showing why the paper found VM overheads small: the
// cost scales with the *exit rate*, not with guest work.
//
// Build & run:  ./build/examples/cloud_tenant
#include <cstdio>

#include "src/workload/lfs.h"

using namespace specbench;

int main() {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);  // L1TF + MDS vulnerable
  std::printf("Host CPU: %s\n", cpu.uarch_name.c_str());
  const HostConfig host_on = HostConfig::Defaults(cpu);
  const HostConfig host_off = HostConfig::AllOff();
  std::printf("Host mitigations: L1D flush on vmentry=%s, verw on vmentry=%s\n\n",
              host_on.l1d_flush_on_vmentry ? "yes" : "no",
              host_on.mds_clear_on_vmentry ? "yes" : "no");

  const MitigationConfig guest = MitigationConfig::Defaults(cpu);
  for (const std::string& name : Lfs::KernelNames()) {
    const LfsResult with = Lfs::SimulateKernel(name, cpu, guest, host_on);
    const LfsResult without = Lfs::SimulateKernel(name, cpu, guest, host_off);
    const double overhead = (with.cycles / without.cycles - 1.0) * 100.0;
    std::printf("%-10s  %8.0f kcycles protected, %8.0f kcycles bare, "
                "%5.1f%% overhead  (%llu vm exits)\n",
                name.c_str(), with.cycles / 1000.0, without.cycles / 1000.0, overhead,
                static_cast<unsigned long long>(with.vm_exits));
  }

  std::printf(
      "\nsmallfile exits once per file; largefile amortizes one (bigger) exit over\n"
      "much more guest work — so the same per-exit mitigation cost shows up as a\n"
      "smaller relative overhead. The paper found <2%% median on real disks, whose\n"
      "service times dwarf even our emulated-NVMe latencies.\n");
  return 0;
}
