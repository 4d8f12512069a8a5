#include "src/workload/lfs.h"

#include "src/util/check.h"

namespace specbench {

namespace {

constexpr int64_t kFileBuf = static_cast<int64_t>(kUserDataVaddr) + 0x8000;

// smallfile: per file, metadata syscalls (create/stat modelled as getpid-
// class kernel entries plus a small write) and a 4 KiB flush to disk.
void EmitSmallfile(Kernel& kernel, ProgramBuilder& b) {
  Label loop = b.NewLabel();
  b.MovImm(3, 24);  // files
  b.Bind(loop);
  // Metadata: two cheap syscalls (namei + inode update).
  kernel.EmitSyscall(b, Sys::kGetpid);
  b.MovImm(0, kFileBuf);
  b.MovImm(1, 256);
  kernel.EmitSyscall(b, Sys::kWrite);
  // Data flush: one small disk I/O -> one vmexit.
  b.MovImm(0, kFileBuf);
  b.MovImm(1, 4096);
  b.MovImm(2, 1);  // write
  kernel.EmitSyscall(b, kSysDiskIo);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, loop);
  b.Halt();
}

// largefile: sequential writes; the guest buffers 16 pages of data in
// memory (user-side work) per 16 KiB disk I/O.
void EmitLargefile(Kernel& kernel, ProgramBuilder& b) {
  Label outer = b.NewLabel();
  Label fill = b.NewLabel();
  b.MovImm(3, 12);  // chunks
  b.Bind(outer);
  // Generate a chunk of data in the page cache (user work).
  b.MovImm(4, 512);  // words
  b.MovImm(5, kFileBuf);
  b.Bind(fill);
  b.Mov(6, 4);
  b.MulImm(6, 6, 2654435761);
  b.Store(MemRef{.base = 5}, 6);
  b.AluImm(AluOp::kAdd, 5, 5, 8);
  b.AluImm(AluOp::kSub, 4, 4, 1);
  b.BranchNz(4, fill);
  // One large I/O for the chunk.
  b.MovImm(0, kFileBuf);
  b.MovImm(1, 16384);
  b.MovImm(2, 1);
  kernel.EmitSyscall(b, kSysDiskIo);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, outer);
  b.Halt();
}

}  // namespace

const std::vector<std::string>& Lfs::KernelNames() {
  static const std::vector<std::string> kNames = {"smallfile", "largefile"};
  return kNames;
}

LfsResult Lfs::SimulateKernel(const std::string& name, const CpuModel& cpu,
                              const MitigationConfig& guest_config,
                              const HostConfig& host_config) {
  Kernel kernel(cpu, guest_config);
  Hypervisor hv(kernel, host_config);
  ProgramBuilder& b = kernel.builder();
  b.BindSymbol("guest_main");
  if (name == "smallfile") {
    EmitSmallfile(kernel, b);
  } else if (name == "largefile") {
    EmitLargefile(kernel, b);
  } else {
    SPECBENCH_CHECK_MSG(false, "unknown LFS kernel name");
  }
  kernel.Finalize();
  const auto run = kernel.Run("guest_main");
  LfsResult result;
  result.cycles = static_cast<double>(run.cycles);
  result.vm_exits = hv.vm_exits();
  return result;
}

}  // namespace specbench
