// The machine's translation memo (src/uarch/translation_memo.h) and the
// contract it relies on: every MemoryMap derives `valid` from the present
// and user bits and the mode, and returns a span over which its answer
// holds. Machine::Translate must equal the map's own Translate in every
// field, however page tables, address spaces, modes and maps change.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/attack/kit.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"
#include "src/os/kernel.h"
#include "src/os/paging.h"
#include "src/uarch/machine.h"
#include "src/uarch/memory.h"
#include "src/util/rng.h"

namespace specbench {
namespace {

constexpr Mode kModes[] = {Mode::kUser, Mode::kKernel, Mode::kGuestUser, Mode::kGuestKernel,
                           Mode::kHost};

void ExpectSameTranslation(const Translation& got, const Translation& want,
                           const std::string& where) {
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.mapped, want.mapped) << where;
  EXPECT_EQ(got.present, want.present) << where;
  EXPECT_EQ(got.user_accessible, want.user_accessible) << where;
  EXPECT_EQ(got.paddr, want.paddr) << where;
  EXPECT_EQ(got.span_start, want.span_start) << where;
  EXPECT_EQ(got.span_end, want.span_end) << where;
}

// The contract, checked at `vaddr` in every mode: `valid` is AccessValid of
// the present and user bits, and a mapped translation's span holds `vaddr`
// and gives the same answer, paddr moving with vaddr, at its first and last
// byte.
void ExpectContract(const MemoryMap& map, uint64_t vaddr, uint64_t asid, const std::string& where) {
  for (Mode mode : kModes) {
    const Translation t = map.Translate(vaddr, asid, mode);
    EXPECT_EQ(t.valid, AccessValid(t.present, t.user_accessible, mode)) << where;
    if (!t.mapped) {
      EXPECT_FALSE(t.valid) << where;
      continue;
    }
    ASSERT_LE(t.span_start, vaddr) << where;
    ASSERT_LT(vaddr, t.span_end) << where;
    for (uint64_t edge : {t.span_start, t.span_end - 1}) {
      const Translation e = map.Translate(edge, asid, mode);
      EXPECT_TRUE(e.mapped) << where << " edge " << edge;
      EXPECT_EQ(e.valid, t.valid) << where << " edge " << edge;
      EXPECT_EQ(e.present, t.present) << where << " edge " << edge;
      EXPECT_EQ(e.user_accessible, t.user_accessible) << where << " edge " << edge;
      EXPECT_EQ(e.paddr - edge, t.paddr - vaddr) << where << " edge " << edge;
      EXPECT_EQ(e.span_start, t.span_start) << where << " edge " << edge;
      EXPECT_EQ(e.span_end, t.span_end) << where << " edge " << edge;
    }
  }
}

TEST(MemoryMapContract, IdentityMapIsValidEverywhereOverOneSpan) {
  IdentityMemoryMap map;
  for (uint64_t vaddr : {UINT64_C(0), UINT64_C(0x1234), kSecretSlot, UINT64_MAX - 1}) {
    ExpectContract(map, vaddr, 0, "vaddr " + std::to_string(vaddr));
  }
}

TEST(MemoryMapContract, PageMapperSpansAreRegions) {
  PageMapper map;
  map.AddRegion(1, 0x10000, 0x3000, 0x90000, /*user=*/true);
  map.AddRegion(1, 0x13000, 0x1000, 0xA0000, /*user=*/false);
  map.AddRegion(1, 0x20000, 0x1000, 0xB0000, /*user=*/true, /*present=*/false);
  map.AddRegion(2, 0x10000, 0x1008, 0xC0000, /*user=*/false, /*present=*/false);
  for (uint64_t asid : {1, 2, 3}) {
    for (uint64_t vaddr : {0x10000, 0x11008, 0x12FF8, 0x13000, 0x13FFF, 0x14000, 0x20010,
                           0x10FF8, 0x11004}) {
      ExpectContract(map, vaddr, asid,
                     "asid " + std::to_string(asid) + " vaddr " + std::to_string(vaddr));
    }
  }
  const Translation t = map.Translate(0x11008, 1, Mode::kUser);
  EXPECT_EQ(t.span_start, 0x10000u);
  EXPECT_EQ(t.span_end, 0x13000u);
}

TEST(MemoryMapContract, AttackMapSpansArePages) {
  const SecretPage secrets[] = {SecretPage::kUser, SecretPage::kSupervisor, SecretPage::kAbsent};
  const AttackerPage attackers[] = {AttackerPage::kUnmapped, AttackerPage::kStaleToSecret,
                                    AttackerPage::kStaleToNothing};
  for (SecretPage secret : secrets) {
    for (AttackerPage attacker : attackers) {
      const MemoryMap& map = AttackMap(secret, attacker);
      for (uint64_t page : {kProbeBase, kGuardAddr, kArrayBase, kSecretSlot, kPtrSlot,
                            kStackTop - kPageBytes, kMdsSampleBase, kStalePteBase}) {
        for (uint64_t offset : {UINT64_C(0), UINT64_C(8), kPageBytes - 8}) {
          const std::string where = "secret " + std::to_string(static_cast<int>(secret)) +
                                    " attacker " + std::to_string(static_cast<int>(attacker)) +
                                    " vaddr " + std::to_string(page + offset);
          ExpectContract(map, page + offset, 0, where);
          const Translation t = map.Translate(page + offset, 0, Mode::kUser);
          if (t.mapped) {
            EXPECT_EQ(t.span_start, page) << where;
            EXPECT_EQ(t.span_end, page + kPageBytes) << where;
          }
        }
      }
    }
  }
}

// A PageMapper that counts how often it is asked: the machine calls its map
// only on a memo miss.
class CountingMapper : public PageMapper {
 public:
  Translation Translate(uint64_t vaddr, uint64_t asid, Mode mode) const override {
    calls++;
    return PageMapper::Translate(vaddr, asid, mode);
  }
  mutable int calls = 0;
};

TEST(TranslationMemo, CallsTheMapOncePerSpanWhileItsGenerationHolds) {
  CountingMapper map;
  for (uint64_t r = 0; r < 5; r++) {
    map.AddRegion(1, 0x100000 * (r + 1), 0x2000, 0x1000000 * (r + 1), /*user=*/r != 3);
  }
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  m.SetMemoryMap(&map);
  m.SetCr3(1);

  // A run inside one region, in every mode, is one call.
  for (uint64_t offset = 0; offset < 0x2000; offset += 8) {
    const Mode mode = kModes[(offset / 8) % 5];
    ExpectSameTranslation(m.Translate(0x100000 + offset, mode),
                          map.PageMapper::Translate(0x100000 + offset, 1, mode), "run");
  }
  EXPECT_EQ(map.calls, 1);

  // Four regions in turn fit; a fifth evicts the least recently hit.
  map.calls = 0;
  for (int round = 0; round < 3; round++) {
    for (uint64_t r = 0; r < 4; r++) {
      m.Translate(0x100000 * (r + 1) + 8, Mode::kUser);
    }
  }
  EXPECT_EQ(map.calls, 3);  // regions 2-4; region 1 was already held
  for (uint64_t r = 0; r < 5; r++) {
    m.Translate(0x100000 * (r + 1) + 8, Mode::kUser);
  }
  map.calls = 0;
  for (int round = 0; round < 2; round++) {
    for (uint64_t r = 0; r < 5; r++) {
      m.Translate(0x100000 * (r + 1) + 8, Mode::kUser);
    }
  }
  EXPECT_EQ(map.calls, 10);  // each region was evicted just before its turn

  // A hit moves its entry to the front: after 1, 2, 3, 4 and a hit on 1, a
  // fifth region evicts 2, the least recently hit, and 1 still hits.
  for (uint64_t r : {0, 1, 2, 3, 0, 4}) {
    m.Translate(0x100000 * (r + 1) + 8, Mode::kUser);
  }
  map.calls = 0;
  m.Translate(0x100008, Mode::kUser);
  EXPECT_EQ(map.calls, 0);
  m.Translate(0x200008, Mode::kUser);
  EXPECT_EQ(map.calls, 1);

  // An unmapped address is never kept.
  map.calls = 0;
  for (int i = 0; i < 3; i++) {
    EXPECT_FALSE(m.Translate(0x90000, Mode::kKernel).mapped);
  }
  EXPECT_EQ(map.calls, 3);

  // Another address space misses; a change anywhere in the page tables
  // empties the memo.
  map.calls = 0;
  m.Translate(0x100008, Mode::kUser);
  EXPECT_EQ(map.calls, 0);
  m.SetCr3(2);
  EXPECT_FALSE(m.Translate(0x100008, Mode::kUser).mapped);
  EXPECT_EQ(map.calls, 1);
  m.SetCr3(1);
  map.AddRegion(7, 0x100000, 0x1000, 0x5000000, true);
  m.Translate(0x100008, Mode::kUser);
  EXPECT_EQ(map.calls, 2);
  EXPECT_TRUE(map.RemoveRegion(1, 0x100000));
  EXPECT_FALSE(m.Translate(0x100008, Mode::kUser).mapped);
  EXPECT_EQ(map.calls, 3);
}

// Kernel user code for the stream: "map_touch" mmaps two pages and touches
// both (two demand faults, each an AddRegion, in both views under PTI),
// leaving the vaddr in r0; "unmap" munmaps the vaddr in r0.
std::unique_ptr<Kernel> StreamKernel(bool pti) {
  MitigationConfig config = MitigationConfig::AllOff();
  config.pti = pti;
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kSkylakeClient), config);
  kernel->CreateProcess();  // a second process: two more address spaces
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("map_touch");
  b.MovImm(0, 2 * kPageBytes);
  kernel->EmitSyscall(b, Sys::kMmap);
  b.Mov(7, 0);
  b.MovImm(4, 5);
  b.Store(MemRef{.base = 7}, 4);
  b.Store(MemRef{.base = 7, .disp = static_cast<int64_t>(kPageBytes)}, 4);
  b.Load(5, MemRef{.base = 7, .disp = 8});
  b.Mov(0, 7);
  b.Halt();
  b.BindSymbol("unmap");
  kernel->EmitSyscall(b, Sys::kMunmap);
  b.Halt();
  kernel->Finalize();
  return kernel;
}

// A seeded stream of translations over both views of two processes, every
// mode, and addresses in runs, at region edges and at random, interleaved
// with AddRegion and RemoveRegion on the kernel's page tables and with
// mmap+touch and munmap run on the machine. Every translation through the
// machine equals the page tables' own in every field.
void RunKernelStream(bool pti, uint64_t seed) {
  auto kernel = StreamKernel(pti);
  Machine& m = kernel->machine();
  PageMapper& mapper = kernel->mapper();
  const uint64_t boot_cr3 = kernel->process(0).user_cr3;
  std::vector<uint64_t> cr3s;
  for (int pid = 0; pid < kernel->process_count(); pid++) {
    cr3s.push_back(kernel->process(pid).user_cr3);
    cr3s.push_back(kernel->process(pid).kernel_cr3);
  }
  // Regions the stream adds: page slots above the mmap area.
  constexpr uint64_t kWindow = 0x30000000;
  constexpr uint64_t kSlots = 32;
  struct Added {
    uint64_t asid;
    uint64_t start;
  };
  std::vector<Added> added;
  std::vector<uint64_t> mmapped;
  const uint64_t anchors[] = {kUserDataVaddr,  kUserStackTop - 64, kUserMmapBase, kPercpuVaddr,
                              kSyscallTableVaddr, kKernelSecretVaddr, kKernelHeapVaddr,
                              kHostDataVaddr, kWindow};
  Rng rng(seed);
  uint64_t near = kUserDataVaddr;
  int translations = 0;
  int mapped = 0;
  for (int op = 0; op < 12000; op++) {
    const std::string where = "pti " + std::to_string(pti) + " op " + std::to_string(op);
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 3) {
      const uint64_t asid = cr3s[rng.NextBelow(cr3s.size())];
      const uint64_t start = kWindow + kPageBytes * rng.NextBelow(kSlots);
      bool taken = false;
      for (const Added& a : added) {
        taken = taken || (a.asid == asid && a.start == start);
      }
      if (!taken) {
        mapper.AddRegion(asid, start, kPageBytes, 0x70000000 + start, rng.NextBelow(2) == 0,
                         rng.NextBelow(4) != 0);
        added.push_back({asid, start});
      }
    } else if (kind < 5 && !added.empty()) {
      const size_t i = rng.NextBelow(added.size());
      ASSERT_TRUE(mapper.RemoveRegion(added[i].asid, added[i].start)) << where;
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (kind < 6) {
      m.SetCr3(boot_cr3);
      kernel->Run("map_touch");
      mmapped.push_back(m.reg(0));
      near = m.reg(0);
    } else if (kind < 7 && !mmapped.empty()) {
      const size_t i = rng.NextBelow(mmapped.size());
      m.SetCr3(boot_cr3);
      m.SetReg(0, mmapped[i]);
      kernel->Run("unmap");
      ASSERT_EQ(m.reg(0), 0u) << where;
      near = mmapped[i];
      mmapped.erase(mmapped.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const uint64_t pick = rng.NextBelow(8);
      if (pick == 0) {
        const uint64_t anchor = anchors[rng.NextBelow(std::size(anchors))];
        near = anchor + 8 * rng.NextBelow(64) - 8 * rng.NextBelow(64);
      } else if (pick == 1) {
        near = kWindow - kPageBytes + 8 * rng.NextBelow((kSlots + 2) * kPageBytes / 8);
      } else {
        near += 8 * rng.NextBelow(16);
      }
      const uint64_t cr3 = cr3s[rng.NextBelow(cr3s.size())];
      const Mode mode = kModes[rng.NextBelow(5)];
      m.SetCr3(cr3);
      const Translation want = mapper.Translate(near, cr3, mode);
      ExpectSameTranslation(m.Translate(near, mode), want, where);
      if (::testing::Test::HasFailure()) {
        return;  // the first mismatch is the one to read
      }
      translations++;
      mapped += want.mapped ? 1 : 0;
    }
  }
  // Both outcomes at volume, and the machine-run half of the stream ran.
  EXPECT_GT(translations, 10000);
  EXPECT_GT(mapped, translations / 4);
  EXPECT_GT(translations - mapped, translations / 20);
  EXPECT_GT(kernel->page_faults(), 100u);
}

TEST(TranslationMemo, MatchesThePageTablesOnASeededKernelStreamWithPti) {
  RunKernelStream(/*pti=*/true, 35);
}

TEST(TranslationMemo, MatchesThePageTablesOnASeededKernelStreamWithoutPti) {
  RunKernelStream(/*pti=*/false, 36);
}

// munmap moves the page tables' generation, so a load of the unmapped page
// faults (and, its VMA gone, the fault is unhandled) instead of reading the
// memoized translation of the page it touched a moment before.
TEST(TranslationMemoDeathTest, AccessAfterMunmapFaults) {
  auto run = [] {
    auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen2), MitigationConfig::AllOff());
    ProgramBuilder& b = kernel->builder();
    b.BindSymbol("user_main");
    b.MovImm(0, kPageBytes);
    kernel->EmitSyscall(b, Sys::kMmap);
    b.Mov(7, 0);
    b.MovImm(4, 9);
    b.Store(MemRef{.base = 7}, 4);  // fault + map
    b.Load(5, MemRef{.base = 7});   // memoized
    b.Mov(0, 7);
    kernel->EmitSyscall(b, Sys::kMunmap);
    b.Load(6, MemRef{.base = 7});
    b.Halt();
    kernel->Finalize();
    kernel->Run("user_main");
  };
  EXPECT_DEATH(run(), "unhandled page fault on committed load");
}

// The attack map and the identity map never change, so both stay at
// generation 0: only SetMemoryMap's clear keeps one map's spans from
// answering for the other.
TEST(TranslationMemo, SetMemoryMapSwapsBetweenTheAttackMapAndTheIdentityMap) {
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  IdentityMemoryMap identity;
  const MemoryMap& absent = AttackMap(SecretPage::kAbsent, AttackerPage::kStaleToSecret);
  const MemoryMap& supervisor = AttackMap(SecretPage::kSupervisor, AttackerPage::kUnmapped);
  const uint64_t probes[] = {kSecretSlot, kSecretSlot + 8, kStalePteBase + 16,
                             kMdsSampleBase + 8, kArrayBase};
  const MemoryMap* maps[] = {&identity, &absent, &identity, &supervisor, &absent, &supervisor};
  for (size_t i = 0; i < std::size(maps); i++) {
    m.SetMemoryMap(maps[i] == &identity ? nullptr : maps[i]);
    for (int pass = 0; pass < 2; pass++) {
      for (uint64_t vaddr : probes) {
        for (Mode mode : kModes) {
          ExpectSameTranslation(m.Translate(vaddr, mode), maps[i]->Translate(vaddr, 0, mode),
                                "map " + std::to_string(i) + " vaddr " + std::to_string(vaddr));
        }
      }
    }
  }
}

// Reset returns the machine to the identity map. The attack map is at
// generation 0 like it, so only Reset's clear keeps the attack map's spans,
// such as its supervisor-only secret page, from answering afterwards.
TEST(TranslationMemo, ResetForgetsTheLastMapsSpans) {
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  m.SetMemoryMap(&AttackMap(SecretPage::kSupervisor, AttackerPage::kStaleToSecret));
  EXPECT_FALSE(m.Translate(kSecretSlot, Mode::kUser).valid);
  EXPECT_FALSE(m.Translate(kStalePteBase, Mode::kKernel).present);
  m.Reset();
  IdentityMemoryMap identity;
  for (uint64_t vaddr : {kSecretSlot, kStalePteBase}) {
    for (Mode mode : kModes) {
      ExpectSameTranslation(m.Translate(vaddr, mode), identity.Translate(vaddr, 0, mode),
                            "vaddr " + std::to_string(vaddr));
    }
  }
}

// A kernel torn down and a new one built in its storage: the new mapper
// sits at the old one's address, reaches the old one's generation, and the
// new kernel leases the same machine. Reset and SetMemoryMap keep the old
// page tables' spans from answering.
TEST(TranslationMemo, ResetThenANewKernelAtTheSameAddress) {
  constexpr uint64_t kExtra = 0x30000000;
  std::optional<Kernel> kernel;
  const CpuModel& cpu = GetCpuModel(Uarch::kCascadeLake);
  auto boot = [&](uint64_t paddr) {
    kernel.emplace(cpu, MitigationConfig::AllOff());
    kernel->builder().BindSymbol("user_main");
    kernel->builder().Halt();
    kernel->Finalize();
    kernel->mapper().AddRegion(kernel->process(0).user_cr3, kExtra, kPageBytes, paddr, true);
  };
  boot(0x7000000);
  Machine* first_machine = &kernel->machine();
  const PageMapper* first_mapper = &kernel->mapper();
  const uint64_t first_generation = kernel->mapper().generation();
  EXPECT_EQ(kernel->machine().Translate(kExtra + 8, Mode::kUser).paddr, 0x7000008u);
  kernel.reset();

  boot(0x9000000);
  ASSERT_EQ(&kernel->machine(), first_machine);
  ASSERT_EQ(&kernel->mapper(), first_mapper);
  ASSERT_EQ(kernel->mapper().generation(), first_generation);
  ExpectSameTranslation(kernel->machine().Translate(kExtra + 8, Mode::kUser),
                        kernel->mapper().Translate(kExtra + 8, kernel->process(0).user_cr3,
                                                   Mode::kUser),
                        "second kernel");
  EXPECT_EQ(kernel->machine().Translate(kExtra + 8, Mode::kUser).paddr, 0x9000008u);
}

// Two SMT contexts in different address spaces share the memo: the same
// vaddr reaches each context's own page, however the fetch arbiter
// interleaves them.
TEST(TranslationMemo, TwoSmtContextsWithDifferentCr3) {
  constexpr uint64_t kData = 0x200000;
  constexpr uint64_t kPaddrA = 0x3000000;
  constexpr uint64_t kPaddrB = 0x5000000;
  constexpr int64_t kLoops = 64;
  PageMapper map;
  map.AddRegion(1, kData, kPageBytes, kPaddrA, /*user=*/true);
  map.AddRegion(2, kData, kPageBytes, kPaddrB, /*user=*/true);

  // Each thread switches to its own address space, then stores its value,
  // loads it back and sums it, kLoops times.
  ProgramBuilder b;
  for (int thread = 0; thread < 2; thread++) {
    Label top = b.NewLabel();
    b.BindSymbol(thread == 0 ? "a" : "b");
    b.MovImm(1, thread + 1).MovCr3(1);
    b.MovImm(2, static_cast<int64_t>(kData)).MovImm(3, thread == 0 ? 0xA : 0xB);
    b.MovImm(5, 0).MovImm(6, kLoops);
    b.Bind(top);
    b.Store(MemRef{.base = 2, .disp = 8}, 3);
    b.Load(4, MemRef{.base = 2, .disp = 8});
    b.Alu(AluOp::kAdd, 5, 5, 4);
    b.AluImm(AluOp::kSub, 6, 6, 1);
    b.BranchNz(6, top);
    b.Halt();
  }
  const Program program = b.Build();

  for (uint64_t granule : {1, 3, 8}) {
    Machine m(GetCpuModel(Uarch::kSkylakeClient));
    m.SetMemoryMap(&map);
    m.SetCr3(1);
    m.LoadProgram(&program);
    Machine::CoResidentSpec a;
    a.program = &program;
    a.entry_vaddr = program.SymbolVaddr("a");
    a.smt_thread_id = 0;
    Machine::CoResidentSpec spec_b = a;
    spec_b.entry_vaddr = program.SymbolVaddr("b");
    spec_b.smt_thread_id = 1;
    const Machine::CoResidentResult run = m.RunCoResident(a, spec_b, granule);
    m.DrainStoreBuffer();
    const std::string where = "granule " + std::to_string(granule);
    EXPECT_TRUE(run.thread[0].halted && run.thread[1].halted) << where;
    EXPECT_EQ(m.hardware_context(0).arch.regs[5], static_cast<uint64_t>(kLoops * 0xA)) << where;
    EXPECT_EQ(m.hardware_context(1).arch.regs[5], static_cast<uint64_t>(kLoops * 0xB)) << where;
    EXPECT_EQ(m.physical_memory().Read(kPaddrA + 8), 0xAu) << where;
    EXPECT_EQ(m.physical_memory().Read(kPaddrB + 8), 0xBu) << where;
  }
}

}  // namespace
}  // namespace specbench
