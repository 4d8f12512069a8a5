// Simulated physical memory and the address-translation interface.
//
// Data memory is a sparse set of 4 KiB pages of 8-byte-aligned words. Each
// page marks the words written since the last Clear(), so the canonical
// snapshot and Clear() cost what a run wrote, not 512 words per page it
// touched. Translation is delegated to a MemoryMap implementation — the OS
// substrate provides real page tables; standalone uarch tests use the
// identity map. The translation
// result carries the bits that transient-execution attacks abuse: a mapping
// can exist in the TLB/page tables yet be architecturally inaccessible
// (Meltdown: user access to kernel memory) or marked non-present while its
// data still sits in the L1 (L1TF).
#ifndef SPECTREBENCH_SRC_UARCH_MEMORY_H_
#define SPECTREBENCH_SRC_UARCH_MEMORY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/isa/isa.h"

namespace specbench {

inline constexpr uint64_t kPageBytes = 4096;

inline uint64_t PageOf(uint64_t vaddr) { return vaddr / kPageBytes; }
inline uint64_t AlignWord(uint64_t addr) { return addr & ~UINT64_C(7); }

// Outcome of translating a virtual address in a given address space.
struct Translation {
  // Architecturally valid for the requesting mode: access commits normally.
  bool valid = false;
  // PTE exists at all (used for the page-walk / fault distinction).
  bool mapped = false;
  // PTE present bit. A non-present PTE with a stale physical address is the
  // L1TF ingredient.
  bool present = false;
  // User-mode accessible. Kernel mappings visible in the user page table
  // (no PTI) have mapped=true, user_accessible=false: the Meltdown surface.
  bool user_accessible = false;
  uint64_t paddr = 0;
  // The span [span_start, span_end) of the mapping this translation came
  // from: for every vaddr inside it the map gives the same flags, and paddr
  // moves with vaddr. Empty (the default) when the map does not say; the
  // machine's translation memo (src/uarch/translation_memo.h) keeps only
  // translations whose span holds their vaddr.
  uint64_t span_start = 0;
  uint64_t span_end = 0;
};

// Whether an access in `mode` may commit through a mapping with these bits:
// present, and user-accessible unless the mode is a kernel one. Every
// MemoryMap computes `valid` this way, which is what lets the memo keep one
// entry for every mode.
inline bool AccessValid(bool present, bool user_accessible, Mode mode) {
  const bool user_mode = mode == Mode::kUser || mode == Mode::kGuestUser;
  return present && (user_accessible || !user_mode);
}

// Address-space/translation provider. `asid` is the current cr3 value.
class MemoryMap {
 public:
  virtual ~MemoryMap() = default;
  virtual Translation Translate(uint64_t vaddr, uint64_t asid, Mode mode) const = 0;

  // Moves whenever a translation this map returned may have changed, so a
  // translation memoized at one generation holds while it is current.
  uint64_t generation() const { return generation_; }

 protected:
  MemoryMap() = default;
  MemoryMap(const MemoryMap&) = default;
  // Assigning replaces what every address translates to.
  MemoryMap& operator=(const MemoryMap&) {
    BumpGeneration();
    return *this;
  }
  void BumpGeneration() { generation_++; }

 private:
  uint64_t generation_ = 0;
};

// Identity mapping: every address is valid from any mode. Used by unit tests
// and microbenchmarks that do not involve the OS substrate. Its span is the
// whole space but the last byte, which a half-open span cannot reach.
class IdentityMemoryMap : public MemoryMap {
 public:
  Translation Translate(uint64_t vaddr, uint64_t asid, Mode mode) const override;
};

// Sparse 64-bit word-addressed physical memory, stored as 4 KiB pages of
// 512 words. A page exists once any word in it is written; reading an
// untouched page returns 0 and allocates nothing. A one-entry last-page cache
// short-cuts the page lookup for the common run of accesses to one page. It
// is `mutable` so the const Read can fill it: a memory belongs to one
// machine, and a machine is never shared across threads.
class SparseMemory {
 public:
  uint64_t Read(uint64_t paddr) const {
    const Page* page = FindPage(PageOf(paddr));
    return page == nullptr ? 0 : page->words[WordIndex(paddr)];
  }
  void Write(uint64_t paddr, uint64_t value) {
    Page& page = TouchPage(PageOf(paddr));
    const size_t i = WordIndex(paddr);
    page.words[i] = value;
    page.written[i / 64] |= UINT64_C(1) << (i % 64);
  }
  // Discards all contents (machine reuse): afterwards every read returns 0,
  // exactly like a freshly constructed memory. The written words and their
  // marks are zeroed, and the pages kept on a free list, so a reused machine
  // retains at most its high-water footprint and stops allocating.
  void Clear();

  // Sorted (address, value) pairs of every nonzero word. A word explicitly
  // written to zero is equivalent to one never touched (reads return zero
  // either way), so dropping zeros gives a canonical snapshot two
  // independently-populated memories can be compared by (the difftest
  // oracle's memory digest). Visits only the words marked written.
  std::vector<std::pair<uint64_t, uint64_t>> SortedNonZeroWords() const;
  // Words marked written since the last Clear(): what Clear() and
  // SortedNonZeroWords() visit. A word counts once however often it was
  // written, and also when its value is zero.
  size_t WrittenWords() const;

 private:
  static constexpr size_t kPageWords = kPageBytes / sizeof(uint64_t);
  static constexpr size_t kMaskWords = kPageWords / 64;
  // A page's words and a mask with bit i set when words[i] was written since
  // the last Clear(). Invariant: a word whose bit is clear is zero. So Clear()
  // and SortedNonZeroWords() visit only the marked words, and a page on the
  // free list has no word and no bit set.
  struct Page {
    std::array<uint64_t, kPageWords> words;
    std::array<uint64_t, kMaskWords> written;
  };

  static size_t WordIndex(uint64_t paddr) { return (paddr % kPageBytes) / sizeof(uint64_t); }
  // Calls `fn(i)` for every word index marked in `page`, in ascending order.
  template <typename Fn>
  static void ForEachWritten(const Page& page, Fn&& fn);

  // The page holding `page_number`, or nullptr if it was never written.
  const Page* FindPage(uint64_t page_number) const {
    if (page_number != cached_number_) {
      auto it = pages_.find(page_number);
      cached_number_ = page_number;
      cached_page_ = it == pages_.end() ? nullptr : &it->second;
    }
    return cached_page_;
  }
  Page& TouchPage(uint64_t page_number) {
    if (page_number != cached_number_ || cached_page_ == nullptr) {
      cached_number_ = page_number;
      cached_page_ = &MapPage(page_number);
    }
    // The cache holds const pointers for the const Read; every page belongs
    // to this (non-const) memory.
    return *const_cast<Page*>(cached_page_);
  }
  // Finds or maps `page_number`, reusing a zeroed page from the free list
  // before allocating a new one.
  Page& MapPage(uint64_t page_number);

  using PageMap = std::unordered_map<uint64_t, Page>;  // page number -> words
  PageMap pages_;
  // Pages dropped by Clear(), zeroed and unmarked, as map nodes: re-mapping
  // one allocates nothing.
  std::vector<PageMap::node_type> free_pages_;
  // Last page looked up; cached_page_ is nullptr when it is untouched.
  mutable uint64_t cached_number_ = UINT64_MAX;
  mutable const Page* cached_page_ = nullptr;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MEMORY_H_
