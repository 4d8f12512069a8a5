#include "src/uarch/memory.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace specbench {

Translation IdentityMemoryMap::Translate(uint64_t vaddr, uint64_t asid, Mode mode) const {
  (void)asid;
  (void)mode;
  Translation t;
  t.valid = true;
  t.mapped = true;
  t.present = true;
  t.user_accessible = true;
  t.paddr = vaddr;
  t.span_end = UINT64_MAX;
  return t;
}

SparseMemory::Page& SparseMemory::MapPage(uint64_t page_number) {
  auto it = pages_.find(page_number);
  if (it != pages_.end()) {
    return it->second;
  }
  if (free_pages_.empty()) {
    // Value-initialized: every word and every mark zero.
    return pages_.try_emplace(page_number).first->second;
  }
  PageMap::node_type node = std::move(free_pages_.back());
  free_pages_.pop_back();
  node.key() = page_number;
  return pages_.insert(std::move(node)).position->second;
}

template <typename Fn>
void SparseMemory::ForEachWritten(const Page& page, Fn&& fn) {
  for (size_t m = 0; m < kMaskWords; m++) {
    for (uint64_t bits = page.written[m]; bits != 0; bits &= bits - 1) {
      fn(m * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

void SparseMemory::Clear() {
  while (!pages_.empty()) {
    PageMap::node_type node = pages_.extract(pages_.begin());
    Page& page = node.mapped();
    ForEachWritten(page, [&page](size_t i) { page.words[i] = 0; });
    page.written = {};
    free_pages_.push_back(std::move(node));
  }
  cached_number_ = UINT64_MAX;
  cached_page_ = nullptr;
}

size_t SparseMemory::WrittenWords() const {
  size_t marked = 0;
  for (const auto& [page_number, page] : pages_) {
    for (uint64_t bits : page.written) {
      marked += static_cast<size_t>(std::popcount(bits));
    }
  }
  return marked;
}

std::vector<std::pair<uint64_t, uint64_t>> SparseMemory::SortedNonZeroWords() const {
  std::vector<std::pair<uint64_t, const Page*>> pages;
  pages.reserve(pages_.size());
  for (const auto& [page_number, page] : pages_) {
    pages.emplace_back(page_number, &page);
  }
  std::sort(pages.begin(), pages.end());
  std::vector<std::pair<uint64_t, uint64_t>> words;
  words.reserve(WrittenWords());
  for (const auto& [page_number, page] : pages) {
    const uint64_t base = page_number * kPageBytes;
    const Page& p = *page;
    ForEachWritten(p, [&words, &p, base](size_t i) {
      if (p.words[i] != 0) {
        words.emplace_back(base + i * sizeof(uint64_t), p.words[i]);
      }
    });
  }
  return words;
}

}  // namespace specbench
