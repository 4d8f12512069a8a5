#include "src/uarch/memory.h"

#include <algorithm>
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
  return t;
}

SparseMemory::Page& SparseMemory::MapPage(uint64_t page_number) {
  auto it = pages_.find(page_number);
  if (it != pages_.end()) {
    return it->second;
  }
  if (free_pages_.empty()) {
    return pages_.try_emplace(page_number).first->second;  // value-initialized: zeroed
  }
  PageMap::node_type node = std::move(free_pages_.back());
  free_pages_.pop_back();
  node.key() = page_number;
  return pages_.insert(std::move(node)).position->second;
}

void SparseMemory::Clear() {
  while (!pages_.empty()) {
    PageMap::node_type node = pages_.extract(pages_.begin());
    node.mapped().fill(0);
    free_pages_.push_back(std::move(node));
  }
  cached_number_ = UINT64_MAX;
  cached_page_ = nullptr;
}

std::vector<std::pair<uint64_t, uint64_t>> SparseMemory::SortedNonZeroWords() const {
  std::vector<std::pair<uint64_t, const Page*>> pages;
  pages.reserve(pages_.size());
  for (const auto& [page_number, page] : pages_) {
    pages.emplace_back(page_number, &page);
  }
  std::sort(pages.begin(), pages.end());
  std::vector<std::pair<uint64_t, uint64_t>> words;
  for (const auto& [page_number, page] : pages) {
    for (size_t i = 0; i < kPageWords; i++) {
      if ((*page)[i] != 0) {
        words.emplace_back(page_number * kPageBytes + i * sizeof(uint64_t), (*page)[i]);
      }
    }
  }
  return words;
}

}  // namespace specbench
