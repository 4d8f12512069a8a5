#include "src/uarch/predictors.h"

#include "src/util/check.h"

namespace specbench {

namespace {

uint64_t HashMix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

Btb::Btb(const PredictorPolicy& policy) : policy_(policy) {}

uint64_t Btb::KeyFor(uint64_t pc, Mode mode, uint64_t context, uint64_t smt_thread) const {
  uint64_t key = pc;
  if (policy_.btb_mode_tagged) {
    // Privilege-tagged BTB: user and kernel entries never alias.
    key = HashMix(key ^ (static_cast<uint64_t>(IsKernelMode(mode)) << 63));
  }
  if (policy_.btb_bhb_indexed) {
    // Zen 3-style: the index depends on caller/branch-history context, so an
    // attacker training from a different context produces a different entry.
    key = HashMix(key ^ HashMix(context));
  }
  if (smt_thread != 0) {
    // STIBP: entries are partitioned between hyperthread siblings.
    key = HashMix(key ^ (smt_thread << 48));
  }
  return key;
}

Btb::Prediction Btb::Predict(uint64_t pc, Mode mode, uint64_t context,
                             uint64_t smt_thread) const {
  auto it = entries_.find(KeyFor(pc, mode, context, smt_thread));
  if (it == entries_.end()) {
    return Prediction{};
  }
  if (policy_.btb_mode_tagged && IsKernelMode(it->second.mode) != IsKernelMode(mode)) {
    return Prediction{};
  }
  return Prediction{true, it->second.target};
}

void Btb::Train(uint64_t pc, uint64_t target, Mode mode, uint64_t context,
                uint64_t smt_thread) {
  entries_[KeyFor(pc, mode, context, smt_thread)] = Entry{target, mode};
}

void Btb::FlushAll() { entries_.clear(); }

void Btb::FlushKernelEntries() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (IsKernelMode(it->second.mode)) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

Rsb::Rsb(uint32_t depth) : depth_(depth) { SPECBENCH_CHECK(depth > 0); }

void Rsb::Push(uint64_t return_vaddr) {
  if (stack_.size() == depth_) {
    stack_.erase(stack_.begin());  // overflow drops the oldest entry
  }
  stack_.push_back(return_vaddr);
}

Rsb::Prediction Rsb::Pop() {
  if (stack_.empty()) {
    underflows_++;
    return Prediction{};
  }
  const uint64_t target = stack_.back();
  stack_.pop_back();
  return Prediction{true, target};
}

void Rsb::Stuff(uint64_t benign_target) {
  stack_.assign(depth_, benign_target);
}

void Rsb::Clear() { stack_.clear(); }

CondPredictor::CondPredictor(uint32_t entries) {
  SPECBENCH_CHECK(entries > 0 && (entries & (entries - 1)) == 0);
  index_mask_ = entries - 1;
  counters_.assign(entries, 1);  // weakly not-taken
}

void CondPredictor::Reset() { counters_.assign(counters_.size(), 1); }

}  // namespace specbench
