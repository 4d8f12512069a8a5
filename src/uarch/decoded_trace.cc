#include "src/uarch/decoded_trace.h"

namespace specbench {

TraceKey TraceKeyOf(const Program& program) {
  uint64_t h = 0xcbf29ce484222325ULL;
  uint64_t h2 = 0x9e3779b97f4a7c15ULL;
  const auto fold = [&h, &h2](uint64_t v) {
    for (int byte = 0; byte < 8; byte++) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
    uint64_t z = h2 += v + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h2 = z ^ (z >> 31);
  };
  fold(program.base_vaddr());
  fold(static_cast<uint64_t>(program.size()));
  for (int32_t i = 0; i < program.size(); i++) {
    const Instruction& in = program.at(i);
    fold(static_cast<uint64_t>(in.op));
    fold(static_cast<uint64_t>(in.alu));
    fold(static_cast<uint64_t>(in.dst) | (static_cast<uint64_t>(in.src1) << 8) |
         (static_cast<uint64_t>(in.src2) << 16) |
         (static_cast<uint64_t>(in.use_imm) << 24));
    fold(static_cast<uint64_t>(in.imm));
    fold(static_cast<uint64_t>(in.mem.base) | (static_cast<uint64_t>(in.mem.index) << 8) |
         (static_cast<uint64_t>(in.mem.scale) << 16));
    fold(static_cast<uint64_t>(in.mem.disp));
    fold(static_cast<uint64_t>(in.target));
  }
  return TraceKey{h, h2};
}

DecodedTrace::DecodedTrace(const Program& program, uint64_t program_check)
    : ops_(program.ops()), program_check_(program_check) {}

TraceCache& TraceCache::Global() {
  static TraceCache* cache = new TraceCache;
  return *cache;
}

std::shared_ptr<const DecodedTrace> TraceCache::Acquire(const Program& program,
                                                        Uarch uarch) {
  const TraceKey key = TraceKeyOf(program);
  return AcquireImpl(program, uarch, key, key.digest);
}

std::shared_ptr<const DecodedTrace> TraceCache::AcquireWithDigestForTesting(
    const Program& program, Uarch uarch, uint64_t forced_digest) {
  return AcquireImpl(program, uarch, TraceKeyOf(program), forced_digest);
}

std::shared_ptr<const DecodedTrace> TraceCache::AcquireImpl(const Program& program,
                                                            Uarch uarch,
                                                            const TraceKey& program_key,
                                                            uint64_t digest) {
  const std::pair<uint64_t, Uarch> key{digest, uarch};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // A hit must also match length and the independent check stream:
      // a same-digest different program must never be handed the wrong
      // decoded trace. A mismatch is a collision — fall through to decode
      // and overwrite the colliding entry.
      if (it->second.trace->size() == program.size() &&
          it->second.trace->program_check() == program_key.check) {
        hits_++;
        it->second.referenced = true;
        return it->second.trace;
      }
      collisions_++;
    }
  }
  // Copy the decode outside the lock: concurrent callers acquiring
  // different programs must not serialize on each other.
  auto trace = std::make_shared<const DecodedTrace>(program, program_key.check);
  std::lock_guard<std::mutex> lock(mu_);
  misses_++;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Collision overwrite (or a concurrent decode of the same program beat
    // us here — either way the freshly-decoded trace is the right value).
    it->second = Entry{trace, false};
    return trace;
  }
  if (entries_.size() >= kMaxEntries) {
    EvictOneLocked();
  }
  entries_[key] = Entry{trace, false};
  return trace;
}

void TraceCache::EvictOneLocked() {
  // Second-chance clock: resume the sweep where it last stopped, give every
  // referenced entry one more round (clear the bit, move on), evict the
  // first unreferenced entry. Worst case one full lap (all referenced)
  // degrades to FIFO — still one eviction per insert, never a wipe.
  auto hand = clock_valid_ ? entries_.lower_bound(clock_) : entries_.begin();
  for (;;) {
    if (hand == entries_.end()) {
      hand = entries_.begin();
    }
    if (!hand->second.referenced) {
      break;
    }
    hand->second.referenced = false;
    ++hand;
  }
  auto next = entries_.erase(hand);
  evictions_++;
  if (next == entries_.end()) {
    clock_valid_ = false;
  } else {
    clock_ = next->first;
    clock_valid_ = true;
  }
}

TraceCache::Stats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = entries_.size();
  stats.evictions = evictions_;
  stats.collisions = collisions_;
  return stats;
}

void TraceCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  collisions_ = 0;
}

void TraceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  clock_valid_ = false;
}

}  // namespace specbench
