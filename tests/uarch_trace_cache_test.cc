// Regression tests for the decoded-trace cache's bounded eviction and
// collision guard (src/uarch/decoded_trace.h).
//
// Two latent bugs are pinned here:
//  1. Capacity used to be enforced by dropping the *whole* table once
//     kMaxEntries distinct keys were live, so a long heterogeneous sweep
//     lost its hot working set every 4096 programs (re-decode stampede).
//     Eviction is now second-chance, one victim per insert; a hot set that
//     keeps getting referenced must survive an arbitrarily long cold stream.
//  2. A hit used to be validated by program *length* only, so two
//     same-length programs colliding on Program::Digest would silently
//     execute each other's decoded trace. A hit now also verifies the
//     independent Digest2 stream.
//
// Also pins the hit/miss accounting on fuzz-generator programs.
#include "src/uarch/decoded_trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/difftest/generator.h"
#include "src/isa/program.h"

namespace specbench {
namespace {

// A tiny program whose digest is unique per `tag`.
Program TaggedProgram(int64_t tag) {
  ProgramBuilder b;
  b.MovImm(0, tag);
  b.Halt();
  return b.Build();
}

class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCache::Global().Clear();
    TraceCache::Global().ResetStats();
  }
  void TearDown() override {
    TraceCache::Global().Clear();
    TraceCache::Global().ResetStats();
  }
};

TEST_F(TraceCacheTest, NoEvictionsWithinCapacity) {
  TraceCache& cache = TraceCache::Global();
  for (int64_t i = 0; i < 64; i++) {
    cache.Acquire(TaggedProgram(i), Uarch::kZen3);
  }
  const TraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 64u);
  EXPECT_EQ(stats.misses, 64u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.collisions, 0u);
}

TEST_F(TraceCacheTest, CapacityIsEnforcedOneEvictionPerInsert) {
  TraceCache& cache = TraceCache::Global();
  const size_t overflow = 512;
  for (size_t i = 0; i < TraceCache::kMaxEntries + overflow; i++) {
    cache.Acquire(TaggedProgram(static_cast<int64_t>(i)), Uarch::kZen3);
  }
  const TraceCache::Stats stats = cache.stats();
  // The table never exceeds the bound and never drops below it either: each
  // over-capacity insert evicted exactly one victim, not the whole table.
  EXPECT_EQ(stats.entries, TraceCache::kMaxEntries);
  EXPECT_EQ(stats.evictions, overflow);
}

TEST_F(TraceCacheTest, HotWorkingSetSurvivesColdStream) {
  TraceCache& cache = TraceCache::Global();
  constexpr int64_t kHot = 64;
  // Establish the hot set.
  for (int64_t h = 0; h < kHot; h++) {
    cache.Acquire(TaggedProgram(h), Uarch::kZen3);
  }
  // Stream 4x capacity of cold keys, re-touching the hot set between cold
  // bursts the way a sweep's repeated cells do. With wholesale clearing the
  // hot set would be dumped at every capacity boundary; with second-chance
  // its referenced bits keep it resident.
  uint64_t hot_touches = 0;  // counted once the distinct keys exceed capacity
  uint64_t hot_hits = 0;
  int64_t next_cold = kHot;
  for (int burst = 0; burst < 4 * static_cast<int>(TraceCache::kMaxEntries) / 256; burst++) {
    for (int c = 0; c < 256; c++) {
      cache.Acquire(TaggedProgram(next_cold++), Uarch::kZen3);
    }
    const bool past_capacity = static_cast<size_t>(next_cold) > TraceCache::kMaxEntries;
    const uint64_t hits_before = cache.stats().hits;
    for (int64_t h = 0; h < kHot; h++) {
      cache.Acquire(TaggedProgram(h), Uarch::kZen3);
    }
    if (past_capacity) {
      hot_touches += kHot;
      hot_hits += cache.stats().hits - hits_before;
    }
  }
  // No cliff at the capacity boundary: at least 95% of the hot touches past
  // it hit (in fact all of them do).
  ASSERT_GT(hot_touches, 0u);
  EXPECT_GE(static_cast<double>(hot_hits), 0.95 * static_cast<double>(hot_touches))
      << hot_hits << " of " << hot_touches << " hot touches hit past capacity";
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().entries, TraceCache::kMaxEntries);
}

TEST_F(TraceCacheTest, SameLengthDigestCollisionIsDetected) {
  TraceCache& cache = TraceCache::Global();
  // Two different programs of identical length. Force them onto one cache
  // bucket by overriding the key digest — the pre-fix cache compared only
  // lengths on hit, so the second acquire returned the first program's
  // decoded trace.
  ProgramBuilder a;
  a.MovImm(0, 1);
  a.Alu(AluOp::kAdd, 2, 0, 1);  // reads r0, r1
  a.Halt();
  const Program program_a = a.Build();
  ProgramBuilder b;
  b.MovImm(0, 1);
  b.Load(2, MemRef{3, 4, 1, 0});  // reads r3 (base), r4 (index)
  b.Halt();
  const Program program_b = b.Build();
  ASSERT_EQ(program_a.size(), program_b.size());
  ASSERT_NE(program_a.Digest2(), program_b.Digest2());

  constexpr uint64_t kForcedDigest = 0xdeadbeefcafef00dULL;
  const auto trace_a =
      cache.AcquireWithDigestForTesting(program_a, Uarch::kZen3, kForcedDigest);
  const auto trace_b =
      cache.AcquireWithDigestForTesting(program_b, Uarch::kZen3, kForcedDigest);

  // Each program must get a decode of *itself*, not of the bucket occupant.
  EXPECT_EQ(trace_a->program_check(), program_a.Digest2());
  EXPECT_EQ(trace_b->program_check(), program_b.Digest2());
  EXPECT_EQ(trace_a->op(1).cls, StepClass::kCompute);
  EXPECT_EQ(trace_b->op(1).cls, StepClass::kMemory);
  EXPECT_EQ(trace_b->op(1).num_srcs, 2);
  EXPECT_EQ(trace_b->op(1).srcs[0], 3);
  EXPECT_EQ(trace_b->op(1).srcs[1], 4);

  const TraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // The collision overwrote the bucket: program_b is now resident and a
  // re-acquire of it is a genuine (checked) hit.
  const auto trace_b2 =
      cache.AcquireWithDigestForTesting(program_b, Uarch::kZen3, kForcedDigest);
  EXPECT_EQ(trace_b2.get(), trace_b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(TraceCacheTest, DistinctUarchesAreDistinctKeys) {
  TraceCache& cache = TraceCache::Global();
  const Program p = TaggedProgram(7);
  const auto t1 = cache.Acquire(p, Uarch::kZen3);
  const auto t2 = cache.Acquire(p, Uarch::kBroadwell);
  EXPECT_NE(t1.get(), t2.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.Acquire(p, Uarch::kZen3).get(), t1.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- Hit/miss accounting on generator programs ------------------------------

TEST(TraceCache, CountsHitsAndMissesPerProgramAndUarch) {
  TraceCache& cache = TraceCache::Global();
  cache.Clear();
  cache.ResetStats();

  const Program a = GenerateProgram(1001, GeneratorOptions{});
  const Program b = GenerateProgram(1002, GeneratorOptions{});

  auto t1 = cache.Acquire(a, Uarch::kSkylakeClient);  // miss
  auto t2 = cache.Acquire(a, Uarch::kSkylakeClient);  // hit: same key
  auto t3 = cache.Acquire(a, Uarch::kZen2);           // miss: new uarch
  auto t4 = cache.Acquire(b, Uarch::kSkylakeClient);  // miss: new program
  EXPECT_EQ(t1.get(), t2.get());
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_NE(t1.get(), t4.get());

  const TraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_NEAR(stats.hit_rate(), 0.25, 1e-9);
}

TEST(TraceCache, IdenticalProgramsShareOneEntry) {
  TraceCache& cache = TraceCache::Global();
  cache.Clear();
  cache.ResetStats();
  // Two separately generated but identical programs digest to the same key.
  const Program a = GenerateProgram(42, GeneratorOptions{});
  const Program b = GenerateProgram(42, GeneratorOptions{});
  EXPECT_EQ(a.Digest(), b.Digest());
  auto t1 = cache.Acquire(a, Uarch::kZen3);
  auto t2 = cache.Acquire(b, Uarch::kZen3);
  EXPECT_EQ(t1.get(), t2.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TraceCache, DifferentProgramsGetDifferentDigests) {
  const Program a = GenerateProgram(1, GeneratorOptions{});
  const Program b = GenerateProgram(2, GeneratorOptions{});
  EXPECT_NE(a.Digest(), b.Digest());
}

}  // namespace
}  // namespace specbench
