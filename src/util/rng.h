// Seeded pseudo-random number generation for deterministic simulation.
//
// The whole of spectrebench is deterministic given a seed: simulated timing
// jitter, workload data, and attack payloads are all drawn from Xoshiro256**
// streams so experiments are reproducible run to run.
#ifndef SPECTREBENCH_SRC_UTIL_RNG_H_
#define SPECTREBENCH_SRC_UTIL_RNG_H_

#include <cstdint>

namespace specbench {

// One step of SplitMix64 (Steele, Lea & Flood; public domain reference
// algorithm): advances `state` and returns the next well-mixed 64-bit value.
// Used wherever a single seed word must be expanded into independent streams
// — Rng seeding, and the sweep runner's per-cell seed derivation.
uint64_t SplitMix64Next(uint64_t* state);

// Xoshiro256** by Blackman & Vigna (public domain reference algorithm).
// Small, fast, and good enough statistical quality for simulation noise.
class Rng {
 public:
  // Seeds the generator. A SplitMix64 pass expands the single seed word into
  // the four state words so that nearby seeds produce unrelated streams.
  explicit Rng(uint64_t seed = 0x5eedbeefcafef00dULL);

  // Next uniformly distributed 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Approximately normal(0, 1) via the sum of 12 uniforms (Irwin-Hall).
  // Bounded to [-6, 6], which is what we want for timing jitter: no flyers.
  double NextGaussian();

  // Convenience: value in [lo, hi] inclusive.
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

 private:
  uint64_t s_[4];
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UTIL_RNG_H_
