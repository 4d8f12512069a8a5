#include "src/util/rng.h"

namespace specbench {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64Next(&sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Multiply-shift rejection-free mapping; bias is negligible for our use.
  return static_cast<uint64_t>((static_cast<__uint128_t>(NextU64()) * bound) >> 64);
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  double sum = 0.0;
  for (int i = 0; i < 12; i++) {
    sum += NextDouble();
  }
  return sum - 6.0;
}

uint64_t Rng::NextInRange(uint64_t lo, uint64_t hi) { return lo + NextBelow(hi - lo + 1); }

}  // namespace specbench
