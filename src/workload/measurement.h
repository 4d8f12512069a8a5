// Shared measurement plumbing for the workload suites.
//
// The simulator is deterministic; real machines are not. To exercise the
// paper's statistical methodology (§4.1: repeat until the 95% CI converges),
// every workload measurement passes through ApplyNoise, which adds a small
// seeded multiplicative jitter — the "couple percent" run-to-run variation
// the paper describes.
//
// The seed never reaches the simulated machine. So each workload splits a
// measurement in two: a Simulate* step that takes no seed, and a noise rule
// that draws one seeded sample around the simulated value. A sampler that
// repeats a configuration simulates it once and then only draws noise.
#ifndef SPECTREBENCH_SRC_WORKLOAD_MEASUREMENT_H_
#define SPECTREBENCH_SRC_WORKLOAD_MEASUREMENT_H_

#include <cstdint>
#include <map>
#include <string>

namespace specbench {

// Default run-to-run noise, relative standard deviation.
inline constexpr double kDefaultNoiseSigma = 0.01;

// Returns value * (1 + sigma * gaussian(seed)).
double ApplyNoise(double value, uint64_t seed, double sigma = kDefaultNoiseSigma);

// The named suites' noise rule: one seeded sample of kernel `name` around its
// simulated value, decorrelated across kernels by hashing the name into the
// seed.
double NoisyKernel(const std::string& name, double simulated, uint64_t seed,
                   double sigma = kDefaultNoiseSigma);

// NoisyKernel over every kernel of a simulated suite (kernel -> value).
std::map<std::string, double> NoisySuite(const std::map<std::string, double>& simulated,
                                         uint64_t seed);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_MEASUREMENT_H_
