#include "src/workload/measurement.h"

#include <functional>

#include "src/util/rng.h"

namespace specbench {

double ApplyNoise(double value, uint64_t seed, double sigma) {
  Rng rng(seed);
  return value * (1.0 + sigma * rng.NextGaussian());
}

double NoisyKernel(const std::string& name, double simulated, uint64_t seed, double sigma) {
  return ApplyNoise(simulated, seed ^ std::hash<std::string>{}(name), sigma);
}

std::map<std::string, double> NoisySuite(const std::map<std::string, double>& simulated,
                                         uint64_t seed) {
  std::map<std::string, double> results;
  for (const auto& [name, value] : simulated) {
    results[name] = NoisyKernel(name, value, seed);
  }
  return results;
}

}  // namespace specbench
