#include "src/cpu/paper_expectations.h"

#include "src/util/check.h"

namespace specbench {

namespace {

size_t Index(Uarch uarch) {
  SPECBENCH_CHECK(uarch < Uarch::kCount);
  return static_cast<size_t>(uarch);
}

}  // namespace

PaperTable3Row PaperTable3(Uarch uarch) {
  static const PaperTable3Row kRows[] = {
      {49, 40, 206},            // Broadwell
      {42, 42, 191},            // Skylake Client
      {70, 43, std::nullopt},   // Cascade Lake
      {21, 29, std::nullopt},   // Ice Lake Client
      {45, 32, std::nullopt},   // Ice Lake Server
      {63, 53, std::nullopt},   // Zen
      {53, 46, std::nullopt},   // Zen 2
      {83, 55, std::nullopt},   // Zen 3
  };
  return kRows[Index(uarch)];
}

std::optional<double> PaperTable4(Uarch uarch) {
  static const std::optional<double> kRows[] = {
      610, 518, 458, std::nullopt, std::nullopt, std::nullopt, std::nullopt, std::nullopt,
  };
  return kRows[Index(uarch)];
}

PaperTable5Row PaperTable5(Uarch uarch) {
  static const PaperTable5Row kRows[] = {
      {16, 32, 28, std::nullopt},  // Broadwell
      {11, 15, 19, std::nullopt},  // Skylake Client
      {3, 0, 49, std::nullopt},    // Cascade Lake
      {5, 0, 21, std::nullopt},    // Ice Lake Client
      {1, 1, 50, std::nullopt},    // Ice Lake Server
      {30, std::nullopt, 25, 28},  // Zen (no IBRS)
      {3, 13, 14, 0},              // Zen 2
      {23, 19, 13, 18},            // Zen 3
  };
  return kRows[Index(uarch)];
}

double PaperTable6Ibpb(Uarch uarch) {
  static const double kRows[] = {5600, 4500, 340, 2500, 840, 7400, 1100, 800};
  return kRows[Index(uarch)];
}

double PaperTable7RsbStuff(Uarch uarch) {
  static const double kRows[] = {130, 130, 120, 40, 69, 114, 68, 94};
  return kRows[Index(uarch)];
}

double PaperTable8Lfence(Uarch uarch) {
  static const double kRows[] = {28, 20, 15, 8, 13, 48, 4, 30};
  return kRows[Index(uarch)];
}

std::string PaperTable9(Uarch uarch) {
  static const char* const kRows[] = {
      "yyyyy",  // Broadwell
      "yyyyy",  // Skylake Client
      "nyyyy",  // Cascade Lake
      "nyyyy",  // Ice Lake Client
      "nyyyy",  // Ice Lake Server
      "yyyyy",  // Zen
      "yyyyy",  // Zen 2
      "nnnnn",  // Zen 3
  };
  return kRows[Index(uarch)];
}

std::string PaperTable10(Uarch uarch) {
  static const char* const kRows[] = {
      "nnnnn",  // Broadwell
      "nnnnn",  // Skylake Client
      "nyyyy",  // Cascade Lake
      "nynyn",  // Ice Lake Client
      "nyyyy",  // Ice Lake Server
      "N/A",    // Zen (no IBRS)
      "nnnnn",  // Zen 2
      "nnnnn",  // Zen 3
  };
  return kRows[Index(uarch)];
}

std::optional<Band> PaperFigure2Total(Uarch uarch) {
  // Broadwell, Skylake Client, Cascade Lake, Ice Lake Client, Ice Lake
  // Server, Zen, Zen 2, Zen 3.
  static const std::optional<Band> kRows[] = {
      AtLeast(30.0), AtLeast(30.0), std::nullopt, AtMost(3.0),
      AtMost(3.0),   std::nullopt,  std::nullopt, AtMost(3.0),
  };
  return kRows[Index(uarch)];
}

}  // namespace specbench
