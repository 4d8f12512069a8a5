// Strict parsers (and the matching encoder) for values that arrive from
// outside the program: command-line flags, service request lines and
// checkpoint journals. Malformed input is rejected, never defaulted.
#ifndef SPECTREBENCH_SRC_RUNNER_PARSE_H_
#define SPECTREBENCH_SRC_RUNNER_PARSE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace specbench {

// Whole-string unsigned number in `base` (10, or 16 with lowercase digits):
// digits only (no sign, space or trailing garbage), no overflow.
bool ParseU64Strict(const std::string& text, uint64_t* out, int base = 10);

// A `--jobs=` value: a decimal in [0, INT_MAX], 0 meaning all cores
// (ThreadCountForJobs). Anything else prints the one-line
// "--jobs=<value>: ..." diagnostic to stderr and returns false; the caller
// exits 2.
bool ParseJobsFlag(const std::string& value, int* jobs);

// The non-empty items of a `sep`-separated list ("a,,b," -> {a, b}).
std::vector<std::string> SplitList(const std::string& text, char sep = ',');

// "%xx" (lowercase hex) for '%' and for every byte `escape` selects, so a
// value can ride inside a delimited record (journal fields, request tokens).
std::string PercentEncode(const std::string& s, bool (*escape)(unsigned char c));

// Inverse of PercentEncode (either hex case); false on a truncated or
// non-hex escape.
bool PercentDecode(const std::string& s, std::string* out);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_RUNNER_PARSE_H_
