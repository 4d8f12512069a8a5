// JSON string escaping shared by the byte-stable JSON emitters (sweep
// results, analyzer and harden reports).
#ifndef SPECTREBENCH_SRC_UTIL_JSON_H_
#define SPECTREBENCH_SRC_UTIL_JSON_H_

#include <string>

namespace specbench {

// `s` escaped for use between the quotes of a JSON string: `"` and `\` are
// backslash-escaped and every control character below 0x20 becomes \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UTIL_JSON_H_
