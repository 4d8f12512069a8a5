#include "src/runner/parse.h"

#include <cstdio>

namespace specbench {

namespace {

// The value of hex digit `c` (either case), or -1.
int HexDigit(char c) {
  return c >= '0' && c <= '9'   ? c - '0'
         : c >= 'a' && c <= 'f' ? c - 'a' + 10
         : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                : -1;
}

}  // namespace

bool ParseU64Strict(const std::string& text, uint64_t* out, int base) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    const int digit = c >= 'A' && c <= 'F' ? -1 : HexDigit(c);
    if (digit < 0 || digit >= base ||
        value > (UINT64_MAX - static_cast<uint64_t>(digit)) / static_cast<uint64_t>(base)) {
      return false;
    }
    value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool ParseJobsFlag(const std::string& value, int* jobs) {
  uint64_t parsed = 0;
  if (!ParseU64Strict(value, &parsed) || parsed > static_cast<uint64_t>(kMaxJobs)) {
    std::fprintf(stderr, "--jobs=%s: want a thread count from 0 to %d (0 = all cores)\n",
                 value.c_str(), kMaxJobs);
    return false;
  }
  *jobs = static_cast<int>(parsed);
  return true;
}

std::vector<std::string> SplitList(const std::string& text, char sep) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (end > start) {
      items.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return items;
}

std::string PercentEncode(const std::string& s, bool (*escape)(unsigned char c)) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '%' || escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

bool PercentDecode(const std::string& s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] != '%') {
      out->push_back(s[i]);
      continue;
    }
    const int hi = i + 2 < s.size() ? HexDigit(s[i + 1]) : -1;
    const int lo = i + 2 < s.size() ? HexDigit(s[i + 2]) : -1;
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

}  // namespace specbench
