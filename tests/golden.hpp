// Shared pieces of the golden-output tests: the FNV-1a-64 digest, its hex
// form, and the reader for the committed "<cell> <16 hex digits>" files
// under tests/golden/.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ccnopt::golden {

/// 64-bit FNV-1a. Integers are fed little-endian byte by byte, so the
/// digest does not depend on the host's byte order.
class Fnv1a {
 public:
  void bytes(const std::string& text) {
    u64(text.size());
    for (const char c : text) byte(static_cast<unsigned char>(c));
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return state_; }

 private:
  void byte(unsigned char b) {
    state_ ^= b;
    state_ *= 1099511628211ULL;
  }
  std::uint64_t state_ = 14695981039346656037ULL;
};

inline std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// A golden file as (cell name -> hex digest), in file order; '#' lines
/// are comments. An unreadable file fails the calling test.
inline std::vector<std::pair<std::string, std::string>> read_lines(
    const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::pair<std::string, std::string>> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    fields >> name >> digest;
    lines.emplace_back(name, digest);
  }
  return lines;
}

/// The committed digest of `cell` in `path`, or "(missing)".
inline std::string committed_digest(const char* path, const std::string& cell) {
  for (const auto& [name, digest] : read_lines(path)) {
    if (name == cell) return digest;
  }
  return "(missing)";
}

/// Expects `digest` to be the committed line of `cell` in `path`; on a
/// mismatch the failure prints the replacement line.
inline void expect_committed(const char* path, const std::string& cell,
                             std::uint64_t digest) {
  EXPECT_EQ(hex(digest), committed_digest(path, cell))
      << "cell " << cell << " moved; its new line in " << path
      << " would be:\n"
      << cell << " " << hex(digest);
}

}  // namespace ccnopt::golden
