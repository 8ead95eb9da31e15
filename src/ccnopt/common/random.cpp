#include "ccnopt/common/random.hpp"

namespace ccnopt {

void Mt64::twist() {
  // Word k becomes state[k + m] ^ (y >> 1) ^ (a if y is odd), where y joins
  // the top bit of word k to the low 31 bits of word k + 1 (indices mod n).
  // The three loops split the wrap-arounds out of the index arithmetic:
  // the first reads words m.. not yet rewritten, the second reads words
  // rewritten by the first (as the recurrence requires), the last wraps to
  // word 0. No branch, so each loop vectorizes.
  constexpr std::size_t n = kStateSize;
  constexpr std::size_t m = 156;
  constexpr std::uint64_t kA = 0xB5026F5AA96619E9ULL;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  std::uint64_t* x = state_;
  for (std::size_t k = 0; k < n - m; ++k) {
    const std::uint64_t y = (x[k] & kUpper) | (x[k + 1] & kLower);
    x[k] = x[k + m] ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
  }
  for (std::size_t k = n - m; k < n - 1; ++k) {
    const std::uint64_t y = (x[k] & kUpper) | (x[k + 1] & kLower);
    x[k] = x[k + m - n] ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
  }
  const std::uint64_t y = (x[n - 1] & kUpper) | (x[0] & kLower);
  x[n - 1] = x[m - 1] ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
  next_ = 0;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) {
  // The splitmix64 state is a Weyl sequence (state += golden gamma), so the
  // state before the index-th draw is master + index * gamma; one step from
  // there yields exactly the index-th output of the stream.
  std::uint64_t state = master + index * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

}  // namespace ccnopt
