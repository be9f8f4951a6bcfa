// Raw-bit pins for reports whose answer must not move: a report is
// flattened into 64-bit words, doubles by their bit patterns, so a
// change that only reorders a floating-point sum fails the comparison.
// ToInitializer prints the words as a C++ initializer, so a deliberate
// re-recording is a paste (the style of sim_movement_golden_test).

#ifndef PTRIDER_TESTS_RAW_BIT_PIN_H_
#define PTRIDER_TESTS_RAW_BIT_PIN_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ptrider::pin {

using Words = std::vector<uint64_t>;

inline uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }
inline uint64_t Bits(int64_t n) { return static_cast<uint64_t>(n); }
inline uint64_t Bits(uint64_t n) { return n; }

/// `words` as a brace initializer, three words per line.
inline std::string ToInitializer(const Words& words) {
  std::string out = "{";
  for (size_t i = 0; i < words.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(words[i]));
    if (i > 0) out += i % 3 == 0 ? ",\n " : ", ";
    out += buf;
  }
  return out + "}";
}

}  // namespace ptrider::pin

#endif  // PTRIDER_TESTS_RAW_BIT_PIN_H_
