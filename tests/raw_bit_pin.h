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

#include "sim/metrics.h"

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

/// The pinned part of a simulation report, as raw-bit words: outcome
/// counts, revenue, quoted-price, pick-up-wait, detour, option-count and
/// price-over-floor sums, and the three fleet distances.
inline Words ReportWords(const sim::SimulationReport& r) {
  return {Bits(r.requests_submitted),
          Bits(r.requests_assigned),
          Bits(r.requests_unserved),
          Bits(r.requests_declined),
          Bits(r.requests_completed),
          Bits(r.requests_shared),
          Bits(r.revenue_total),
          Bits(r.quoted_price.sum()),
          Bits(r.pickup_wait_s.sum()),
          Bits(r.detour_ratio.sum()),
          Bits(r.options_per_request.sum()),
          Bits(r.price_over_floor.sum()),
          Bits(r.fleet_total_distance_m),
          Bits(r.fleet_occupied_distance_m),
          Bits(r.fleet_shared_distance_m)};
}

}  // namespace ptrider::pin

#endif  // PTRIDER_TESTS_RAW_BIT_PIN_H_
