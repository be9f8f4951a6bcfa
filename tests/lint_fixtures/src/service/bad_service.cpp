// Fixture: service/ code outside clock.h gets no wall-clock exemption —
// only the wall clock there may read machine time, everything else must
// go through service::WallClock so virtual-clock runs stay bit-identical.

#include <chrono>

namespace fixture {

double SneakyDirectRead() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // expect: wall-clock
                 .time_since_epoch())
      .count();
}

}  // namespace fixture
