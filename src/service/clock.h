#ifndef PTRIDER_SERVICE_CLOCK_H_
#define PTRIDER_SERVICE_CLOCK_H_

#include <chrono>
#include <thread>

namespace ptrider::service {

/// The wall-clock service mode's time source (DESIGN.md section 11):
/// wall time since construction in *simulation seconds*, `time_scale`
/// (finite and > 0) of them per wall second. 60 compresses a day into
/// 24 minutes; arrival schedules are in simulation seconds, so scaling
/// the clock scales the whole service, driver included. Thread-safe: the
/// producer thread and the service loop share one instance. Anything
/// stamped from it is measurement, outside every determinism contract.
class WallClock {
 public:
  explicit WallClock(double time_scale = 1.0)
      : scale_(time_scale), start_(Clock::now()) {}

  /// Current simulation time, seconds.
  double NowS() const {
    return scale_ *
           std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Blocks until NowS() >= t.
  void SleepUntilS(double t) const {
    const double wall_target = t / scale_;
    const auto deadline =
        start_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(wall_target));
    std::this_thread::sleep_until(deadline);
  }

 private:
  using Clock = std::chrono::steady_clock;
  double scale_;
  Clock::time_point start_;
};

}  // namespace ptrider::service

#endif  // PTRIDER_SERVICE_CLOCK_H_
