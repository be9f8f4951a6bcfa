#ifndef PTRIDER_UTIL_VISIT_MARKS_H_
#define PTRIDER_UTIL_VISIT_MARKS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ptrider::util {

/// Epoch-stamped "seen" flags over dense ids. Starting a new pass bumps
/// the epoch instead of clearing, so one instance serves any number of
/// passes without reallocating or touching every id.
class VisitMarks {
 public:
  /// Starts a new pass over ids [0, n): every id reads unseen.
  void Reset(size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    if (++epoch_ == 0) {  // wrapped: hard reset
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks `i` seen; true iff it was unseen in this pass.
  bool Mark(size_t i) {
    if (stamp_[i] == epoch_) return false;
    stamp_[i] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

}  // namespace ptrider::util

#endif  // PTRIDER_UTIL_VISIT_MARKS_H_
