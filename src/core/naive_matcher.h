#ifndef PTRIDER_CORE_NAIVE_MATCHER_H_
#define PTRIDER_CORE_NAIVE_MATCHER_H_

#include "core/matcher.h"

namespace ptrider::core {

/// The baseline matching method (Section 3.3): extend the kinetic-tree
/// algorithm [7] directly — evaluate *every* vehicle, inserting the
/// request into its kinetic tree with exact distances, and keep the
/// non-dominated (time, price) pairs. The distances come from the
/// request anchors, as in the indexed matchers (DESIGN.md section 7.5).
class NaiveMatcher {
 public:
  explicit NaiveMatcher(const MatchContext& context) : ctx_(context) {}

  /// Finds all qualified non-dominated options for `request` given the
  /// current vehicle states at time `ctx.now_s`.
  MatchResult Match(const vehicle::Request& request,
                    const vehicle::ScheduleContext& ctx);

 private:
  MatchContext ctx_;
};

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_NAIVE_MATCHER_H_
