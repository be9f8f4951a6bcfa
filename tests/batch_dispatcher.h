// The sequential reference dispatcher: the paper's greedy handling of
// simultaneous requests (Section 2.5) computed strictly one at a time on
// the calling thread, every request matched against the vehicle state
// all earlier commitments produced. dispatch::ParallelDispatcher must be
// item-for-item equal to it (tests/dispatch_parallel_test.cpp); it lives
// here because nothing outside the tests dispatches through it.
//
// Degenerate ids are outside the comparison: this reference refuses an
// id only while it is assigned (PTRider::SubmitRequest's screen), while
// the parallel dispatcher refuses every repeat of an earlier valid id of
// the batch.

#ifndef PTRIDER_TESTS_BATCH_DISPATCHER_H_
#define PTRIDER_TESTS_BATCH_DISPATCHER_H_

#include <optional>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/ptrider.h"

namespace ptrider::core {

class BatchDispatcher : public Dispatcher {
 public:
  explicit BatchDispatcher(PTRider& system) : system_(&system) {}

  util::Result<std::vector<BatchItem>> Dispatch(
      std::vector<vehicle::Request> batch, double now_s,
      const BatchChooser& chooser) {
    if (!chooser) {
      return util::Status::InvalidArgument("batch dispatch needs a chooser");
    }
    SortBySubmitOrder(batch);
    std::vector<BatchItem> out;
    out.reserve(batch.size());
    for (vehicle::Request& r : batch) {
      BatchItem item;
      item.request = r;
      auto match = system_->SubmitRequest(r, now_s);
      if (!match.ok()) {
        // Invalid individual request: report it unassigned, keep going.
        out.push_back(std::move(item));
        continue;
      }
      item.match = std::move(match).value();
      const std::optional<size_t> pick = chooser(r, item.match);
      if (pick.has_value()) {
        if (*pick >= item.match.options.size()) {
          return util::Status::OutOfRange("chooser returned a bad index");
        }
        const Option& option = item.match.options[*pick];
        PTRIDER_RETURN_IF_ERROR(system_->ChooseOption(r, option, now_s));
        item.assigned = true;
        item.chosen = option;
      }
      out.push_back(std::move(item));
    }
    return out;
  }

 private:
  PTRider* system_;
};

}  // namespace ptrider::core

#endif  // PTRIDER_TESTS_BATCH_DISPATCHER_H_
