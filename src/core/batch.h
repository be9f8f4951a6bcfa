#ifndef PTRIDER_CORE_BATCH_H_
#define PTRIDER_CORE_BATCH_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/ptrider.h"

namespace ptrider::core {

/// Outcome of one request within a dispatched batch.
struct BatchItem {
  vehicle::Request request;
  MatchResult match;
  /// True when the rider accepted an option and it was committed.
  bool assigned = false;
  /// The committed option (meaningful when `assigned`).
  Option chosen;
};

/// The rider-side decision for a batch request: an index into
/// `match.options`, or nullopt to decline (e.g. all options too
/// expensive). The full MatchResult is provided so choosers can price
/// against direct_distance_m without re-running shortest paths — the
/// chooser executes on the sequential commit path, where every saved
/// computation matters.
using BatchChooser = std::function<std::optional<size_t>(
    const vehicle::Request&, const MatchResult& match)>;

/// Per-request quote hook: called once per valid batch request right
/// after its first (phase-1) match is computed — the instant a real
/// service could return the quote to the rider, which is what the
/// service mode's quote-latency percentiles stamp. `worker` is the
/// 0-based matching thread (the dispatcher's WorkerContext index) and is
/// private to one thread per Dispatch call, so observers may record into
/// per-worker state without locks — but calls DO run concurrently across
/// distinct workers. Commit-phase re-matches are not re-observed:
/// the quote a rider saw is the first one.
using MatchObserver = std::function<void(
    size_t worker, const vehicle::Request&, const MatchResult& match)>;

/// One rung of the service-mode graceful-degradation ladder, as seen by a
/// dispatcher (DESIGN.md section 14). Defaults mean "no degradation".
/// The ladder orders the knobs by how much option quality they give up:
/// skipping full re-matches only loses options that appeared *during*
/// the current batch, the probe cap loses long-tail schedule orderings,
/// and empty-vehicle-only loses all ridesharing options.
struct DegradeMode {
  /// Commit-phase reconciliation drops options on in-batch-dirtied
  /// vehicles and falls through to the targeted reprobe instead of
  /// re-running the full matcher (feasible: every surviving option was
  /// computed against a schedule no commit touched).
  bool skip_full_rematch = false;
  /// Reduced matching effort applied to every match in the batch.
  MatchEffort effort;

  bool IsFull() const { return !skip_full_rematch && effort.IsFullEffort(); }
};

/// What every batch dispatcher shares: the paper's greedy semantics for
/// simultaneous requests (Section 2.5) commit requests one at a time in
/// ascending (submit_time, id) order, each commitment visible to every
/// later request. The production dispatcher is
/// dispatch::ParallelDispatcher (DESIGN.md section 5); the tests'
/// sequential reference derives from this class too, so both sort with
/// one definition and their item sequences can never disagree on
/// ordering. Not polymorphic: nothing dispatches through this base.
class Dispatcher {
 public:
  /// The paper's greedy processing order, ascending (submit_time, id).
  static void SortBySubmitOrder(std::vector<vehicle::Request>& batch);

  /// Convenience chooser: always take the earliest pick-up.
  static std::optional<size_t> ChooseEarliest(const vehicle::Request&,
                                              const MatchResult& match);
  /// Convenience chooser: always take the lowest price.
  static std::optional<size_t> ChooseCheapest(const vehicle::Request&,
                                              const MatchResult& match);

  /// Installs (or clears, with an empty function) the per-request quote
  /// hook. Not part of the determinism contract: observers see
  /// wall-clock-ordered calls and must not feed back into dispatch
  /// decisions.
  void SetMatchObserver(MatchObserver observer) {
    observer_ = std::move(observer);
  }

 protected:
  ~Dispatcher() = default;

  MatchObserver observer_;
};

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_BATCH_H_
