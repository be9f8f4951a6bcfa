#ifndef PTRIDER_DISPATCH_PARALLEL_DISPATCHER_H_
#define PTRIDER_DISPATCH_PARALLEL_DISPATCHER_H_

#include <cstdint>
#include <vector>

#include "core/batch.h"
#include "dispatch/worker_pool.h"

namespace ptrider::dispatch {

/// Two-phase batch dispatcher: sharded match, sequential commit.
///
/// Phase 1 (parallel). Every request in the batch is matched
/// concurrently against the frozen pre-batch fleet via
/// core::PTRider::MatchReadOnly — the existing pruning-and-pricing path,
/// untouched. Each worker uses its own DistanceOracle clone; each
/// request sees the pricing/demand state a sequential run would have
/// shown it (demand-sensitive policies are snapshotted per request in
/// submission order before matching starts).
///
/// Phase 2 (sequential). Options are committed in the paper's greedy
/// (submit_time, id) order. A request whose match could have been
/// changed by an earlier in-batch commitment — some committed vehicle's
/// pick-up lower bound reaches into its radius — is re-matched against
/// live state before its rider chooses; all other phase-1 results are
/// provably exact (DESIGN.md section 5). Full re-matches are issued as a
/// wavefront: when one request's options go stale, every later
/// not-yet-committed request whose options are stale too is re-matched
/// in the same parallel sweep, and a per-request watermark into the
/// commit log replaces the all-or-nothing phase-1 staleness test
/// (DESIGN.md section 5.3).
///
/// The result is deterministic and item-for-item identical to matching
/// and committing the requests one at a time, for every chooser, matcher
/// and pricing policy (tests/dispatch_parallel_test.cpp proves it
/// against a sequential reference); threads only buy latency. It is the
/// one batch dispatcher: the simulator's batch windows and every rung of
/// the service ladder run through it.
class ParallelDispatcher : public core::Dispatcher {
 public:
  /// `num_threads` matching threads total, the dispatching thread
  /// included (clamped to >= 1): num_threads - 1 pool workers are
  /// spawned and the caller matches alongside them, so one thread means
  /// no pool at all. The pool and the per-thread contexts persist
  /// across Dispatch calls.
  ParallelDispatcher(core::PTRider& system, size_t num_threads);

  /// Matches and (per `chooser`) commits every request in `batch` at
  /// time `now_s`. Returns one BatchItem per request, in processing
  /// order. A request that fails validation (e.g. s == d), whose id is
  /// already assigned, or whose id repeats an earlier valid request of
  /// the batch is returned unassigned with an empty option list and
  /// records no demand, rather than aborting the batch.
  util::Result<std::vector<core::BatchItem>> Dispatch(
      std::vector<vehicle::Request> batch, double now_s,
      const core::BatchChooser& chooser);

  size_t num_threads() const { return pool_.num_threads(); }

  /// Installs the degradation rung every subsequent Dispatch call runs
  /// under (service-mode ladder, DESIGN.md section 14; the default mode
  /// is full effort). Degraded dispatch stays deterministic and
  /// thread-count-invariant — phase 1 is a pure function of the frozen
  /// pre-batch fleet regardless of how it is sharded, and phase 2 is
  /// sequential — but is NOT item-for-item equal to one-at-a-time
  /// dispatch (it intentionally skips work).
  void SetDegrade(const core::DegradeMode& degrade) { degrade_ = degrade; }

  // --- Diagnostics ---------------------------------------------------------
  /// Commit-phase full re-matches: an earlier in-batch commitment left
  /// stale options in the request's list (each wavefront member counts).
  uint64_t rematch_count() const { return rematch_count_; }
  /// Commit-phase local re-matches: one or more committed vehicles were
  /// re-probed into the request's phase-1 skyline (much cheaper than a
  /// full re-match).
  uint64_t reprobe_count() const { return reprobe_count_; }
  /// Always 0: no batch falls back to another dispatcher (degenerate
  /// ids are refused in phase 0, see Dispatch). Kept because
  /// bench/ptrider_bench prints it.
  uint64_t sequential_fallbacks() const { return 0; }
  /// Parallel wavefront sweeps the full re-matches above were issued in
  /// (one sweep re-matches every concurrently-stale request).
  uint64_t wavefront_batches() const { return wavefront_batches_; }
  /// Cumulative wall-clock of the sharded-match phase — the part that
  /// scales with threads.
  double match_phase_seconds() const { return match_phase_seconds_; }
  /// Cumulative wall-clock of the sequential commit phase (commits,
  /// re-validation, choosers) — the Amdahl floor.
  double commit_phase_seconds() const { return commit_phase_seconds_; }

 private:
  core::PTRider* system_;
  WorkerPool pool_;
  core::DegradeMode degrade_;
  uint64_t rematch_count_ = 0;
  uint64_t reprobe_count_ = 0;
  uint64_t wavefront_batches_ = 0;
  double match_phase_seconds_ = 0.0;
  double commit_phase_seconds_ = 0.0;
};

}  // namespace ptrider::dispatch

#endif  // PTRIDER_DISPATCH_PARALLEL_DISPATCHER_H_
