#include "dispatch/parallel_dispatcher.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/distance_providers.h"
#include "core/dominance.h"
#include "core/matcher.h"
#include "util/timer.h"

namespace ptrider::dispatch {

ParallelDispatcher::ParallelDispatcher(core::PTRider& system,
                                       size_t num_threads)
    : system_(&system),
      pool_(system, num_threads),
      max_pairs_(kAnchorBudgetBytes /
                 roadnet::DistanceOracle::AnchorPair::PairBytes(
                     system.graph())) {}

util::Result<std::vector<core::BatchItem>> ParallelDispatcher::Dispatch(
    std::vector<vehicle::Request> batch, double now_s,
    const core::BatchChooser& chooser) {
  if (!chooser) {
    return util::Status::InvalidArgument("batch dispatch needs a chooser");
  }
  core::Dispatcher::SortBySubmitOrder(batch);
  const size_t n = batch.size();

  // --- Phase 0: validation, demand records, pricing snapshots -------------
  // One-at-a-time dispatch records each valid request's demand signal
  // just before matching it, so request i is quoted under i recorded
  // arrivals. Replay the records here in the same order, snapshotting
  // demand-sensitive policies after each one; stateless policies are
  // shared directly (their quotes cannot change mid-batch).
  pricing::PricingPolicy& live_policy = system_->pricing_policy();
  // Quote-time decay: even a batch with no valid request brings the
  // demand window current, so no quote (or rate read) after a lull pays
  // a stale surge. RecordRequest decays too, so the replay below is
  // unaffected.
  live_policy.Decay(now_s);
  const bool snapshot_pricing = live_policy.HasDemandState();
  std::vector<util::Status> valid(n);
  std::vector<std::unique_ptr<pricing::PricingPolicy>> snapshots(
      snapshot_pricing ? n : 0);
  // Degenerate ids (the simulator and the service never produce them):
  // a request whose id is already assigned, or repeats the id of an
  // earlier valid request of this batch, is refused here, like an
  // invalid one. Refusing every later copy, whatever became of the
  // first, keeps the verdict independent of phase-2 commits — state
  // phase 1 cannot see.
  std::unordered_set<vehicle::RequestId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    valid[i] = system_->ValidateRequest(batch[i]);
    if (!valid[i].ok()) continue;
    if (system_->IsAssigned(batch[i].id) || !ids.insert(batch[i].id).second) {
      valid[i] = util::Status::AlreadyExists("request id already in use");
      continue;
    }
    live_policy.RecordRequest(now_s);
    if (snapshot_pricing) snapshots[i] = live_policy.SnapshotForQuote();
  }
  // Request i's sequential-order pricing view (valid requests only).
  const auto pricing_of = [&](size_t i) -> const pricing::PricingPolicy& {
    return snapshot_pricing ? *snapshots[i] : live_policy;
  };

  // Request i's anchor pair, or null past the budget. Chosen by
  // position, so every match and commit of request i resumes the same
  // searches whichever worker runs it.
  if (pairs_.size() < std::min(n, max_pairs_)) {
    pairs_.resize(std::min(n, max_pairs_));
  }
  const auto pair_of = [&](size_t i) {
    return i < pairs_.size() ? &pairs_[i] : nullptr;
  };

  // --- Phase 1: sharded match against the frozen fleet --------------------
  // No system state mutates until phase 2, so the fleet/grid/index reads
  // all observe the pre-batch snapshot. The workers hold only the const
  // SnapshotView: they cannot mutate the system by construction.
  std::vector<core::MatchResult> matches(n);
  const core::SnapshotView frozen = system_->Frozen();
  util::WallTimer phase_timer;
  // Contiguous chunks (~2 per thread): the batch is sorted by submit
  // time, so neighbors are often spatially close and their shortest
  // paths land in the same worker's distance cache.
  const size_t chunk = std::max<size_t>(1, n / (2 * pool_.num_threads()));
  pool_.ParallelFor(
      n,
      [&](size_t i, WorkerContext& context) {
        if (!valid[i].ok()) return;
        const roadnet::DistanceOracle::AnchorLoan loan(context.oracle(),
                                                       pair_of(i));
        matches[i] = frozen.MatchReadOnly(batch[i], now_s, context.oracle(),
                                          &pricing_of(i), &degrade_.effort);
        if (observer_) observer_(context.index(), batch[i], matches[i]);
      },
      chunk);
  match_phase_seconds_ += phase_timer.ElapsedSeconds();
  phase_timer.Restart();

  // --- Phase 2: sequential commit in (submit_time, id) order --------------
  const roadnet::GridIndex& grid = system_->grid();
  const roadnet::Weight radius = system_->config().MaxPickupRadiusM();
  const bool dual_side =
      system_->config().matcher == core::MatcherAlgorithm::kDualSide;
  // The commit log: every committed vehicle, in commit order, re-pushed
  // on every commit that touches it again. dirty_epoch[v] is the 1-based
  // position of v's LATEST entry (0 = clean); watermark[i] is the log
  // length request i's match was last computed against (0 = the phase-1
  // snapshot). An option is stale iff its vehicle committed after the
  // request's watermark — exactly the DESIGN.md section 5 test, with
  // "phase-1 snapshot" generalized to "watermark snapshot".
  std::vector<vehicle::VehicleId> dirty;
  std::vector<uint32_t> dirty_epoch(system_->fleet().size(), 0);
  std::vector<size_t> watermark(n, 0);
  std::vector<size_t> wave;

  const auto is_stale = [&](size_t j) {
    for (const core::Option& o : matches[j].options) {
      if (dirty_epoch[static_cast<size_t>(o.vehicle)] > watermark[j]) {
        return true;
      }
    }
    return false;
  };

  // The wavefront (DESIGN.md section 5.3): when request i's options went
  // stale, every later not-yet-committed request whose options are stale
  // too will need the same full re-match at its own turn — their matches
  // are independent read-only computations against the same live state,
  // so issue them all in one parallel sweep instead of one at a time.
  // Each member's watermark advances to the current log length: commits
  // made after the sweep are reconciled incrementally at its turn, like
  // any phase-1 result. Every commit updated the vehicle index at once,
  // so the re-matches read current lists.
  const auto wavefront = [&](size_t i) {
    wave.clear();
    for (size_t j = i; j < n; ++j) {
      if (!valid[j].ok()) continue;
      if (matches[j].direct_distance_m == roadnet::kInfWeight) continue;
      if (is_stale(j)) wave.push_back(j);
    }
    pool_.ParallelFor(
        wave.size(),
        [&](size_t k, WorkerContext& context) {
          const size_t j = wave[k];
          const roadnet::DistanceOracle::AnchorLoan loan(context.oracle(),
                                                         pair_of(j));
          matches[j] =
              system_->MatchReadOnly(batch[j], now_s, context.oracle(),
                                     &pricing_of(j), &degrade_.effort);
        },
        /*chunk=*/1);
    rematch_count_ += wave.size();
    ++wavefront_batches_;
    const size_t mark = dirty.size();
    for (const size_t j : wave) watermark[j] = mark;
  };

  // Reconciles request i's watermark-snapshot match with the commits
  // made after it. Three cases, each preserving item-for-item equality
  // with one-at-a-time dispatch (DESIGN.md section 5):
  //
  //   * A post-watermark-committed vehicle appears in the option list —
  //     its offers are stale, and dropping them could resurrect options
  //     they dominated. Full re-match against live state (as a
  //     wavefront, see above): `refresh`.
  //   * A post-watermark-committed vehicle could newly contribute: its
  //     live pick-up lower bound is inside the radius and the snapshot
  //     skyline does not strictly dominate everything it could still
  //     offer (the same time/price-lemma prunes the matchers run, with
  //     admissible bounds over live schedules and this request's
  //     sequential-order pricing view). Cheap local re-match: re-probe
  //     just that vehicle's kinetic tree into the skyline — every other
  //     vehicle's candidates are untouched, so the merged non-dominated
  //     set equals a live full match: `reprobe`.
  //   * Neither — commits only append stops, so a vehicle outside these
  //     tests contributed nothing at the watermark and can contribute
  //     nothing now. The snapshot result is exact as-is.
  //
  // Unreachable destinations skip both: their options are empty
  // regardless of fleet state.
  const auto refresh = [&](size_t i) {
    core::MatchResult& m = matches[i];
    if (m.direct_distance_m == roadnet::kInfWeight) return;
    if (degrade_.skip_full_rematch) {
      // Ladder rung: drop stale options on in-batch-dirtied vehicles
      // instead of re-running the full matcher. Every surviving option
      // was computed against a schedule no commit touched, so committing
      // one remains exactly as safe as in the full path; what is lost is
      // the chance to resurrect options the dropped ones dominated.
      m.options.erase(
          std::remove_if(
              m.options.begin(), m.options.end(),
              [&](const core::Option& o) {
                return dirty_epoch[static_cast<size_t>(o.vehicle)] >
                       watermark[i];
              }),
          m.options.end());
    } else if (is_stale(i)) {
      wavefront(i);
    }
  };
  const auto reprobe = [&](size_t i, const pricing::PricingPolicy& pricing) {
    core::MatchResult& m = matches[i];
    if (m.direct_distance_m == roadnet::kInfWeight) return;
    // Every committed vehicle carries at least one pending request now,
    // so under empty-vehicle-only matching none of them may contribute.
    if (degrade_.effort.empty_vehicle_only) return;
    const vehicle::Request& r = batch[i];
    core::Skyline skyline;
    bool reprobing = false;
    const double floor =
        pricing.MinPrice(r.num_riders, m.direct_distance_m);
    for (size_t k = watermark[i]; k < dirty.size(); ++k) {
      const vehicle::VehicleId id = dirty[k];
      // Only the latest commit-log entry of each vehicle is live; probe
      // once against its current schedule.
      if (dirty_epoch[static_cast<size_t>(id)] != k + 1) continue;
      const vehicle::Vehicle& v = system_->fleet().at(id);
      const roadnet::Weight t_lb =
          core::VehiclePickupLowerBound(grid, v, r.start);
      if (t_lb > radius) continue;
      // Once re-probing started, test against the growing skyline (its
      // new members are live options and cover just as soundly).
      const std::vector<core::Option>& kept =
          reprobing ? skyline.options() : m.options;
      if (core::OptionsCover(kept, t_lb, floor)) continue;
      if (dual_side &&
          core::OptionsCover(
              kept, t_lb,
              pricing.PriceWithDetourLb(
                  r.num_riders,
                  core::VehicleDetourLowerBound(grid, v, r,
                                                m.direct_distance_m),
                  m.direct_distance_m))) {
        continue;
      }
      if (!reprobing) {
        reprobing = true;
        ++reprobe_count_;
        for (core::Option& o : m.options) skyline.Add(std::move(o));
      }
      const roadnet::DistanceOracle::AnchorScope anchors(
          system_->oracle(), r.start, r.destination);
      core::IndexedDistanceProvider dist(system_->oracle(), grid);
      EvaluateVehicle(v, r, system_->MakeScheduleContext(now_s), dist,
                      pricing, m.direct_distance_m, radius, skyline, m,
                      core::ScreenPrice::kDetourLb,
                      degrade_.effort.max_probe_branches);
    }
    if (reprobing) m.options = skyline.TakeSorted();
  };

  std::vector<core::BatchItem> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core::BatchItem item;
    item.request = batch[i];
    if (!valid[i].ok()) {
      // Invalid individual request: report it unassigned, keep going.
      out.push_back(std::move(item));
      continue;
    }
    // The wavefront lends pairs to the workers, so it runs before
    // request i's pair moves to the system oracle, where its re-probes
    // and its commit resume the searches its match ran.
    if (dirty.size() > watermark[i]) refresh(i);
    const roadnet::DistanceOracle::AnchorLoan loan(system_->oracle(),
                                                   pair_of(i));
    if (dirty.size() > watermark[i]) reprobe(i, pricing_of(i));
    item.match = std::move(matches[i]);
    const std::optional<size_t> pick = chooser(batch[i], item.match);
    if (pick.has_value()) {
      if (*pick >= item.match.options.size()) {
        return util::Status::OutOfRange("chooser returned a bad index");
      }
      const core::Option& option = item.match.options[*pick];
      // The option was computed against the exact live schedule of its
      // vehicle (watermark-snapshot result only when no later commit
      // touched it), so the commitment cannot race; surface any failure.
      PTRIDER_RETURN_IF_ERROR(
          system_->ChooseOption(batch[i], option, now_s));
      item.assigned = true;
      item.chosen = option;
      dirty.push_back(option.vehicle);
      dirty_epoch[static_cast<size_t>(option.vehicle)] =
          static_cast<uint32_t>(dirty.size());
    }
    out.push_back(std::move(item));
  }
  commit_phase_seconds_ += phase_timer.ElapsedSeconds();
  return out;
}

}  // namespace ptrider::dispatch
