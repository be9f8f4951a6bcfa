#include "dispatch/parallel_dispatcher.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/distance_providers.h"
#include "core/dominance.h"
#include "core/matcher.h"
#include "dispatch/reindex.h"
#include "util/timer.h"

namespace ptrider::dispatch {

ParallelDispatcher::ParallelDispatcher(core::PTRider& system,
                                       size_t num_threads)
    : system_(&system), sequential_(system), pool_(system, num_threads) {}

util::Result<std::vector<core::BatchItem>> ParallelDispatcher::Dispatch(
    std::vector<vehicle::Request> batch, double now_s,
    const core::BatchChooser& chooser) {
  if (!chooser) {
    return util::Status::InvalidArgument("batch dispatch needs a chooser");
  }
  if (PrepareMatch(std::move(batch), now_s)) RunMatch();
  return CommitMatch(chooser);
}

bool ParallelDispatcher::PrepareMatch(std::vector<vehicle::Request> batch,
                                      double now_s) {
  staged_ = Staged{};
  staged_.now_s = now_s;
  core::Dispatcher::SortBySubmitOrder(batch);
  const size_t n = batch.size();

  // Id corner cases (a request id already assigned, or the same id twice
  // in one batch) make SubmitRequest's AlreadyExists screen depend on
  // which earlier batch members committed — state phase 1 cannot see.
  // They cannot occur in normal operation (the simulator issues unique
  // ids); route such batches through the sequential reference wholesale.
  // Checked before any pricing mutation so the fallback replays the
  // exact sequence the reference would have.
  {
    std::unordered_set<vehicle::RequestId> ids;
    ids.reserve(n);
    for (const vehicle::Request& r : batch) {
      if (system_->IsAssigned(r.id) || !ids.insert(r.id).second) {
        staged_.batch = std::move(batch);
        staged_.fallback = true;
        staged_.armed = true;
        return false;
      }
    }
  }

  // --- Phase 0: validation, demand records, pricing snapshots -------------
  // Sequential dispatch records each valid request's demand signal just
  // before matching it, so request i is quoted under i recorded
  // arrivals. Replay the records here in the same order, snapshotting
  // demand-sensitive policies after each one; stateless policies are
  // shared directly (their quotes cannot change mid-batch).
  pricing::PricingPolicy& live_policy = system_->pricing_policy();
  // Quote-time decay: even a batch with no valid request brings the
  // demand window current, so no quote (or rate read) after a lull pays
  // a stale surge. RecordRequest decays too, so the replay below is
  // unaffected.
  live_policy.Decay(now_s);
  staged_.snapshot_pricing = live_policy.HasDemandState();
  staged_.valid.resize(n);
  staged_.snapshots.resize(staged_.snapshot_pricing ? n : 0);
  for (size_t i = 0; i < n; ++i) {
    staged_.valid[i] = system_->ValidateRequest(batch[i]);
    if (!staged_.valid[i].ok()) continue;
    live_policy.RecordRequest(now_s);
    if (staged_.snapshot_pricing) {
      staged_.snapshots[i] = live_policy.SnapshotForQuote();
    }
  }
  staged_.matches.assign(n, core::MatchResult{});
  staged_.batch = std::move(batch);
  staged_.armed = true;
  return true;
}

void ParallelDispatcher::RunMatch() {
  if (!staged_.armed || staged_.fallback) return;
  const size_t n = staged_.batch.size();
  if (n == 0) return;

  // --- Phase 1: sharded match against the frozen fleet --------------------
  // No system state mutates until CommitMatch, so the fleet/grid/index
  // reads all observe the pre-batch snapshot — which is why the pipeline
  // driver may run this stage concurrently with the movement advance
  // (both read frozen state; DESIGN.md section 15). The stage holds only
  // the const SnapshotView: it cannot mutate the system by construction.
  const core::SnapshotView frozen = system_->Frozen();
  const pricing::PricingPolicy* live_policy = &system_->pricing_policy();
  util::WallTimer phase_timer;
  // Contiguous chunks (~2 per thread): the batch is sorted by submit
  // time, so neighbors are often spatially close and their shortest
  // paths land in the same worker's distance cache.
  const size_t chunk = std::max<size_t>(1, n / (2 * pool_.num_threads()));
  pool_.ParallelFor(
      n,
      [&](size_t i, WorkerContext& context) {
        if (!staged_.valid[i].ok()) return;
        const pricing::PricingPolicy* pricing =
            staged_.snapshot_pricing ? staged_.snapshots[i].get()
                                     : live_policy;
        staged_.matches[i] =
            frozen.MatchReadOnly(staged_.batch[i], staged_.now_s,
                                 context.oracle(), pricing,
                                 &degrade_.effort);
        if (observer_) {
          observer_(context.index(), staged_.batch[i], staged_.matches[i]);
        }
      },
      chunk);
  match_phase_seconds_ += phase_timer.ElapsedSeconds();
}

util::Result<std::vector<core::BatchItem>> ParallelDispatcher::CommitMatch(
    const core::BatchChooser& chooser) {
  if (!chooser) {
    return util::Status::InvalidArgument("batch dispatch needs a chooser");
  }
  if (!staged_.armed) {
    return util::Status::FailedPrecondition(
        "CommitMatch without a PrepareMatch");
  }
  staged_.armed = false;
  if (staged_.fallback) {
    ++sequential_fallbacks_;
    sequential_.SetMatchObserver(observer_);
    return sequential_.Dispatch(std::move(staged_.batch), staged_.now_s,
                                chooser);
  }

  const double now_s = staged_.now_s;
  const size_t n = staged_.batch.size();
  std::vector<vehicle::Request>& batch = staged_.batch;
  std::vector<core::MatchResult>& matches = staged_.matches;
  pricing::PricingPolicy& live_policy = system_->pricing_policy();
  util::WallTimer phase_timer;

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

  // Commit-side index re-registrations are queued (in commit order) and
  // applied shard-concurrently at the next point something reads the
  // index: a wavefront re-match below, or the end of the batch. The
  // local re-probe path reads the fleet directly, so runs of
  // re-probe-only commits never force a flush (DESIGN.md section 10).
  std::vector<vehicle::PendingUpdate> pending_reindex;
  const auto flush_reindex = [&] {
    ApplyReindex(system_->vehicle_index(), pending_reindex, &pool_);
    pending_reindex.clear();
  };

  const auto is_stale = [&](size_t j) {
    for (const core::Option& o : matches[j].options) {
      if (dirty_epoch[static_cast<size_t>(o.vehicle)] > watermark[j]) {
        return true;
      }
    }
    return false;
  };

  // The wavefront (DESIGN.md section 15): when request i's options went
  // stale, every later not-yet-committed request whose options are stale
  // too will need the same full re-match at its own turn — their matches
  // are independent read-only computations against the same live state,
  // so issue them all in one parallel sweep instead of one at a time.
  // Each member's watermark advances to the current log length: commits
  // made after the sweep are reconciled incrementally at its turn, like
  // any phase-1 result.
  const auto wavefront = [&](size_t i) {
    flush_reindex();  // the re-matches walk the vehicle index
    wave.clear();
    for (size_t j = i; j < n; ++j) {
      if (!staged_.valid[j].ok()) continue;
      if (matches[j].direct_distance_m == roadnet::kInfWeight) continue;
      if (is_stale(j)) wave.push_back(j);
    }
    pool_.ParallelFor(
        wave.size(),
        [&](size_t k, WorkerContext& context) {
          const size_t j = wave[k];
          const pricing::PricingPolicy* pricing =
              staged_.snapshot_pricing ? staged_.snapshots[j].get()
                                       : &live_policy;
          matches[j] =
              system_->MatchReadOnly(batch[j], now_s, context.oracle(),
                                     pricing, &degrade_.effort);
        },
        /*chunk=*/1);
    rematch_count_ += wave.size();
    ++wavefront_batches_;
    const size_t mark = dirty.size();
    for (const size_t j : wave) watermark[j] = mark;
  };

  // Reconciles request i's watermark-snapshot match with the commits
  // made after it. Three cases, each preserving item-for-item equality
  // with the sequential dispatcher (DESIGN.md section 5):
  //
  //   * A post-watermark-committed vehicle appears in the option list —
  //     its offers are stale, and dropping them could resurrect options
  //     they dominated. Full re-match against live state (as a
  //     wavefront, see above).
  //   * A post-watermark-committed vehicle could newly contribute: its
  //     live pick-up lower bound is inside the radius and the snapshot
  //     skyline does not strictly dominate everything it could still
  //     offer (the same time/price-lemma prunes the matchers run, with
  //     admissible bounds over live schedules and this request's
  //     sequential-order pricing view). Cheap local re-match: re-probe
  //     just that vehicle's kinetic tree into the skyline — every other
  //     vehicle's candidates are untouched, so the merged non-dominated
  //     set equals a live full match.
  //   * Neither — commits only append stops, so a vehicle outside these
  //     tests contributed nothing at the watermark and can contribute
  //     nothing now. The snapshot result is exact as-is.
  const auto reconcile = [&](size_t i,
                             const pricing::PricingPolicy& pricing) {
    core::MatchResult& m = matches[i];
    // Unreachable destination: empty options regardless of fleet state.
    if (m.direct_distance_m == roadnet::kInfWeight) return;
    const vehicle::Request& r = batch[i];
    if (degrade_.skip_full_rematch) {
      // Ladder rung: drop stale options on in-batch-dirtied vehicles
      // instead of re-running the full matcher. Every surviving option
      // was computed against a schedule no commit touched, so committing
      // one remains exactly as safe as in the full path; what is lost is
      // the chance to resurrect options the dropped ones dominated.
      const size_t before = m.options.size();
      m.options.erase(
          std::remove_if(
              m.options.begin(), m.options.end(),
              [&](const core::Option& o) {
                return dirty_epoch[static_cast<size_t>(o.vehicle)] >
                       watermark[i];
              }),
          m.options.end());
      if (m.options.size() != before) ++rematch_skips_;
    } else if (is_stale(i)) {
      wavefront(i);
    }
    core::Skyline skyline;
    bool reprobing = false;
    const double floor =
        pricing.MinPrice(r.num_riders, m.direct_distance_m);
    // Every committed vehicle carries at least one pending request now,
    // so under empty-vehicle-only matching none of them may contribute.
    if (degrade_.effort.empty_vehicle_only) return;
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
                      degrade_.effort.max_probe_branches);
    }
    if (reprobing) m.options = skyline.TakeSorted();
  };

  std::vector<core::BatchItem> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core::BatchItem item;
    item.request = batch[i];
    if (!staged_.valid[i].ok()) {
      // Invalid individual request: report it unassigned, keep going.
      out.push_back(std::move(item));
      continue;
    }
    const pricing::PricingPolicy& pricing_view =
        staged_.snapshot_pricing ? *staged_.snapshots[i] : live_policy;
    if (dirty.size() > watermark[i]) reconcile(i, pricing_view);
    item.match = std::move(matches[i]);
    const std::optional<size_t> pick = chooser(batch[i], item.match);
    if (pick.has_value()) {
      if (*pick >= item.match.options.size()) {
        // Error exits still flush: earlier commits in this batch
        // mutated fleet state, and the index must not outlive the call
        // disagreeing with it.
        flush_reindex();
        return util::Status::OutOfRange("chooser returned a bad index");
      }
      const core::Option& option = item.match.options[*pick];
      // The option was computed against the exact live schedule of its
      // vehicle (watermark-snapshot result only when no later commit
      // touched it), so the commitment cannot race; surface any failure.
      const util::Status chosen =
          system_->ChooseOption(batch[i], option, now_s,
                                &pending_reindex);
      if (!chosen.ok()) {
        flush_reindex();
        return chosen;
      }
      item.assigned = true;
      item.chosen = option;
      dirty.push_back(option.vehicle);
      dirty_epoch[static_cast<size_t>(option.vehicle)] =
          static_cast<uint32_t>(dirty.size());
    }
    out.push_back(std::move(item));
  }
  flush_reindex();
  commit_phase_seconds_ += phase_timer.ElapsedSeconds();
  return out;
}

std::unique_ptr<core::Dispatcher> CreateDispatcher(core::PTRider& system) {
  const int threads = system.config().dispatch_threads;
  if (threads <= 0) {
    return std::make_unique<core::BatchDispatcher>(system);
  }
  return std::make_unique<ParallelDispatcher>(
      system, static_cast<size_t>(threads));
}

}  // namespace ptrider::dispatch
