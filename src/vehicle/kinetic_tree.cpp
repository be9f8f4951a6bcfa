#include "vehicle/kinetic_tree.h"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

#include "util/string_util.h"

namespace ptrider::vehicle {

namespace {

/// Absolute slack for floating-point constraint comparisons (meters /
/// seconds are O(1e0..1e5), double gives ~1e-11 relative error).
constexpr double kEps = 1e-6;

bool LeqWithSlack(double a, double b) { return a <= b + kEps; }

/// CommitInsert's screen: rejects a schedule whose pick-up bound already
/// reaches the new request's pick-up after its committed deadline. The
/// bound is at most the exact walk's double and the arrival test is
/// monotone in it, so the exact walk would miss the deadline too.
class DeadlineScreen : public InsertionScreen {
 public:
  DeadlineScreen(const ScheduleContext& ctx, double deadline_s)
      : ctx_(ctx), deadline_s_(deadline_s) {}
  bool Meets(roadnet::Weight pickup_distance) const {
    return LeqWithSlack(ctx_.now_s + pickup_distance / ctx_.speed_mps,
                        deadline_s_);
  }
  bool Rejects(roadnet::Weight pickup_lb,
               roadnet::Weight /*total_lb*/) const override {
    return !Meets(pickup_lb);
  }

 private:
  ScheduleContext ctx_;
  double deadline_s_;
};

/// Marks a leg WalkSequence must compute (exact legs are >= 0).
constexpr roadnet::Weight kUnknownLeg = -1.0;

/// Stops whose cumulative distances a walk keeps on the stack.
constexpr size_t kInlineStops = 32;

bool StopLess(const Stop& a, const Stop& b) {
  if (a.request != b.request) return a.request < b.request;
  if (a.type != b.type) return static_cast<int>(a.type) < static_cast<int>(b.type);
  return a.location < b.location;
}

bool SequenceLess(const std::vector<Stop>& a, const std::vector<Stop>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      StopLess);
}

}  // namespace

roadnet::Weight Branch::DistanceToStop(size_t k) const {
  roadnet::Weight d = 0.0;
  for (size_t i = 0; i <= k && i < legs.size(); ++i) d += legs[i];
  return d;
}

KineticTree::KineticTree(roadnet::VertexId root_location, int capacity,
                         size_t max_branches)
    : root_(root_location),
      capacity_(capacity),
      max_branches_(max_branches) {}

size_t KineticTree::NumTreeNodes() const {
  // Count distinct branch prefixes (the trie nodes below the root).
  std::set<std::vector<Stop>, bool (*)(const std::vector<Stop>&,
                                       const std::vector<Stop>&)>
      prefixes(SequenceLess);
  for (const Branch& b : branches_) {
    std::vector<Stop> prefix;
    prefix.reserve(b.stops.size());
    for (const Stop& s : b.stops) {
      prefix.push_back(s);
      prefixes.insert(prefix);
    }
  }
  return prefixes.size();
}

int KineticTree::RidersOnboard() const {
  int riders = 0;
  for (const auto& [id, p] : pending_) {
    if (p.onboard) riders += p.request.num_riders;
  }
  return riders;
}

int KineticTree::OnboardRequests() const {
  int requests = 0;
  for (const auto& [id, p] : pending_) {
    if (p.onboard) ++requests;
  }
  return requests;
}

int KineticTree::RidersCommitted() const {
  int riders = 0;
  for (const auto& [id, p] : pending_) {
    riders += p.request.num_riders;
  }
  return riders;
}

bool KineticTree::WalkSequence(const std::vector<Stop>& stops,
                               std::span<roadnet::Weight> legs,
                               const ScheduleContext& ctx,
                               DistanceProvider& dist, bool exact,
                               const Request* new_request,
                               double new_request_max_trip,
                               roadnet::Weight* total_out,
                               roadnet::Weight* new_pickup_out) const {
  const bool known_legs = !legs.empty();
  auto distance = [&](size_t k, roadnet::VertexId u, roadnet::VertexId v) {
    if (known_legs && legs[k] >= 0.0) return legs[k];
    if (!exact) return dist.Lower(u, v);
    const roadnet::Weight d = dist.Exact(u, v);
    if (known_legs) legs[k] = d;
    return d;
  };

  // Cum distance at each stop, so a drop-off finds its pick-up's by
  // position. The walk is matching's innermost loop, so the buffer is on
  // the stack; pending requests are not bounded by capacity, so an
  // unusually long schedule spills to the heap.
  std::array<roadnet::Weight, kInlineStops> inline_cum;
  std::vector<roadnet::Weight> spilled_cum;
  roadnet::Weight* cum_at = inline_cum.data();
  if (stops.size() > inline_cum.size()) {
    spilled_cum.resize(stops.size());
    cum_at = spilled_cum.data();
  }
  // The latest pick-up of `request` before position k, or null.
  auto pickup_cum = [&](size_t k, RequestId request) -> const roadnet::Weight* {
    while (k-- > 0) {
      if (stops[k].request == request && stops[k].type == StopType::kPickup) {
        return &cum_at[k];
      }
    }
    return nullptr;
  };

  roadnet::VertexId cur = root_;
  roadnet::Weight cum = 0.0;
  int riders = RidersOnboard();
  if (new_request != nullptr && new_pickup_out != nullptr) {
    *new_pickup_out = roadnet::kInfWeight;
  }

  for (size_t k = 0; k < stops.size(); ++k) {
    const Stop& stop = stops[k];
    const roadnet::Weight leg = distance(k, cur, stop.location);
    if (leg == roadnet::kInfWeight) return false;
    cum += leg;
    cum_at[k] = cum;
    cur = stop.location;

    const bool is_new =
        new_request != nullptr && stop.request == new_request->id;
    const PendingRequest* pending = nullptr;
    if (!is_new) {
      const auto it = pending_.find(stop.request);
      if (it == pending_.end()) return false;  // unknown stop
      pending = &it->second;
    }

    if (stop.type == StopType::kPickup) {
      // Waiting-time constraint (condition 3): arrival by the deadline.
      if (!is_new) {
        const double arrival = ctx.now_s + cum / ctx.speed_mps;
        if (!LeqWithSlack(arrival, pending->pickup_deadline_s)) return false;
      }
      // Capacity constraint (condition 1).
      const int n =
          is_new ? new_request->num_riders : pending->request.num_riders;
      riders += n;
      if (riders > capacity_) return false;
      if (is_new && new_pickup_out != nullptr) *new_pickup_out = cum;
    } else {
      // Service constraint (condition 4).
      double trip;
      double allowance;
      if (!is_new && pending->onboard) {
        trip = pending->consumed_trip_distance_m + cum;
        allowance = pending->max_trip_distance_m;
      } else {
        const roadnet::Weight* pk = pickup_cum(k, stop.request);
        if (pk == nullptr) return false;  // order violated
        trip = cum - *pk;
        allowance =
            is_new ? new_request_max_trip : pending->max_trip_distance_m;
      }
      if (!LeqWithSlack(trip, allowance)) return false;
      const int n =
          is_new ? new_request->num_riders : pending->request.num_riders;
      riders -= n;
    }
  }
  if (total_out != nullptr) *total_out = cum;
  return true;
}

bool KineticTree::StructureValid(const std::vector<Stop>& stops,
                                 const Request* new_request) const {
  // Two stops of one request are allowed only as pick-up then drop-off:
  // this rejects duplicates and drop-offs before pick-ups. Schedules hold
  // a handful of stops, so the quadratic scan beats any set.
  for (size_t k = 0; k < stops.size(); ++k) {
    for (size_t m = 0; m < k; ++m) {
      if (stops[m].request != stops[k].request) continue;
      if (stops[m].type == stops[k].type ||
          stops[m].type == StopType::kDropoff) {
        return false;
      }
    }
  }
  auto has = [&](RequestId id, StopType type) {
    return std::any_of(stops.begin(), stops.end(), [&](const Stop& s) {
      return s.request == id && s.type == type;
    });
  };
  size_t expected = 0;
  for (const auto& [id, p] : pending_) {
    if (p.onboard) {
      if (has(id, StopType::kPickup) || !has(id, StopType::kDropoff)) {
        return false;
      }
      expected += 1;
    } else {
      if (!has(id, StopType::kPickup) || !has(id, StopType::kDropoff)) {
        return false;
      }
      expected += 2;
    }
  }
  if (new_request != nullptr) {
    if (!has(new_request->id, StopType::kPickup) ||
        !has(new_request->id, StopType::kDropoff)) {
      return false;
    }
    expected += 2;
  }
  return stops.size() == expected;
}

bool KineticTree::ValidateSequence(const std::vector<Stop>& stops,
                                   const ScheduleContext& ctx,
                                   DistanceProvider& dist,
                                   const Request* new_request,
                                   double new_request_max_trip,
                                   roadnet::Weight* total_out,
                                   roadnet::Weight* new_pickup_out) const {
  return StructureValid(stops, new_request) &&
         WalkSequence(stops, {}, ctx, dist, /*exact=*/true, new_request,
                      new_request_max_trip, total_out, new_pickup_out);
}

std::vector<InsertionCandidate> KineticTree::TrialInsert(
    const Request& request, const ScheduleContext& ctx,
    DistanceProvider& dist, InsertionStats* stats,
    size_t max_probe_branches, const InsertionScreen* screen) const {
  std::vector<InsertionCandidate> out;
  InsertionStats local;

  const roadnet::Weight direct =
      dist.Exact(request.start, request.destination);
  if (direct == roadnet::kInfWeight) return out;
  const double max_trip = (1.0 + request.service_sigma) * direct;

  const Stop pickup{request.id, StopType::kPickup, request.start};
  const Stop dropoff{request.id, StopType::kDropoff, request.destination};

  // One candidate at a time in reused buffers: `legs` holds each branch
  // leg the candidate keeps (a stop whose predecessor is unchanged) and
  // kUnknownLeg for the legs into and out of the new stops. Distinct
  // (branch, i, j) yield distinct sequences — branches are deduplicated
  // and none holds the new request's stops — so nothing is tried twice.
  // (A tree already holding the request could repeat a sequence, but
  // every such sequence has two pick-ups and fails StructureValid.)
  std::vector<Stop> seq;
  std::vector<roadnet::Weight> legs;
  auto consider = [&] {
    ++local.sequences_generated;
    roadnet::Weight total = 0.0;
    roadnet::Weight pickup_dist = 0.0;
    // Lower-bound walk first: constraints are monotone in every leg, so a
    // schedule that fails it fails exactly too. Its sums bound the exact
    // walk's, which is what the screen compares.
    if (!WalkSequence(seq, legs, ctx, dist, /*exact=*/false, &request,
                      max_trip, &total, &pickup_dist) ||
        (screen != nullptr && screen->Rejects(pickup_dist, total))) {
      ++local.bound_pruned;
      return;
    }
    ++local.exact_validated;
    if (StructureValid(seq, &request) &&
        WalkSequence(seq, legs, ctx, dist, /*exact=*/true, &request,
                     max_trip, &total, &pickup_dist)) {
      ++local.accepted;
      out.push_back({pickup_dist, total, seq, legs});
    }
  };

  if (branches_.empty()) {
    seq = {pickup, dropoff};
    legs = {kUnknownLeg, kUnknownLeg};
    consider();
  } else {
    // Branches are kept sorted by total distance, so a probe cap
    // enumerates the best-K schedules and skips the tail.
    const size_t probe_limit =
        max_probe_branches > 0
            ? std::min(max_probe_branches, branches_.size())
            : branches_.size();
    for (size_t bi = 0; bi < probe_limit; ++bi) {
      const Branch& branch = branches_[bi];
      const size_t n = branch.stops.size();
      // Appends branch stops [from, to); the first one's leg is new when
      // it follows an inserted stop.
      auto append = [&](size_t from, size_t to, bool after_new) {
        for (size_t k = from; k < to; ++k) {
          seq.push_back(branch.stops[k]);
          legs.push_back(k == from && after_new ? kUnknownLeg
                                                : branch.legs[k]);
        }
      };
      for (size_t i = 0; i <= n; ++i) {
        for (size_t j = i; j <= n; ++j) {
          seq.clear();
          legs.clear();
          append(0, i, /*after_new=*/false);
          seq.push_back(pickup);
          legs.push_back(kUnknownLeg);
          append(i, j, /*after_new=*/true);
          seq.push_back(dropoff);
          legs.push_back(kUnknownLeg);
          append(j, n, /*after_new=*/true);
          consider();
        }
      }
    }
  }
  if (stats != nullptr) stats->Merge(local);
  return out;
}

void KineticTree::NormalizeBranches() {
  std::sort(branches_.begin(), branches_.end(),
            [](const Branch& a, const Branch& b) {
              if (a.total != b.total) return a.total < b.total;
              return SequenceLess(a.stops, b.stops);
            });
  branches_.erase(
      std::unique(branches_.begin(), branches_.end(),
                  [](const Branch& a, const Branch& b) {
                    return a.stops == b.stops;
                  }),
      branches_.end());
}

util::Status KineticTree::CommitInsert(
    const Request& request, roadnet::Weight planned_pickup_distance,
    double price, const ScheduleContext& ctx, DistanceProvider& dist) {
  if (pending_.count(request.id) > 0) {
    return util::Status::AlreadyExists(
        util::StrFormat("request %lld already assigned",
                        static_cast<long long>(request.id)));
  }
  const double planned_s =
      ctx.now_s + planned_pickup_distance / ctx.speed_mps;
  const double deadline_s = planned_s + request.max_wait_s;
  const DeadlineScreen screen(ctx, deadline_s);
  std::vector<InsertionCandidate> candidates =
      TrialInsert(request, ctx, dist, nullptr, 0, &screen);

  PendingRequest p;
  p.request = request;
  p.onboard = false;
  p.planned_pickup_s = planned_s;
  p.pickup_deadline_s = deadline_s;
  p.max_trip_distance_m =
      (1.0 + request.service_sigma) *
      dist.Exact(request.start, request.destination);
  p.consumed_trip_distance_m = 0.0;
  p.price = price;

  std::vector<Branch> new_branches;
  for (InsertionCandidate& c : candidates) {
    if (!screen.Meets(c.pickup_distance)) continue;
    // The walk summed the legs left to right from 0, as a branch does.
    Branch b;
    b.stops = std::move(c.stops);
    b.legs = std::move(c.legs);
    b.total = c.total_distance;
    new_branches.push_back(std::move(b));
  }
  if (new_branches.empty()) {
    return util::Status::FailedPrecondition(
        "no schedule of this vehicle meets the committed pick-up deadline");
  }
  pending_.emplace(request.id, std::move(p));
  branches_ = std::move(new_branches);
  NormalizeBranches();
  if (max_branches_ > 0 && branches_.size() > max_branches_) {
    branches_.resize(max_branches_);  // keep the shortest schedules
  }
  return util::Status::Ok();
}

util::Status KineticTree::AdvanceTo(roadnet::VertexId new_root,
                                    double distance_m,
                                    const ScheduleContext& ctx,
                                    DistanceProvider& dist,
                                    const std::vector<Stop>& executing,
                                    KnownRootLeg known) {
  for (auto& [id, p] : pending_) {
    if (p.onboard) p.consumed_trip_distance_m += distance_m;
  }
  root_ = new_root;
  if (branches_.empty()) return util::Status::Ok();

  std::vector<Branch> kept;
  for (Branch& b : branches_) {
    // Only the first leg depends on the root.
    roadnet::Weight first = 0.0;
    if (!b.stops.empty()) {
      const roadnet::VertexId stop = b.stops.front().location;
      first = stop == known.to ? known.distance : dist.Exact(root_, stop);
    }
    b.total = b.total - b.legs.front() + first;
    b.legs.front() = first;
    const bool is_executing = !executing.empty() && b.stops == executing;
    // Every other leg joins two stops the branch already orders, and is
    // cached exactly.
    if (is_executing ||
        (StructureValid(b.stops, nullptr) &&
         WalkSequence(b.stops, b.legs, ctx, dist, /*exact=*/true, nullptr,
                      0.0, nullptr, nullptr))) {
      kept.push_back(std::move(b));
    }
  }
  if (kept.empty()) {
    return util::Status::Internal(
        "all kinetic tree branches became invalid during advance");
  }
  branches_ = std::move(kept);
  NormalizeBranches();
  return util::Status::Ok();
}

util::Result<Stop> KineticTree::PopFirstStop(const ScheduleContext& ctx) {
  if (branches_.empty()) {
    return util::Status::FailedPrecondition("kinetic tree has no stops");
  }
  const Branch& best = branches_.front();
  const Stop first = best.stops.front();
  if (first.location != root_) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "vehicle at vertex %d has not reached next stop at vertex %d",
        root_, first.location));
  }

  auto it = pending_.find(first.request);
  if (it == pending_.end()) {
    return util::Status::Internal("stop for unknown request");
  }
  if (first.type == StopType::kPickup) {
    it->second.onboard = true;
    it->second.consumed_trip_distance_m = 0.0;
    (void)ctx;
  } else {
    pending_.erase(it);
  }

  std::vector<Branch> kept;
  for (Branch& b : branches_) {
    if (b.stops.front() == first) {
      b.total -= b.legs.front();
      b.stops.erase(b.stops.begin());
      b.legs.erase(b.legs.begin());
      if (!b.stops.empty()) kept.push_back(std::move(b));
    }
  }
  branches_ = std::move(kept);
  NormalizeBranches();
  return first;
}

util::Status KineticTree::RemoveRequest(RequestId id,
                                        DistanceProvider& dist) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    return util::Status::NotFound(util::StrFormat(
        "request %lld is not assigned to this vehicle",
        static_cast<long long>(id)));
  }
  if (it->second.onboard) {
    return util::Status::FailedPrecondition(
        "cannot cancel: riders already picked up");
  }
  pending_.erase(it);
  std::vector<Branch> rebuilt;
  rebuilt.reserve(branches_.size());
  for (const Branch& b : branches_) {
    std::vector<Stop> stops;
    stops.reserve(b.stops.size());
    for (const Stop& s : b.stops) {
      if (s.request != id) stops.push_back(s);
    }
    if (stops.empty()) continue;
    Branch nb;
    roadnet::VertexId cur = root_;
    for (const Stop& s : stops) {
      const roadnet::Weight leg = dist.Exact(cur, s.location);
      nb.legs.push_back(leg);
      nb.total += leg;
      cur = s.location;
    }
    nb.stops = std::move(stops);
    rebuilt.push_back(std::move(nb));
  }
  branches_ = std::move(rebuilt);
  NormalizeBranches();  // orderings may have collapsed into duplicates
  return util::Status::Ok();
}

std::string KineticTree::DebugString() const {
  std::ostringstream os;
  os << "KineticTree{root=v" << root_ << ", pending=" << pending_.size()
     << ", onboard_riders=" << RidersOnboard()
     << ", branches=" << branches_.size() << ", nodes=" << NumTreeNodes();
  if (!branches_.empty()) {
    os << ", best=" << branches_.front().total << " [";
    for (size_t i = 0; i < branches_.front().stops.size(); ++i) {
      if (i > 0) os << " ";
      const Stop& s = branches_.front().stops[i];
      os << (s.type == StopType::kPickup ? "+" : "-") << s.request << "@v"
         << s.location;
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

}  // namespace ptrider::vehicle
