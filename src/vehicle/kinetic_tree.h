#ifndef PTRIDER_VEHICLE_KINETIC_TREE_H_
#define PTRIDER_VEHICLE_KINETIC_TREE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "roadnet/types.h"
#include "util/status.h"
#include "vehicle/distance_provider.h"
#include "vehicle/request.h"
#include "vehicle/stop.h"

namespace ptrider::vehicle {

/// Time/speed context threaded through schedule operations. The paper's
/// constant-speed assumption converts distances (meters) to times
/// (seconds) via `speed_mps`.
struct ScheduleContext {
  /// Current absolute simulation time, seconds.
  double now_s = 0.0;
  /// Constant vehicle speed, meters/second (paper default: 48 km/h).
  double speed_mps = 48.0 / 3.6;
};

/// Constraint state of an unfinished request while it is assigned to a
/// vehicle.
struct PendingRequest {
  Request request;
  /// True once the riders are in the vehicle.
  bool onboard = false;
  /// Latest admissible pick-up time = planned pick-up + w (absolute
  /// seconds). Meaningless once onboard.
  double pickup_deadline_s = 0.0;
  /// Planned pick-up time promised to the rider (absolute seconds).
  double planned_pickup_s = 0.0;
  /// Service allowance (1 + sigma) * dist(s, d), meters.
  double max_trip_distance_m = 0.0;
  /// Meters driven since the pick-up (only accrues while onboard).
  double consumed_trip_distance_m = 0.0;
  /// Quoted price, stored for accounting.
  double price = 0.0;
};

/// One valid trip schedule: a root-to-leaf branch of the kinetic tree.
struct Branch {
  std::vector<Stop> stops;
  /// legs[i] = dist(previous location, stops[i]); legs[0] starts at the
  /// vehicle's current location.
  std::vector<roadnet::Weight> legs;
  roadnet::Weight total = 0.0;
};

/// A candidate schedule produced by trial insertion of a new request.
struct InsertionCandidate {
  /// Trip distance from the vehicle's current location to the new
  /// request's pick-up along this schedule (the paper's dist_pt).
  roadnet::Weight pickup_distance = 0.0;
  /// Total distance of the new schedule (dist_trj in Definition 3).
  roadnet::Weight total_distance = 0.0;
  std::vector<Stop> stops;
  /// Exact legs of `stops` (Branch::legs of the schedule once committed).
  std::vector<roadnet::Weight> legs;
};

/// A root leg the caller of KineticTree::AdvanceTo already knows: the
/// exact distance from the new root to `to`. A moving vehicle knows the
/// one to the end of the route it drives (DistanceOracle::RouteDistance
/// of the route's rest); `to` is kInvalidVertex when there is none.
struct KnownRootLeg {
  roadnet::VertexId to = roadnet::kInvalidVertex;
  roadnet::Weight distance = 0.0;
};

/// A per-schedule screen that TrialInsert consults between a schedule's
/// lower-bound walk and its exact walk (DESIGN.md section 4.5). The walk
/// reads every kept leg exactly and bounds only the legs into and out of
/// the new stops, summing left to right as the exact walk does, so each
/// bound is <= the double the exact walk would produce.
class InsertionScreen {
 public:
  virtual ~InsertionScreen() = default;
  /// True when no schedule whose new pick-up distance is >= `pickup_lb`
  /// and whose total is >= `total_lb` can change the caller's result;
  /// the schedule's exact walk is then skipped.
  virtual bool Rejects(roadnet::Weight pickup_lb,
                       roadnet::Weight total_lb) const = 0;
};

/// Insertion effort counters (experiment E3 / E10). A schedule the
/// lower-bound walk fails or the screen rejects is `bound_pruned`; the
/// others are `exact_validated`, and the valid ones also `accepted`.
struct InsertionStats {
  uint64_t sequences_generated = 0;
  uint64_t bound_pruned = 0;
  uint64_t exact_validated = 0;
  uint64_t accepted = 0;

  void Merge(const InsertionStats& other) {
    sequences_generated += other.sequences_generated;
    bound_pruned += other.bound_pruned;
    exact_validated += other.exact_validated;
    accepted += other.accepted;
  }
};

/// The kinetic tree (Huang et al. [7]; Section 3.2.2, Fig. 3): all valid
/// trip schedules of one vehicle, rooted at its current location. Each
/// root-to-leaf branch is a schedule satisfying Definition 2's four
/// conditions (capacity, point order, waiting time, service constraint).
///
/// The tree is stored as its branch set plus the per-request constraint
/// state; the trie view (`NumTreeNodes`) is derived. Insertion enumerates
/// every position pair for the new pick-up/drop-off in every branch,
/// pruning with distance lower bounds before exact validation.
class KineticTree {
 public:
  KineticTree(roadnet::VertexId root_location, int capacity)
      : root_(root_location), capacity_(capacity) {}

  // --- Introspection -------------------------------------------------------
  roadnet::VertexId root_location() const { return root_; }
  int capacity() const { return capacity_; }
  bool empty() const { return branches_.empty(); }
  size_t NumBranches() const { return branches_.size(); }
  /// Distinct trie nodes over all branches (the Fig. 3 tree size).
  size_t NumTreeNodes() const;
  size_t NumPendingRequests() const { return pending_.size(); }
  int RidersOnboard() const;
  /// Distinct unfinished requests currently onboard (pick-up consumed,
  /// drop-off pending). Movement accounting and the sharing rule key on
  /// this — the simulator's scratch advance and PTRider's live path
  /// must count it identically (DESIGN.md section 6).
  int OnboardRequests() const;
  /// Riders committed to this vehicle, onboard or awaiting pick-up
  /// (occupancy-sensitive pricing discounts against this).
  int RidersCommitted() const;
  const std::map<RequestId, PendingRequest>& pending() const {
    return pending_;
  }
  const std::vector<Branch>& branches() const { return branches_; }
  /// The schedule the vehicle actually drives: minimal total distance.
  /// Branches are kept sorted, so this is branches()[0]. Must not be
  /// called on an empty tree.
  const Branch& BestBranch() const { return branches_.front(); }
  /// dist_tri of Definition 3: total distance of the best branch, 0 when
  /// the vehicle has no unfinished requests.
  roadnet::Weight BestTotalDistance() const {
    return branches_.empty() ? 0.0 : branches_.front().total;
  }
  std::string DebugString() const;

  // --- Matching-side operations --------------------------------------------
  /// Enumerates all valid schedules that additionally serve `request`
  /// (not yet constrained by a pick-up deadline — the returned candidates
  /// are exactly the vehicle's feasible (time, price) offers). Does not
  /// modify the tree. Legs between two stops a branch already orders
  /// consecutively are read from its cached `legs`, so `dist` is asked
  /// only for the (at most four) legs that touch the request's start or
  /// destination — the queries an anchored oracle answers from its
  /// request searches (DESIGN.md section 7.5). `max_probe_branches`
  /// (0 = unlimited) probes only the best (shortest-total) K branches —
  /// the service-mode degradation ladder's bounded-effort knob
  /// (core::MatchEffort): every returned candidate is still exactly
  /// validated, the cap only skips the longer-schedule tail of the
  /// enumeration. A `screen` (may be null) skips the exact walk of each
  /// schedule it rejects on its lower bounds; such schedules yield no
  /// candidate even when valid.
  std::vector<InsertionCandidate> TrialInsert(
      const Request& request, const ScheduleContext& ctx,
      DistanceProvider& dist, InsertionStats* stats,
      size_t max_probe_branches = 0,
      const InsertionScreen* screen = nullptr) const;

  /// Commits `request` with the rider-chosen planned pick-up distance:
  /// sets planned pick-up time now + dist/speed, deadline = planned + w,
  /// and re-derives the branch set from the schedules that meet the
  /// deadline. Its trial insertion screens out every schedule whose
  /// pick-up bound already misses the deadline, so only the others are
  /// walked exactly. Fails with FailedPrecondition if no schedule meets
  /// the deadline (cannot happen for a distance quoted by TrialInsert at
  /// the same `ctx`).
  util::Status CommitInsert(const Request& request,
                            roadnet::Weight planned_pickup_distance,
                            double price, const ScheduleContext& ctx,
                            DistanceProvider& dist);

  // --- Simulation-side operations -------------------------------------------
  /// The vehicle moved `distance_m` meters and is now at vertex
  /// `new_root`. Accrues onboard trip consumption, recomputes first legs,
  /// and prunes branches that became invalid. A branch whose first stop
  /// is at `known.to` takes `known.distance` as its first leg; every
  /// other first leg is asked of `dist` (DESIGN.md section 7.5). The rest
  /// of each branch is re-validated from its cached legs. `executing`
  /// (may be empty) names the stop sequence the vehicle is driving; that
  /// branch is never pruned (it stays feasible under constant speed;
  /// this guards float drift). Errors if every branch died.
  util::Status AdvanceTo(roadnet::VertexId new_root, double distance_m,
                         const ScheduleContext& ctx,
                         DistanceProvider& dist,
                         const std::vector<Stop>& executing,
                         KnownRootLeg known = {});

  /// Consumes the best branch's first stop; the root must already be at
  /// that stop's location. Applies the pick-up/drop-off state change and
  /// discards branches beginning with a different stop. Returns the
  /// consumed stop.
  util::Result<Stop> PopFirstStop();

  /// Removes a not-yet-picked-up request (rider cancellation): strips its
  /// stops from every branch and recomputes distances. Removal only
  /// shortens schedules, so every surviving ordering remains valid; it
  /// cannot fail except for unknown or already-onboard requests.
  util::Status RemoveRequest(RequestId id, DistanceProvider& dist);

  // --- Validation (exposed for tests and property checks) -------------------
  /// Checks Definition 2's four conditions for a stop sequence against
  /// the current pending-request state. `new_request`, when non-null, is
  /// validated for its service constraint (no deadline yet), with
  /// `new_request_max_trip` its allowance. Returns the total distance and
  /// pickup distance of the new request via out-params when valid.
  bool ValidateSequence(const std::vector<Stop>& stops,
                        const ScheduleContext& ctx, DistanceProvider& dist,
                        const Request* new_request,
                        double new_request_max_trip,
                        roadnet::Weight* total_out,
                        roadnet::Weight* new_pickup_out) const;

 private:
  /// Structural half of ValidateSequence (condition 2 plus completeness):
  /// every onboard request dropped off once, every waiting request picked
  /// up then dropped off once, and the new request likewise.
  bool StructureValid(const std::vector<Stop>& stops,
                      const Request* new_request) const;

  /// Core walk shared by validation paths. `legs` (empty, or one entry
  /// per stop) supplies known exact legs: an entry >= 0 is used as is.
  /// A negative entry is asked of `dist`: exactly when `exact`, and then
  /// written back, so an accepted walk leaves the schedule's complete
  /// legs behind; as a lower bound otherwise. Either walk sums the legs
  /// left to right from 0.
  bool WalkSequence(const std::vector<Stop>& stops,
                    std::span<roadnet::Weight> legs,
                    const ScheduleContext& ctx, DistanceProvider& dist,
                    bool exact, const Request* new_request,
                    double new_request_max_trip, roadnet::Weight* total_out,
                    roadnet::Weight* new_pickup_out) const;

  /// Sorts branches by (total, lexicographic stops) and dedups.
  void NormalizeBranches();

  roadnet::VertexId root_;
  int capacity_;
  std::map<RequestId, PendingRequest> pending_;
  std::vector<Branch> branches_;
};

}  // namespace ptrider::vehicle

#endif  // PTRIDER_VEHICLE_KINETIC_TREE_H_
