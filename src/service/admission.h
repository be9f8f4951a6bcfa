#ifndef PTRIDER_SERVICE_ADMISSION_H_
#define PTRIDER_SERVICE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch.h"

namespace ptrider::service {

/// Per-request admission verdict, stage 2 (stage 1 is the bounded
/// ingestion queue's reject-on-full, mpsc_queue.h). The reasons are
/// disjoint — ServiceStats::shed == shed_deadline + shed_zone.
enum class ShedReason {
  kAdmit,     // dispatch it
  kDeadline,  // start delay already past the hard deadline
  kZone,      // its grid zone exhausted this window's fair share
};

/// Number of rungs on the degradation ladder, rung 0 (full effort)
/// included.
constexpr int kNumRungs = 4;

/// The graceful-degradation ladder (DESIGN.md section 14): before the
/// service sheds load it first sheds *effort*, spending less per request
/// so more requests fit under the deadline. A CoDel-style controller
/// tracks the minimum start delay per interval; an interval whose
/// minimum stays above `target_delay_s` (a standing queue, not a burst)
/// escalates one rung, an interval below it de-escalates. Rungs, in
/// order of what they give up:
///
///   0  full effort — the normal pipeline;
///   1  skip full re-matches in the dispatcher's commit phase (stale
///      options dropped instead of recomputed);
///   2  additionally cap kinetic-tree probe depth at probe_branch_cap;
///   3  additionally match against empty vehicles only.
///
/// The hard deadline shed stays active at every rung — the ladder sits
/// *under* it, so `target_delay_s` should be well below the deadline.
struct LadderOptions {
  bool enabled = false;
  /// Standing-delay target: intervals whose min start delay exceeds it
  /// escalate.
  double target_delay_s = 4.0;
  /// Controller evaluation interval, simulated seconds.
  double interval_s = 16.0;
  /// Highest rung the controller may reach (<= kNumRungs - 1).
  int max_rung = kNumRungs - 1;
  /// Rung-2 bound on kinetic-tree branches probed per trial insertion.
  size_t probe_branch_cap = 4;
};

/// Per-grid-zone fair-share admission: one hot zone must not starve the
/// rest of the city. Zones partition grid cells contiguously (zone =
/// cell * zones / num_cells; consecutive cell ids are row neighbors, so
/// a zone is a band of the city). While the service is behind (min start
/// delay above the trigger), each zone present in a drain may admit at
/// most fair_factor x its equal share of the window's modeled capacity;
/// beyond that its requests shed as kZone.
struct ZoneAdmissionOptions {
  /// Number of zones; 0 disables zone admission entirely.
  size_t zones = 0;
  /// Multiplier on the equal share (2.0 = a zone may use up to twice its
  /// fair slice). <= 0 keeps the zone partition for accounting but never
  /// sheds by zone.
  double fair_factor = 2.0;
  /// Min start delay (seconds) that arms zone quotas for a drain; 0
  /// derives it from the ladder target (or the deadline when the ladder
  /// is off).
  double trigger_delay_s = 0.0;
};

/// The dispatcher-facing meaning of each rung.
core::DegradeMode DegradeForRung(int rung, const LadderOptions& ladder);

/// Adaptive two-level admission controller: degrade first (the ladder),
/// shed second (hard deadline + zone fair share). Deterministic — a pure
/// function of the drain instants and per-request delays it is fed, all
/// of which live inside the virtual-clock determinism boundary
/// (DESIGN.md section 11). Single-threaded by design: only the service
/// loop owner calls it.
///
/// `deadline_s` <= 0 disables the hard deadline (admit-all profile);
/// the ladder and zone stages can still be enabled independently.
class AdaptiveAdmission {
 public:
  AdaptiveAdmission(double deadline_s, const LadderOptions& ladder,
                    const ZoneAdmissionOptions& zone);

  const char* name() const { return "adaptive"; }

  /// Window-level update, called once per drain before the per-request
  /// Admit calls. `min_delay_s` is the smallest start delay any request
  /// in this drain will see (ignored when `drained` == 0);
  /// `zones_in_drain` the distinct zones present; `capacity_requests`
  /// how many requests the modeled server can process in the window
  /// (<= 0 = no service-time model, zone quotas stay disarmed).
  void BeginDrain(double now_s, size_t drained, double min_delay_s,
                  size_t zones_in_drain, double capacity_requests);

  /// Stage-2 verdict for one drained request, in staged order.
  ShedReason Admit(double delay_s, size_t zone);

  /// Current ladder rung (0 = full effort).
  int rung() const { return rung_; }
  double deadline_s() const { return deadline_s_; }
  const LadderOptions& ladder() const { return ladder_; }
  uint64_t escalations() const { return escalations_; }
  int max_rung_reached() const { return max_rung_reached_; }

 private:
  double deadline_s_;
  LadderOptions ladder_;
  ZoneAdmissionOptions zone_;

  // CoDel-style interval tracker.
  double interval_start_s_ = 0.0;
  double interval_min_delay_s_ = 0.0;
  bool interval_has_sample_ = false;
  int rung_ = 0;
  uint64_t escalations_ = 0;
  int max_rung_reached_ = 0;

  // Per-drain zone quota state.
  uint64_t zone_quota_ = 0;  // 0 = disarmed for this drain
  std::vector<uint64_t> zone_admitted_;
};

}  // namespace ptrider::service

#endif  // PTRIDER_SERVICE_ADMISSION_H_
