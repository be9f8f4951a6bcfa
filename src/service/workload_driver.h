#ifndef PTRIDER_SERVICE_WORKLOAD_DRIVER_H_
#define PTRIDER_SERVICE_WORKLOAD_DRIVER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>  // lint: allow(raw-thread)
#include <vector>

#include "roadnet/graph.h"
#include "service/clock.h"
#include "service/mpsc_queue.h"
#include "sim/trip.h"
#include "util/random.h"

namespace ptrider::service {

/// One request as it crosses the ingestion queue: the trip plus its
/// ingestion timestamp (simulation seconds — the arrival instant under a
/// virtual clock, the push instant under a wall clock). Queue-wait and
/// latency accounting measure from here.
struct IngestedTrip {
  sim::Trip trip;
  double ingest_time_s = 0.0;
};

using RequestQueue = BoundedMpscQueue<IngestedTrip>;

/// An open-loop arrival process: a time-ordered stream of trips on its
/// own schedule, decoupled from tick/processing speed — the server being
/// slow never delays the next arrival (that coupling is exactly what the
/// closed-loop Simulator::Run has and a production dispatcher does not).
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  virtual const char* name() const = 0;
  /// Next trip, non-decreasing in time_s; nullopt once exhausted.
  virtual std::optional<sim::Trip> Next() = 0;
  /// Time of the last arrival this process can emit (the load horizon —
  /// offered-rate denominators and service end times derive from it).
  virtual double end_time_s() const = 0;
};

/// Replays a pre-generated, time-sorted trace (sim::GenerateHotspotTrips
/// or sim::LoadTrips output — the paper's full-day Shanghai framing).
/// `rate_multiplier` compresses the schedule: 2.0 divides every arrival
/// time by two, doubling the offered rate over half the horizon — the
/// knob bench_e19's trace-replay sweeps turn.
class TraceArrivals : public ArrivalProcess {
 public:
  explicit TraceArrivals(std::vector<sim::Trip> trips,
                         double rate_multiplier = 1.0);

  const char* name() const override { return "trace-replay"; }
  std::optional<sim::Trip> Next() override;
  double end_time_s() const override { return end_time_s_; }

 private:
  std::vector<sim::Trip> trips_;
  double rate_multiplier_;
  double end_time_s_ = 0.0;
  size_t next_ = 0;
};

/// Homogeneous Poisson arrivals: exponential inter-arrival gaps at
/// `rate_per_s` over `duration_s`, endpoints drawn uniformly from the
/// road network (origin != destination), rider-group sizes from
/// `group_weights`. The canonical open-loop stress process — offered
/// load is one number, so sweeping it locates the throughput knee.
struct PoissonArrivalOptions {
  double rate_per_s = 1.0;
  double duration_s = 600.0;
  uint64_t seed = 2009;
  /// P(group size = k) proportional to group_weights[k-1].
  std::array<double, 4> group_weights = {0.70, 0.20, 0.07, 0.03};
};

class PoissonArrivals : public ArrivalProcess {
 public:
  PoissonArrivals(const roadnet::RoadNetwork& graph,
                  const PoissonArrivalOptions& options);

  const char* name() const override { return "poisson"; }
  std::optional<sim::Trip> Next() override;
  double end_time_s() const override { return options_.duration_s; }

 private:
  const roadnet::RoadNetwork* graph_;
  PoissonArrivalOptions options_;
  util::Rng rng_;
  double next_time_s_ = 0.0;
};

/// Bounded-retry backpressure for rejected ingestion pushes. A rejected
/// arrival is not silently dropped anymore: it is retried up to
/// `max_attempts` more times with exponential backoff and deterministic
/// seeded jitter (so synchronized retry herds do not re-collide), then
/// counted as given up. 0 attempts restores the old drop-on-reject
/// behavior.
struct RetryOptions {
  /// Re-push attempts after the initial rejection; 0 = no retries.
  int max_attempts = 0;
  /// Base backoff before the first retry; doubles per attempt.
  double backoff_s = 0.5;
  /// Uniform jitter as a fraction of the backoff (0.5 = +/-0 to +50%).
  double jitter_frac = 0.5;
  /// Seed for the jitter stream (virtual mode consumes it in arrival
  /// order, so retry schedules are bit-reproducible).
  uint64_t seed = 1777;
};

/// The open-loop workload driver: feeds an ArrivalProcess into the
/// service ingestion queue on the arrival schedule. Two modes, one per
/// side of the determinism boundary (DESIGN.md section 11):
///
///   * PumpUntil (virtual clock) — the service loop calls it inline each
///     tick; retries that came due are re-pushed first (their rejection
///     preceded this tick), then every arrival due at or before `now`
///     in arrival order, each stamped with its arrival instant. A
///     rejected item keeps its original stamp across retries — its
///     rider has been waiting since the arrival, and the latency
///     accounting must say so. Single-threaded, deterministic ingestion
///     order, reject decisions and retry schedule.
///   * RunBlocking (wall clock) — run on a dedicated producer thread;
///     sleeps the clock to each arrival's instant and pushes with the
///     real (scaled) push time as the ingestion stamp, retrying in-line
///     with backoff sleeps of at most 2 s each. Closes the queue at
///     exhaustion.
class WorkloadDriver {
 public:
  WorkloadDriver(ArrivalProcess& process, RequestQueue& queue,
                 const RetryOptions& retry = RetryOptions{});

  /// Virtual-clock ingestion: due retries, then every arrival with
  /// time_s <= now_s. Returns the number of *new* arrivals offered.
  size_t PumpUntil(double now_s);

  /// Wall-clock ingestion loop; blocks until the process is exhausted,
  /// then closes the queue.
  void RunBlocking(ServiceClock& clock);

  /// Declares every still-pending retry failed (end of run). The
  /// offered/gave-up accounting only balances after this (or after
  /// RunBlocking returns, which gives up in-line).
  void GiveUpPending();

  /// Arrivals offered so far — each arrival once, however many retry
  /// pushes it needed. offered() == pushed-accepted + gave_up() +
  /// still-pending retries.
  uint64_t offered() const { return offered_; }
  /// Successful re-pushes after at least one rejection.
  uint64_t retried() const { return retried_; }
  /// Arrivals dropped for good: retry budget exhausted, queue closed,
  /// or GiveUpPending.
  uint64_t gave_up() const { return gave_up_; }

 private:
  struct PendingRetry {
    IngestedTrip item;
    double due_s = 0.0;
    int attempts = 0;  // rejections so far
  };

  std::optional<sim::Trip> Peek();
  /// Backoff delay before retry number `attempts` (exponential, with a
  /// seeded jitter draw consumed per call).
  double NextBackoff(int attempts);
  /// Push with retry bookkeeping; queues a PendingRetry on rejection (or
  /// counts the give-up when the budget is spent).
  void OfferVirtual(IngestedTrip item, double now_s, int attempts);

  ArrivalProcess* process_;
  RequestQueue* queue_;
  RetryOptions retry_;
  util::Rng rng_;
  std::optional<sim::Trip> lookahead_;
  std::deque<PendingRetry> pending_;  // due-time order (FIFO suffices:
                                      // equal backoff growth keeps it
                                      // near-sorted; due checks gate it)
  uint64_t offered_ = 0;
  uint64_t retried_ = 0;
  uint64_t gave_up_ = 0;
};

/// RAII producer thread for wall-clock mode: runs
/// `driver.RunBlocking(clock)` on a dedicated thread, joining in Join()
/// or the destructor. This is the only sanctioned way to put a
/// WorkloadDriver on its own thread — raw std::thread is banned outside
/// dispatch::ThreadPool and this file (ptrider_lint rule `raw-thread`),
/// so every thread in the system is owned by a type whose join
/// discipline is in one audited place.
///
/// The driver and clock must outlive the ProducerThread. `driver` must
/// not be touched (PumpUntil, offered()) until after Join(): RunBlocking
/// mutates the driver's cursor without locks, by design — the wall-clock
/// side of the determinism boundary (DESIGN.md section 11).
class ProducerThread {
 public:
  ProducerThread(WorkloadDriver& driver, ServiceClock& clock)
      : thread_([&driver, &clock] { driver.RunBlocking(clock); }) {}

  ~ProducerThread() { Join(); }

  ProducerThread(const ProducerThread&) = delete;
  ProducerThread& operator=(const ProducerThread&) = delete;

  /// Blocks until the arrival process is exhausted and the queue closed.
  /// Idempotent.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;  // lint: allow(raw-thread)
};

}  // namespace ptrider::service

#endif  // PTRIDER_SERVICE_WORKLOAD_DRIVER_H_
