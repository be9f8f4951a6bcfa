#include "service/workload_driver.h"

#include <algorithm>
#include <utility>

namespace ptrider::service {

namespace {
/// Wall-clock mode: the cap on one in-line retry sleep, seconds.
constexpr double kMaxRetrySleepS = 2.0;
}  // namespace

TraceArrivals::TraceArrivals(std::vector<sim::Trip> trips,
                             double rate_multiplier)
    : trips_(std::move(trips)),
      rate_multiplier_(rate_multiplier > 0.0 ? rate_multiplier : 1.0) {
  std::stable_sort(trips_.begin(), trips_.end(),
                   [](const sim::Trip& a, const sim::Trip& b) {
                     return a.time_s < b.time_s;
                   });
  for (sim::Trip& t : trips_) t.time_s /= rate_multiplier_;
  if (!trips_.empty()) end_time_s_ = trips_.back().time_s;
}

std::optional<sim::Trip> TraceArrivals::Next() {
  if (next_ >= trips_.size()) return std::nullopt;
  return trips_[next_++];
}

PoissonArrivals::PoissonArrivals(const roadnet::RoadNetwork& graph,
                                 const PoissonArrivalOptions& options)
    : graph_(&graph), options_(options), rng_(options.seed) {
  if (options_.rate_per_s <= 0.0) options_.rate_per_s = 1.0;
  if (options_.duration_s < 0.0) options_.duration_s = 0.0;
}

std::optional<sim::Trip> PoissonArrivals::Next() {
  // Each arrival is one exponential gap after the previous; the first is
  // a full gap past t=0 (a Poisson process has no atom at the origin).
  next_time_s_ += rng_.Exponential(options_.rate_per_s);
  if (next_time_s_ > options_.duration_s) return std::nullopt;

  sim::Trip trip;
  trip.time_s = next_time_s_;
  const auto n = static_cast<int64_t>(graph_->NumVertices());
  trip.origin = static_cast<roadnet::VertexId>(rng_.UniformInt(0, n - 1));
  trip.destination = trip.origin;
  while (trip.destination == trip.origin) {
    trip.destination =
        static_cast<roadnet::VertexId>(rng_.UniformInt(0, n - 1));
  }

  double total_weight = 0.0;
  for (double w : options_.group_weights) total_weight += w;
  double draw = rng_.UniformDouble(0.0, total_weight);
  trip.num_riders = static_cast<int>(options_.group_weights.size());
  for (size_t k = 0; k < options_.group_weights.size(); ++k) {
    draw -= options_.group_weights[k];
    if (draw <= 0.0) {
      trip.num_riders = static_cast<int>(k) + 1;
      break;
    }
  }
  return trip;
}

WorkloadDriver::WorkloadDriver(ArrivalProcess& process, RequestQueue& queue,
                               const RetryOptions& retry)
    : process_(&process), queue_(&queue), retry_(retry), rng_(retry.seed) {
  if (retry_.max_attempts < 0) retry_.max_attempts = 0;
  if (retry_.backoff_s <= 0.0) retry_.backoff_s = 0.5;
  if (retry_.jitter_frac < 0.0) retry_.jitter_frac = 0.0;
}

std::optional<sim::Trip> WorkloadDriver::Peek() {
  if (!lookahead_) lookahead_ = process_->Next();
  return lookahead_;
}

double WorkloadDriver::NextBackoff(int attempts) {
  double delay = retry_.backoff_s;
  for (int i = 1; i < attempts; ++i) delay *= 2.0;
  // Jitter spreads a rejected burst's retries out instead of letting
  // them re-collide on the same tick; seeded, so the schedule is part
  // of the deterministic replay.
  if (retry_.jitter_frac > 0.0) {
    delay *= 1.0 + rng_.UniformDouble(0.0, retry_.jitter_frac);
  }
  return delay;
}

void WorkloadDriver::OfferVirtual(IngestedTrip item, double now_s,
                                  int rejections) {
  if (queue_->TryPush(item)) {
    if (rejections > 0) ++retried_;
    return;
  }
  ++rejections;
  if (rejections > retry_.max_attempts) {
    ++gave_up_;
    return;
  }
  PendingRetry p;
  p.item = std::move(item);
  p.due_s = now_s + NextBackoff(rejections);
  p.attempts = rejections;
  pending_.push_back(std::move(p));
}

size_t WorkloadDriver::PumpUntil(double now_s) {
  // Due retries first: their rejection preceded every arrival of this
  // tick. Exactly the current entries are visited once (re-queued items
  // append behind the untouched tail, outside the pop budget).
  for (size_t i = pending_.size(); i > 0; --i) {
    PendingRetry p = std::move(pending_.front());
    pending_.pop_front();
    if (p.due_s > now_s) {
      pending_.push_back(std::move(p));
      continue;
    }
    OfferVirtual(std::move(p.item), now_s, p.attempts);
  }
  size_t offered_now = 0;
  while (true) {
    std::optional<sim::Trip> trip = Peek();
    if (!trip || trip->time_s > now_s) break;
    lookahead_.reset();
    // The stamp is the arrival instant and survives retries — the rider
    // has been waiting since then, whatever the queue said.
    OfferVirtual(IngestedTrip{*trip, trip->time_s}, now_s, 0);
    ++offered_;
    ++offered_now;
  }
  return offered_now;
}

void WorkloadDriver::RunBlocking(ServiceClock& clock) {
  while (true) {
    std::optional<sim::Trip> trip = Peek();
    if (!trip) break;
    lookahead_.reset();
    clock.SleepUntilS(trip->time_s);
    ++offered_;
    int rejections = 0;
    bool pushed = false;
    while (true) {
      if (queue_->TryPush(IngestedTrip{*trip, clock.NowS()})) {
        pushed = true;
        break;
      }
      ++rejections;
      if (rejections > retry_.max_attempts) break;
      // In-line capped backoff sleep: open-loop arrivals queue up behind
      // it, which is honest — one producer connection really would stall.
      const double delay =
          std::min(NextBackoff(rejections), kMaxRetrySleepS);
      clock.SleepUntilS(clock.NowS() + delay);
    }
    if (pushed) {
      if (rejections > 0) ++retried_;
    } else {
      ++gave_up_;
    }
  }
  queue_->Close();
}

void WorkloadDriver::GiveUpPending() {
  gave_up_ += pending_.size();
  pending_.clear();
}

}  // namespace ptrider::service
