#ifndef PTRIDER_BENCH_PTRIDER_BENCH_HARNESS_H_
#define PTRIDER_BENCH_PTRIDER_BENCH_HARNESS_H_

// Measurement scaffolding for one repetition process of the PTRider
// benchmark (README.md): the shared report signature, host facts, peak
// RSS, an in-memory span recorder that writes Chrome trace-event JSON,
// and a flat JSON writer. Scheduling repetitions (warm-up, interleaving,
// a fresh process each) and aggregating them (median, quartiles, min,
// max, sample count) is run.py's job.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/metrics.h"
#include "util/stats.h"

namespace ptrider::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps `value` (and the work that produced it) from being optimized
/// away in timing loops.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- Report signature --------------------------------------------------------

inline uint64_t HashCombine(uint64_t h, uint64_t x) {
  return (h ^ (x + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Signature over everything deterministic a report promises: counts,
/// revenue, exact fleet distances and service-quality sums — the field
/// set bench_e22_pipeline hashes. Wall-clock fields are excluded by
/// construction, so two runs of one seed must agree bit for bit.
inline uint64_t ReportSignature(const sim::SimulationReport& r) {
  uint64_t h = 1469598103934665603ULL;
  h = HashCombine(h, static_cast<uint64_t>(r.requests_assigned));
  h = HashCombine(h, static_cast<uint64_t>(r.requests_completed));
  h = HashCombine(h, static_cast<uint64_t>(r.requests_shared));
  h = HashCombine(h, static_cast<uint64_t>(r.requests_declined));
  h = HashCombine(h, DoubleBits(r.revenue_total));
  h = HashCombine(h, DoubleBits(r.fleet_total_distance_m));
  h = HashCombine(h, DoubleBits(r.fleet_occupied_distance_m));
  h = HashCombine(h, DoubleBits(r.fleet_shared_distance_m));
  h = HashCombine(h, DoubleBits(r.pickup_wait_s.sum()));
  h = HashCombine(h, DoubleBits(r.quoted_price.sum()));
  h = HashCombine(h, DoubleBits(r.detour_ratio.sum()));
  h = HashCombine(h, DoubleBits(r.submit_delay_s.sum()));
  return h;
}

inline std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- Samples -----------------------------------------------------------------

/// Every sample a util::Percentiles holds, ascending. Value(p) interpolates
/// linearly between sorted samples, so querying it at each sample's rank
/// returns that sample; past the recorder's capacity this is its uniform
/// reservoir instead of the full stream.
inline std::vector<double> HeldSamples(const util::Percentiles& p,
                                       size_t capacity = size_t{1} << 16) {
  const size_t n = std::min(p.count(), capacity);
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(n == 1 ? p.Value(50.0)
                         : p.Value(100.0 * static_cast<double>(i) /
                                   static_cast<double>(n - 1)));
  }
  return out;
}

/// Quantile `q` in [0,1] of `v` with linear interpolation (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// --- Host --------------------------------------------------------------------

struct HostFacts {
  unsigned hardware_threads = 0;
  std::string cpu_model = "unknown";
  std::string build_type = "unknown";
  std::string compiler = "unknown";
};

inline HostFacts ReadHostFacts() {
  HostFacts h;
  h.hardware_threads = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) h.cpu_model = line.substr(start);
    break;
  }
#ifdef PTRIDER_BENCH_BUILD_TYPE
  h.build_type = PTRIDER_BENCH_BUILD_TYPE;
#endif
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#endif
  return h;
}

/// Peak resident set size of this process so far, MiB.
inline double PeakRssMiB() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Spans -------------------------------------------------------------------

/// In-memory trace spans — name, start, duration and the enclosing span —
/// opened and closed on one thread around calls into public library
/// functions. WriteChromeTrace emits trace-event JSON that Perfetto and
/// chrome://tracing open; SelfSeconds gives a layer's time minus the part
/// its child spans cover.
class SpanRecorder {
 public:
  /// Opens a span for the enclosing scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name)
        : recorder_(&recorder), id_(recorder.Begin(name)) {}
    ~Scope() { recorder_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    size_t id_;
  };

  size_t Begin(const char* name) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Span{name, SecondsSince(origin_), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t id) {
    spans_[id].dur_s = SecondsSince(origin_) - spans_[id].start_s;
    open_.pop_back();
  }

  /// Durations, seconds, of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.dur_s);
    }
    return out;
  }

  double TotalSeconds(const std::string& name) const {
    double total = 0.0;
    for (const double d : Durations(name)) total += d;
    return total;
  }

  /// Summed duration of spans named `name` minus their direct children's
  /// durations (children nest strictly, so they never overlap).
  double SelfSeconds(const std::string& name) const {
    double self = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) self += s.dur_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0 && name == spans_[static_cast<size_t>(s.parent)].name) {
        self -= s.dur_s;
      }
    }
    return self;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}",
                   i == 0 ? "" : ",", s.name, s.start_s * 1e6, s.dur_s * 1e6,
                   i, static_cast<long long>(s.parent));
    }
    std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literal
    double start_s;
    double dur_s;
    int64_t parent;  // index into spans_, -1 at top level
  };

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// --- JSON --------------------------------------------------------------------

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A flat JSON object built key by key, in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Array(const std::string& key, const std::vector<double>& v) {
    std::string body = "[";
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", v[i]);
      body += buf;
    }
    return Raw(key, body + "]");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += JsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace ptrider::bench

#endif  // PTRIDER_BENCH_PTRIDER_BENCH_HARNESS_H_
