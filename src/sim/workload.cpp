#include "sim/workload.h"

#include <algorithm>
#include <cmath>

#include "roadnet/vertex_locator.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ptrider::sim {

util::Result<std::vector<Trip>> GenerateHotspotTrips(
    const roadnet::RoadNetwork& graph,
    const HotspotWorkloadOptions& options) {
  if (graph.NumVertices() < 2) {
    return util::Status::FailedPrecondition(
        "workload needs at least two vertices");
  }
  if (options.duration_s <= 0.0) {
    return util::Status::InvalidArgument("duration must be positive");
  }
  if (options.num_hotspots < 1) {
    return util::Status::InvalidArgument("need at least one hotspot");
  }

  util::Rng rng(options.seed);
  const roadnet::VertexLocator locator(graph);

  // Hotspot centers: random vertices (so they lie on the network).
  std::vector<util::Point> hotspots;
  hotspots.reserve(static_cast<size_t>(options.num_hotspots));
  for (int i = 0; i < options.num_hotspots; ++i) {
    const auto v = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph.NumVertices()) - 1));
    hotspots.push_back(graph.Coord(v));
  }

  auto sample_endpoint = [&](double bias) -> roadnet::VertexId {
    if (rng.Bernoulli(bias)) {
      const size_t h = static_cast<size_t>(
          rng.UniformInt(0, options.num_hotspots - 1));
      const util::Point p{
          hotspots[h].x + rng.Normal(0.0, options.hotspot_stddev_m),
          hotspots[h].y + rng.Normal(0.0, options.hotspot_stddev_m)};
      return locator.Nearest(p);
    }
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph.NumVertices()) - 1));
  };

  const std::vector<double> hour_weights(options.hourly_profile.begin(),
                                         options.hourly_profile.end());
  const std::vector<double> group_weights(options.group_weights.begin(),
                                          options.group_weights.end());
  const double hour_span = options.duration_s / 24.0;

  std::vector<Trip> trips;
  trips.reserve(options.num_trips);
  while (trips.size() < options.num_trips) {
    Trip t;
    const size_t hour = rng.WeightedIndex(hour_weights);
    t.time_s = (static_cast<double>(hour) + rng.UniformDouble()) * hour_span;
    t.origin = sample_endpoint(options.origin_hotspot_bias);
    t.destination = sample_endpoint(options.destination_hotspot_bias);
    if (t.origin == t.destination) continue;  // resample degenerate trip
    t.num_riders = static_cast<int>(rng.WeightedIndex(group_weights)) + 1;
    trips.push_back(t);
  }
  std::sort(trips.begin(), trips.end(),
            [](const Trip& a, const Trip& b) { return a.time_s < b.time_s; });
  return trips;
}

util::Status SaveTrips(const std::vector<Trip>& trips,
                       const std::string& path) {
  util::CsvWriter writer(path);
  PTRIDER_RETURN_IF_ERROR(writer.status());
  writer.WriteRow({"# time_s", "origin", "destination", "riders"});
  for (const Trip& t : trips) {
    writer.WriteRow({util::StrFormat("%.3f", t.time_s),
                     util::StrFormat("%d", t.origin),
                     util::StrFormat("%d", t.destination),
                     util::StrFormat("%d", t.num_riders)});
  }
  return writer.Flush();
}

util::Result<std::vector<Trip>> LoadTrips(const roadnet::RoadNetwork& graph,
                                          const std::string& path) {
  util::CsvReader reader(path);
  PTRIDER_RETURN_IF_ERROR(reader.status());
  std::vector<Trip> trips;
  std::vector<std::string> fields;
  // Parse failures name the offending line — a 432k-row real trace is
  // useless to debug from "not an integer" alone.
  const auto at_line = [&reader](const util::Status& error) {
    return util::Status(error.code(),
                        util::StrFormat("line %zu: %s",
                                        reader.line_number(),
                                        error.message().c_str()));
  };
  // Real trace exports ship with a `time_s,origin,destination,riders`
  // header row; accept it (first record only — a header further down is
  // a malformed row and still names its line) on top of the '#' comment
  // and blank lines CsvReader already skips.
  const auto is_header = [](const std::vector<std::string>& row) {
    return row.size() == 4 && util::Trim(row[0]) == "time_s" &&
           util::Trim(row[1]) == "origin" &&
           util::Trim(row[2]) == "destination" &&
           util::Trim(row[3]) == "riders";
  };
  bool first_record = true;
  while (reader.Next(fields)) {
    if (first_record) {
      first_record = false;
      if (is_header(fields)) continue;
    }
    if (fields.size() != 4) {
      return util::Status::InvalidArgument(util::StrFormat(
          "line %zu: trip rows need 4 fields", reader.line_number()));
    }
    Trip t;
    const auto time_s = util::ParseDouble(fields[0]);
    if (!time_s.ok()) return at_line(time_s.status());
    // strtod reads "nan" and "inf"; neither is a submission time, and
    // NaN would break the sort below.
    if (!std::isfinite(*time_s)) {
      return util::Status::InvalidArgument(util::StrFormat(
          "line %zu: trip time must be finite", reader.line_number()));
    }
    t.time_s = *time_s;
    const auto o = util::ParseInt(fields[1]);
    if (!o.ok()) return at_line(o.status());
    const auto d = util::ParseInt(fields[2]);
    if (!d.ok()) return at_line(d.status());
    const auto n = util::ParseInt(fields[3]);
    if (!n.ok()) return at_line(n.status());
    t.origin = static_cast<roadnet::VertexId>(*o);
    t.destination = static_cast<roadnet::VertexId>(*d);
    t.num_riders = static_cast<int>(*n);
    if (!graph.IsValidVertex(t.origin) ||
        !graph.IsValidVertex(t.destination)) {
      return util::Status::OutOfRange(util::StrFormat(
          "line %zu: trip endpoints outside the network",
          reader.line_number()));
    }
    // Degenerate rows would be rejected downstream by
    // PTRider::ValidateRequest anyway; failing at load names the line.
    if (t.origin == t.destination) {
      return util::Status::InvalidArgument(util::StrFormat(
          "line %zu: trip origin equals destination",
          reader.line_number()));
    }
    if (t.num_riders < 1) {
      return util::Status::InvalidArgument(util::StrFormat(
          "line %zu: trip needs >= 1 rider", reader.line_number()));
    }
    trips.push_back(t);
  }
  std::sort(trips.begin(), trips.end(),
            [](const Trip& a, const Trip& b) { return a.time_s < b.time_s; });
  return trips;
}

}  // namespace ptrider::sim
