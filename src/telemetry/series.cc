#include "src/telemetry/series.h"

#include <algorithm>
#include <utility>

namespace sdc {

SeriesRecorder::SeriesRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void SeriesRecorder::Append(std::string_view series, SeriesClock clock, double x,
                            double value) {
  const SeriesPoint point{x, value};
  AppendPoints(series, clock, std::span<const SeriesPoint>(&point, 1));
}

void SeriesRecorder::AppendPoints(std::string_view series, SeriesClock clock,
                                  std::span<const SeriesPoint> points) {
  if (points.empty()) {
    return;  // like zero Append calls: no ring, so no pinned clock
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rings_.find(series);
  if (it == rings_.end()) {
    Ring ring;
    ring.clock = clock;
    ring.points.reserve(std::min<size_t>(capacity_, 64));
    it = rings_.emplace(std::string(series), std::move(ring)).first;
  }
  Ring& ring = it->second;
  for (const SeriesPoint& point : points) {
    ring.total_points++;
    if (ring.points.size() < capacity_) {
      ring.points.push_back(point);
      continue;
    }
    // Ring is full: overwrite the oldest slot and advance the window.
    ring.points[ring.start] = point;
    ring.start = (ring.start + 1) % capacity_;
  }
}

SeriesSnapshot SeriesRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SeriesSnapshot snapshot;
  for (const auto& [name, ring] : rings_) {
    SeriesData data;
    data.clock = ring.clock;
    data.total_points = ring.total_points;
    data.dropped = ring.total_points - ring.points.size();
    data.points.reserve(ring.points.size());
    // Unroll the circular buffer into oldest-first order.
    for (size_t i = 0; i < ring.points.size(); ++i) {
      data.points.push_back(ring.points[(ring.start + i) % ring.points.size()]);
    }
    (ring.clock == SeriesClock::kSim ? snapshot.sim : snapshot.host)
        .emplace(name, std::move(data));
  }
  return snapshot;
}

void SeriesRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
}

}  // namespace sdc
