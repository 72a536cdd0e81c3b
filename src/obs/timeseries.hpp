// Time-series telemetry: periodic sim-time snapshots of cheap probes
// (mailbox depth, BufferPool occupancy, failure-detector suspicion, ...)
// into fixed-size ring buffers. A TimeSeriesSampler owns named probes and
// a sampling coroutine driven by sim::Timeout: the loop samples at the
// start instant and then every `interval`, and request_stop() cancels the
// armed timer outright, so an idle sampler never advances the clock or
// delays quiescence (same stop discipline as rt::FailureDetector).
//
// The collected data exports two ways: a `timeseries` JSON block in the
// SortReport (TimeSeriesDump::write_json) and Chrome counter events
// ("ph":"C") via obs::chrome_trace_json, which Perfetto renders as live
// per-rank graphs under the rank lanes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "obs/json.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timeout.hpp"

namespace pgxd::obs {

struct TimeSeriesPoint {
  sim::SimTime t = 0;
  double v = 0.0;

  TimeSeriesPoint() = default;
  TimeSeriesPoint(sim::SimTime t_in, double v_in) : t(t_in), v(v_in) {}
};

// Fixed-capacity ring buffer of (sim-time, value) points: pushing past
// capacity drops the oldest point and counts the drop, so a sampler left
// running on a long simulation has bounded memory and says how much
// history it shed.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity) : buf_(capacity) {
    PGXD_CHECK(capacity > 0);
  }

  void push(sim::SimTime t, double v) {
    if (size_ == buf_.size()) {
      buf_[head_] = TimeSeriesPoint(t, v);
      head_ = (head_ + 1) % buf_.size();
      ++dropped_;
      return;
    }
    buf_[(head_ + size_) % buf_.size()] = TimeSeriesPoint(t, v);
    ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  // Points shed off the old end after the ring filled.
  std::uint64_t dropped() const { return dropped_; }
  // i in [0, size()), oldest first.
  const TimeSeriesPoint& at(std::size_t i) const {
    PGXD_CHECK(i < size_);
    return buf_[(head_ + i) % buf_.size()];
  }

 private:
  std::vector<TimeSeriesPoint> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

// Value snapshot of a sampler, detached from the probes — what reports
// embed and exporters consume after the simulation has completed.
struct TimeSeriesDump {
  struct Series {
    std::string name;
    std::size_t capacity = 0;
    std::uint64_t dropped = 0;
    std::vector<TimeSeriesPoint> points;

    Series() = default;
  };

  sim::SimTime interval = 0;
  std::vector<Series> series;

  bool empty() const { return series.empty(); }

  // {"interval_ns": n, "series": {"<name>": {"capacity": c, "dropped": d,
  //  "points": [[t_ns, value], ...]}, ...}}
  void write_json(JsonWriter& w) const {
    w.begin_object();
    w.key("interval_ns");
    w.value(static_cast<std::uint64_t>(interval));
    w.key("series");
    w.begin_object();
    for (const auto& s : series) {
      w.key(s.name);
      w.begin_object();
      w.key("capacity");
      w.value(static_cast<std::uint64_t>(s.capacity));
      w.key("dropped");
      w.value(s.dropped);
      w.key("points");
      w.begin_array();
      for (const auto& p : s.points) {
        w.begin_array();
        w.value(static_cast<std::uint64_t>(p.t));
        w.value(p.v);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(sim::SimTime interval = 200 * sim::kMicrosecond,
                             std::size_t capacity = 512)
      : interval_(interval), capacity_(capacity) {
    PGXD_CHECK(interval_ > 0);
  }

  // Registers a named probe. Probes run at every tick, on the simulation
  // thread, and must be cheap and side-effect-free (they observe live
  // cluster state mid-run).
  void add(std::string name, std::function<double()> probe) {
    entries_.push_back(Entry{std::move(name), std::move(probe),
                             TimeSeries(capacity_)});
  }

  bool running() const { return running_; }

  // One synchronous snapshot of every probe at instant `now` — also usable
  // without a running loop (tests, end-of-run final sample).
  void sample_once(sim::SimTime now) {
    for (auto& e : entries_) e.data.push(now, e.probe());
  }

  // Spawns the sampling loop as a root simulation process. The caller
  // (Cluster::run_on) pairs it with request_stop() when the workload
  // completes, exactly like the failure detector's lifecycle.
  void start(sim::Simulator& sim) {
    PGXD_CHECK_MSG(!running_, "sampler started twice without a stop");
    stopping_ = false;
    running_ = true;
    sim.spawn(loop(sim));
  }

  // Stops the loop at the current instant: the armed sim::Timeout is
  // cancelled (its deadline event is removed outright), so stopping never
  // advances the simulated clock.
  void request_stop() {
    stopping_ = true;
    if (timer_ != nullptr) timer_->cancel();
  }

  TimeSeriesDump dump() const {
    TimeSeriesDump out;
    out.interval = interval_;
    out.series.reserve(entries_.size());
    for (const auto& e : entries_) {
      TimeSeriesDump::Series s;
      s.name = e.name;
      s.capacity = e.data.capacity();
      s.dropped = e.data.dropped();
      s.points.reserve(e.data.size());
      for (std::size_t i = 0; i < e.data.size(); ++i)
        s.points.push_back(e.data.at(i));
      out.series.push_back(std::move(s));
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::function<double()> probe;
    TimeSeries data;

    Entry(std::string n, std::function<double()> p, TimeSeries d)
        : name(std::move(n)), probe(std::move(p)), data(std::move(d)) {}
  };

  sim::Task<void> loop(sim::Simulator& sim) {
    while (!stopping_) {
      sample_once(sim.now());
      sim::Timeout tick(sim, interval_);
      timer_ = &tick;
      co_await tick.wait();
      timer_ = nullptr;
    }
    running_ = false;
  }

  std::vector<Entry> entries_;
  sim::SimTime interval_;
  std::size_t capacity_;
  bool stopping_ = false;
  bool running_ = false;
  sim::Timeout* timer_ = nullptr;
};

}  // namespace pgxd::obs
