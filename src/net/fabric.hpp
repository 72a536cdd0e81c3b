// Flow-level cluster network model.
//
// Models the paper's testbed fabric (Mellanox Connect-IB NICs + SX6512
// switch): every machine has a full-duplex NIC whose TX and RX sides
// serialize traffic at link bandwidth, connected through a switch with
// configurable oversubscription (1.0 = full bisection, matching a
// non-blocking SX6512). A message transfer costs
//
//   per-message overhead  +  bytes/bw on the TX port   (serialization)
//   + fabric latency                                    (propagation+switch)
//   + bytes/bw on the RX port                           (delivery)
//
// with FIFO queueing at every port, which is what makes incast patterns
// (everyone sending samples to the master) cost what they should.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace pgxd::net {

// FIFO-reservation resource: callers occupy it back-to-back in call order.
// Cheaper and exactly as deterministic as a semaphore-based model for
// serial links.
class SerialLink {
 public:
  // Reserves the link for `duration` starting at its next free instant and
  // returns an awaitable that completes when the reservation ends.
  auto occupy(sim::Simulator& sim, sim::SimTime duration) {
    PGXD_CHECK(duration >= 0);
    const sim::SimTime start = std::max(sim.now(), next_free_);
    next_free_ = start + duration;
    busy_ += duration;
    return sim.delay(next_free_ - sim.now());
  }

  sim::SimTime busy_time() const { return busy_; }

 private:
  sim::SimTime next_free_ = 0;
  sim::SimTime busy_ = 0;
};

// One entry of the deterministic crash-stop schedule: machine `rank` dies
// at simulated time `at` — its TX port transmits nothing (messages vanish
// at zero cost: a dead host issues no DMA) and traffic addressed to it is
// silently discarded before its RX port. `restart_after == 0` means the
// rank never comes back; otherwise its *ports* light up again at
// `at + restart_after` (the machine rebooted) — whatever process was
// running on it is still gone, which is the application layer's problem.
struct CrashEvent {
  std::size_t rank = 0;
  sim::SimTime at = 0;
  sim::SimTime restart_after = 0;  // 0 = crash-stop forever

  CrashEvent() = default;
  CrashEvent(std::size_t rank_, sim::SimTime at_,
             sim::SimTime restart_after_ = 0)
      : rank(rank_), at(at_), restart_after(restart_after_) {}
};

// Fault-injection model. The fabric can lose or duplicate individual
// messages, open transient blackout/degradation windows, slow down
// individual NICs, and crash-stop whole machines on a schedule.
// Per-message decisions come from one dedicated seeded RNG stream
// (independent of latency jitter) and the windows and crash schedule are
// pure functions of simulated time, so a (seed, config) pair replays
// bit-identically — chaos runs are as reproducible as clean ones.
struct FaultConfig {
  // Per-message loss probability: the message pays its TX cost, then
  // vanishes in the fabric before reaching the RX port.
  double drop_prob = 0.0;
  // Per-message probability that the RX port delivers two copies (e.g. a
  // retransmitting link layer whose original was not actually lost).
  double duplicate_prob = 0.0;
  // Blackout windows: within every `blackout_period`, messages entering
  // the switch during the first `blackout_duration` are lost. 0 disables.
  sim::SimTime blackout_period = 0;
  sim::SimTime blackout_duration = 0;
  // Degradation windows: port serialization slows by `degrade_factor` for
  // the first `degrade_duration` of every `degrade_period`. 0 disables.
  sim::SimTime degrade_period = 0;
  sim::SimTime degrade_duration = 0;
  double degrade_factor = 4.0;
  // Machines whose NIC serializes slower than line rate on both ports
  // (wire-time multiplier), modeling a flaky or mis-negotiated link.
  std::vector<std::size_t> slow_nics;
  double slow_nic_factor = 1.0;
  // Deterministic crash-stop schedule (see CrashEvent). Entries may target
  // the same rank more than once (crash, restart, crash again).
  std::vector<CrashEvent> crashes;
  // Seed of the fault-decision stream.
  std::uint64_t seed = 0xfa017;

  bool any() const {
    return drop_prob > 0 || duplicate_prob > 0 ||
           (blackout_period > 0 && blackout_duration > 0) ||
           (degrade_period > 0 && degrade_duration > 0) ||
           (!slow_nics.empty() && slow_nic_factor != 1.0) || !crashes.empty();
  }

  // Rejects nonsensical configurations with a named error instead of
  // letting them silently skew a chaos run (a probability of 1.5, a window
  // longer than its period, a degrade factor that *speeds links up*...).
  // Called by the Fabric constructor; `machines` bounds rank references.
  void validate(std::size_t machines) const;
};

// Outcome of one transfer under fault injection. copies == 0: the message
// was dropped (the awaiting sender still paid the TX-side cost); 1: normal
// delivery; 2: the RX port delivered a duplicate.
struct Delivery {
  int copies = 1;

  bool delivered() const { return copies > 0; }
  bool duplicated() const { return copies > 1; }
};

struct NetConfig {
  // Effective per-port bandwidth. 56 Gb/s raw FDR InfiniBand delivers about
  // 6 GB/s of payload after encoding/protocol overhead.
  double link_bandwidth_Bps = 6.0e9;
  // One-way end-to-end latency through the switch.
  sim::SimTime latency = 2 * sim::kMicrosecond;
  // Software/NIC cost paid per message on the send side (the LogP 'o').
  sim::SimTime per_message_overhead = 1 * sim::kMicrosecond;
  // >1.0 models a blocking switch core; 1.0 = full bisection bandwidth.
  double oversubscription = 1.0;

  // Optional two-tier topology: machines group into racks of `rack_size`
  // (0 = flat network). Traffic between racks traverses the source rack's
  // shared up-link and the destination rack's shared down-link at
  // `uplink_bandwidth_Bps` (0 = link rate) and pays `inter_rack_latency`
  // on top of `latency`. An up-link slower than rack_size * link rate
  // models top-of-rack oversubscription.
  std::size_t rack_size = 0;
  double uplink_bandwidth_Bps = 0;
  sim::SimTime inter_rack_latency = 0;

  // Latency jitter: each transfer pays an extra uniform [0, jitter_ns)
  // drawn from a deterministic per-fabric stream. Zero disables. Used by
  // robustness tests to perturb message arrival orderings — engines must
  // stay correct under any interleaving the fabric can produce.
  sim::SimTime jitter_ns = 0;
  std::uint64_t jitter_seed = 0x71771e;

  // Fault injection; FaultConfig{} (the default) is a perfect fabric.
  FaultConfig faults{};
};

struct NicStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  // Fault counters, attributed to the receiving NIC: messages that never
  // reached it, and messages it delivered twice. A duplicate also counts
  // twice in messages_received/bytes_received (both copies crossed the RX
  // port).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  // Messages lost to a crash-stop machine, attributed to the dead NIC:
  // counted at the sender when the *source* was down (it transmitted
  // nothing) and at the receiver when the *destination* was down (the
  // fabric delivered into a dark port).
  std::uint64_t messages_crash_dropped = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, std::size_t machines, const NetConfig& cfg);

  std::size_t machines() const { return nics_.size(); }
  const NetConfig& config() const { return cfg_; }

  // Moves `bytes` from machine `src` to machine `dst`; completes when the
  // last byte has been delivered at dst (or, for a dropped message, when
  // the fabric lost it), reporting the delivery outcome. With faults
  // disabled the outcome is always one copy. src == dst is a caller error:
  // local movement is memory traffic, modeled by the runtime's cost model.
  sim::Task<Delivery> transfer(std::size_t src, std::size_t dst,
                               std::uint64_t bytes);

  // Uncontended duration of a single transfer (for tests / cost estimates).
  sim::SimTime uncontended_duration(std::uint64_t bytes) const;

  const NicStats& stats(std::size_t machine) const { return stats_[machine]; }
  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;
  sim::SimTime tx_busy(std::size_t machine) const { return nics_[machine].tx.busy_time(); }
  sim::SimTime rx_busy(std::size_t machine) const { return nics_[machine].rx.busy_time(); }

  // Rack of a machine under the two-tier topology (machine id / rack_size);
  // always 0 on a flat network.
  std::size_t rack_of(std::size_t machine) const {
    return cfg_.rack_size ? machine / cfg_.rack_size : 0;
  }
  std::uint64_t inter_rack_bytes() const { return inter_rack_bytes_; }

  // Fault-counter aggregates.
  std::uint64_t total_dropped() const;
  std::uint64_t total_duplicated() const;
  std::uint64_t total_crash_dropped() const;

  // Crash-stop status: true when `machine` is dead at time `t` under the
  // configured crash schedule — a pure function of (schedule, t), so every
  // component (fabric, comm, detector, supervisor) agrees on liveness
  // without any shared mutable state.
  bool down(std::size_t machine, sim::SimTime t) const {
    for (const CrashEvent& c : cfg_.faults.crashes) {
      if (c.rank != machine || t < c.at) continue;
      if (c.restart_after == 0 || t < c.at + c.restart_after) return true;
    }
    return false;
  }

  // Earliest crash instant of `machine` in the half-open window (t0, t1],
  // if any — the recovery supervisor's "did anyone die during this
  // attempt?" query.
  std::optional<sim::SimTime> crashed_within(std::size_t machine,
                                             sim::SimTime t0,
                                             sim::SimTime t1) const {
    std::optional<sim::SimTime> first;
    for (const CrashEvent& c : cfg_.faults.crashes) {
      if (c.rank != machine || c.at <= t0 || c.at > t1) continue;
      if (!first || c.at < *first) first = c.at;
    }
    return first;
  }

  // Telemetry export: one machine's NicStats as net.nic.* counters plus its
  // port busy times as net.nic.*_busy_ns gauges — per-rank registries merge
  // into cluster totals (counters add, gauges keep the max).
  void export_metrics(obs::MetricsRegistry& reg, std::size_t machine) const;

 private:
  sim::SimTime wire_time(std::uint64_t bytes) const;
  // Phase-aligned transient window test: t falls in the first `duration`
  // of its `period`.
  static bool in_window(sim::SimTime t, sim::SimTime period,
                        sim::SimTime duration) {
    return period > 0 && duration > 0 && t % period < duration;
  }
  // Wire time through one machine's port, including its slow-NIC factor
  // and any degradation window active at time `at`.
  sim::SimTime port_wire_time(std::size_t machine, sim::SimTime wire,
                              sim::SimTime at) const;

  struct Nic {
    SerialLink tx;
    SerialLink rx;
  };
  struct Rack {
    SerialLink up;    // traffic leaving the rack
    SerialLink down;  // traffic entering the rack
  };

  sim::Simulator& sim_;
  NetConfig cfg_;
  std::vector<Nic> nics_;
  std::vector<NicStats> stats_;
  SerialLink switch_core_;
  double switch_core_bandwidth_Bps_;
  std::vector<Rack> racks_;
  double uplink_bandwidth_Bps_ = 0;
  std::uint64_t inter_rack_bytes_ = 0;
  Rng jitter_rng_{0};
  Rng fault_rng_{0};
  std::vector<double> nic_wire_factor_;  // per-machine slow-NIC multiplier
};

}  // namespace pgxd::net
