// Discrete-event simulator core.
//
// Single-threaded and deterministic: runnable events are totally ordered by
// (timestamp, insertion sequence), so two runs with the same seeds produce
// identical traces. Processes are sim::Task coroutines; all wake-ups —
// delays, channel sends, barrier releases — go through the event queue
// rather than resuming inline, which keeps the ordering discipline in one
// place.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace pgxd::sim {

// Schedule-perturbation explorer (off by default). When enabled, events
// scheduled for the same timestamp are delivered in a seeded-random order
// instead of insertion order, and schedule_now() wake-ups — channel
// handoffs, barrier releases, cancellation wakes — are jittered by a
// seeded uniform draw from [0, wake_jitter]. Each seed yields one fully
// deterministic alternative schedule, so an ordering bug found by the fuzz
// sweep reproduces from its seed alone. Timed events (delay, deadlines)
// keep their exact timestamps: perturbation explores *ordering* freedom
// the simulation semantics already permit, not clock skew.
struct PerturbConfig {
  bool enabled = false;
  std::uint64_t seed = 0;
  SimTime wake_jitter = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  SimTime now() const { return now_; }

  // Schedules a suspended coroutine to be resumed at absolute time `at`.
  // This is the single wake-up entry point used by all awaitables.
  void schedule_at(SimTime at, std::coroutine_handle<> h);
  // Same-instant wake-up; the only scheduling path the perturbation mode's
  // wake jitter applies to (timed events keep exact timestamps).
  void schedule_now(std::coroutine_handle<> h) {
    schedule_at(now_ + wake_jitter(), h);
  }

  // Must be set before the first event is scheduled (the tiebreak keys of
  // already-queued events cannot be rewritten).
  void set_perturbation(const PerturbConfig& cfg) {
    PGXD_CHECK_MSG(queue_.empty() && next_seq_ == 0,
                   "set_perturbation after events were scheduled");
    PGXD_CHECK_MSG(cfg.wake_jitter >= 0, "negative wake_jitter");
    perturb_ = cfg;
    perturb_rng_ = Rng(cfg.seed);
  }
  const PerturbConfig& perturbation() const { return perturb_; }

  // Asks run()/run_until() to return before the next event. Used by the
  // wait-for graph to abort a detected deadlock at the wedge instant
  // instead of idling behind heartbeat timers.
  void request_stop() { stop_requested_ = true; }

  // Like schedule_at, but returns a ticket that can remove the wake-up
  // before it fires (see cancel). Timeout builds on this so an abandoned
  // deadline neither resumes its waiter nor advances the clock to it.
  std::uint64_t schedule_cancellable(SimTime at, std::coroutine_handle<> h);

  // Removes a cancellable wake-up. Returns true if it was still pending
  // (it will now never fire); false if it already fired or was cancelled.
  bool cancel(std::uint64_t ticket);

  // Registers a root process; it starts at the current time. The simulator
  // owns the coroutine frame from this point on.
  void spawn(Task<void> task);

  // Timed suspension: `co_await sim.delay(dt)`.
  auto delay(SimTime dt) {
    struct Awaiter {
      Simulator& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_at(sim.now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    PGXD_CHECK_MSG(dt >= 0, "negative delay");
    return Awaiter{*this, dt};
  }

  // Runs until no events remain. Returns the final simulated time. Processes
  // still suspended on synchronization objects are left suspended (their
  // frames are destroyed with the simulator); use `quiescent()` to detect
  // that situation in tests.
  SimTime run();

  // Runs events with timestamp <= t, then sets now() = t.
  SimTime run_until(SimTime t);

  // True when every spawned root process has run to completion.
  bool quiescent() const { return live_roots_ == 0; }

  // The simulator currently executing an event (null outside step()). Used
  // by task final-awaiters to schedule their continuations.
  static Simulator* current();

  std::uint64_t events_processed() const { return events_processed_; }

 private:
  friend struct detail::PromiseBase;

  struct Scheduled {
    SimTime at;
    // Same-timestamp tiebreak: 0 in normal runs (insertion order via seq),
    // a seeded-random key under perturbation (seq still breaks pri ties,
    // keeping the order total and deterministic per seed).
    std::uint64_t pri;
    std::uint64_t seq;
    std::coroutine_handle<> handle;

    bool operator>(const Scheduled& o) const {
      if (at != o.at) return at > o.at;
      if (pri != o.pri) return pri > o.pri;
      return seq > o.seq;
    }
  };

  SimTime wake_jitter() {
    if (!perturb_.enabled || perturb_.wake_jitter == 0) return 0;
    return static_cast<SimTime>(perturb_rng_.bounded(
        static_cast<std::uint64_t>(perturb_.wake_jitter) + 1));
  }

  using RootHandle = std::coroutine_handle<Task<void>::promise_type>;

  void reclaim(detail::PromiseBase& promise);
  void drain_reclaimed();
  void step(const Scheduled& ev);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t live_roots_ = 0;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>> queue_;
  // Cancellation is lazy: a cancelled seq stays in the heap and is skipped
  // (without advancing the clock) when it reaches the top.
  std::unordered_set<std::uint64_t> cancellable_live_;
  std::unordered_set<std::uint64_t> cancelled_;
  // Finished roots awaiting destruction at the end of the current step.
  std::vector<detail::PromiseBase*> reclaimed_;
  // Frames owned by the simulator. Each root's promise holds its index
  // (root_slot), so reclaiming one is a swap-remove.
  std::vector<RootHandle> roots_;
  PerturbConfig perturb_;
  Rng perturb_rng_{0};
  bool stop_requested_ = false;
};

}  // namespace pgxd::sim
