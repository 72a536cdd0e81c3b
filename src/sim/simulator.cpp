#include "sim/simulator.hpp"

#include <cstdio>
#include <cstdlib>

namespace pgxd::sim {

namespace {
// The simulator whose step() is currently on the stack. Single-threaded
// simulation; thread_local only so independent simulators on different
// threads don't interfere.
thread_local Simulator* g_current_simulator = nullptr;
}  // namespace

Simulator* Simulator::current() { return g_current_simulator; }

namespace detail {

void PromiseBase::reclaim_root(Simulator* sim, PromiseBase& promise) {
  sim->reclaim(promise);
}

void PromiseBase::schedule_continuation(std::coroutine_handle<> c) {
  Simulator* sim = Simulator::current();
  PGXD_CHECK_MSG(sim != nullptr,
                 "a sim::Task completed outside of a simulator step");
  sim->schedule_now(c);
}

}  // namespace detail

Simulator::~Simulator() {
  // Destroy still-suspended root frames (their nested child frames are
  // destroyed transitively through the Task members they hold).
  for (auto h : roots_)
    if (h) h.destroy();
}

void Simulator::schedule_at(SimTime at, std::coroutine_handle<> h) {
  PGXD_CHECK_MSG(at >= now_, "scheduling into the past");
  PGXD_CHECK(h != nullptr);
  const std::uint64_t pri = perturb_.enabled ? perturb_rng_.next() : 0;
  queue_.push(Scheduled{at, pri, next_seq_++, h});
}

std::uint64_t Simulator::schedule_cancellable(SimTime at,
                                              std::coroutine_handle<> h) {
  const std::uint64_t ticket = next_seq_;
  schedule_at(at, h);
  cancellable_live_.insert(ticket);
  return ticket;
}

bool Simulator::cancel(std::uint64_t ticket) {
  if (cancellable_live_.erase(ticket) == 0) return false;
  cancelled_.insert(ticket);
  return true;
}

void Simulator::spawn(Task<void> task) {
  auto h = task.release();
  PGXD_CHECK_MSG(h != nullptr, "spawning an empty task");
  h.promise().owner = this;
  h.promise().root_slot = roots_.size();
  roots_.push_back(h);
  ++live_roots_;
  schedule_now(h);
}

void Simulator::reclaim(detail::PromiseBase& promise) {
  if (promise.exception) {
    // A root process died with no awaiter to receive the exception. The
    // simulation state is unreliable from here on; fail loudly.
    try {
      std::rethrow_exception(promise.exception);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sim: unhandled exception in root process: %s\n",
                   e.what());
    } catch (...) {
      std::fprintf(stderr, "sim: unhandled non-standard exception in root process\n");
    }
    std::abort();
  }
  reclaimed_.push_back(&promise);
  PGXD_CHECK(live_roots_ > 0);
  --live_roots_;
}

// Swap-removes each finished root from the table, re-pointing the moved
// root's slot. The slot is read at drain time, not at reclaim time: an
// earlier removal in the same drain may have moved a later root.
void Simulator::drain_reclaimed() {
  for (detail::PromiseBase* promise : reclaimed_) {
    const std::size_t slot = promise->root_slot;
    PGXD_CHECK_MSG(slot < roots_.size() && &roots_[slot].promise() == promise,
                   "reclaimed frame is not a known root");
    const RootHandle h = roots_[slot];
    roots_[slot] = roots_.back();
    roots_[slot].promise().root_slot = slot;
    roots_.pop_back();
    h.destroy();
  }
  reclaimed_.clear();
}

void Simulator::step(const Scheduled& ev) {
  now_ = ev.at;
  ++events_processed_;
  Simulator* const prev = g_current_simulator;
  g_current_simulator = this;
  ev.handle.resume();
  g_current_simulator = prev;
  drain_reclaimed();
}

SimTime Simulator::run() {
  while (!queue_.empty() && !stop_requested_) {
    Scheduled ev = queue_.top();
    queue_.pop();
    if (cancelled_.erase(ev.seq)) continue;  // cancelled timer: never fires
    cancellable_live_.erase(ev.seq);
    step(ev);
  }
  return now_;
}

SimTime Simulator::run_until(SimTime t) {
  PGXD_CHECK(t >= now_);
  while (!queue_.empty() && queue_.top().at <= t && !stop_requested_) {
    Scheduled ev = queue_.top();
    queue_.pop();
    if (cancelled_.erase(ev.seq)) continue;
    cancellable_live_.erase(ev.seq);
    step(ev);
  }
  now_ = t;
  return now_;
}

}  // namespace pgxd::sim
