// Synchronization primitives for simulation processes.
//
// All wake-ups are routed through Simulator::schedule_* — a primitive never
// resumes a waiter inline — so event ordering stays deterministic and a
// firing process keeps running until its own next suspension point, exactly
// like a SimPy-style kernel.
//
// Channel uses *direct handoff*: a sent value destined for a queued
// receiver is handed to that receiver's awaiter object rather than queued,
// so a process that calls recv() between the wake-up being scheduled and
// the receiver actually resuming cannot steal it.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace pgxd::sim {

// Cyclic barrier over a fixed number of participants; reusable across
// rounds. The last arriver of a round does not suspend; it releases the
// round's waiters and continues.
class Barrier {
 public:
  Barrier(Simulator& sim, std::size_t participants)
      : sim_(sim), participants_(participants) {
    PGXD_CHECK(participants > 0);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  auto arrive() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() const noexcept { return false; }
      // Returning false resumes immediately (last arriver path).
      bool await_suspend(std::coroutine_handle<> h) {
        ++b.arrived_;
        if (b.arrived_ == b.participants_) {
          b.arrived_ = 0;
          for (auto w : b.waiters_) b.sim_.schedule_now(w);
          b.waiters_.clear();
          return false;
        }
        b.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::size_t waiting() const { return arrived_; }

 private:
  Simulator& sim_;
  std::size_t participants_;
  std::size_t arrived_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Unbounded FIFO channel. send() never suspends; recv() suspends until a
// value is available. Values are delivered in send order; receivers are
// served in arrival order, each receiving its value by direct handoff.
//
// recv_until(deadline) is the timed variant: it resolves to the next value
// or, if none arrives by the absolute deadline, to std::nullopt. The
// deadline is a cancellable simulator event — a receive satisfied before
// its deadline cancels the timer, and a cancelled timer never advances the
// clock, so timed receives on the fast path are timing-neutral.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Queued-receiver record shared by the plain and timed awaiters. send()
  // hands the value into `handed`; a non-zero `ticket` names the waiter's
  // pending deadline event, which send() cancels on handoff (the cancel
  // always succeeds: a waiter whose timer fired has already removed itself
  // from the queue before anyone could observe it).
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> handed;
    std::uint64_t ticket = 0;
  };

  struct [[nodiscard]] RecvAwaiter {
    Channel& ch;
    Waiter w;

    bool await_ready() const noexcept {
      return !ch.values_.empty() && ch.waiters_.empty();
    }
    void await_suspend(std::coroutine_handle<> h) {
      w.handle = h;
      ch.waiters_.push_back(&w);
    }
    T await_resume() {
      if (w.handed) {
        PGXD_DCHECK(ch.handed_pending_ > 0);
        --ch.handed_pending_;
        return std::move(*w.handed);
      }
      PGXD_CHECK_MSG(!ch.values_.empty(), "channel resumed without a value");
      T v = std::move(ch.values_.front());
      ch.values_.pop_front();
      return v;
    }
  };

  struct [[nodiscard]] RecvUntilAwaiter {
    Channel& ch;
    SimTime deadline;
    Waiter w;

    bool await_ready() const noexcept {
      return (!ch.values_.empty() && ch.waiters_.empty()) ||
             deadline <= ch.sim_.now();
    }
    void await_suspend(std::coroutine_handle<> h) {
      w.handle = h;
      ch.waiters_.push_back(&w);
      w.ticket = ch.sim_.schedule_cancellable(deadline, h);
    }
    std::optional<T> await_resume() {
      if (w.handed) {
        PGXD_DCHECK(ch.handed_pending_ > 0);
        --ch.handed_pending_;
        return std::move(w.handed);
      }
      // Woken by the deadline (still queued): leave empty-handed.
      auto it = std::find(ch.waiters_.begin(), ch.waiters_.end(), &w);
      if (it != ch.waiters_.end()) {
        ch.waiters_.erase(it);
        return std::nullopt;
      }
      // Never suspended: take a ready value if one is claimable, else the
      // deadline had already passed on entry.
      if (!ch.values_.empty() && ch.waiters_.empty()) {
        std::optional<T> v = std::move(ch.values_.front());
        ch.values_.pop_front();
        return v;
      }
      return std::nullopt;
    }
  };

  void send(T value) {
    if (!waiters_.empty()) {
      Waiter* w = waiters_.front();
      waiters_.pop_front();
      if (w->ticket != 0) {
        const bool pending = sim_.cancel(w->ticket);
        PGXD_CHECK_MSG(pending, "timed channel receiver woken twice");
        w->ticket = 0;
      }
      w->handed = std::move(value);
      ++handed_pending_;
      sim_.schedule_now(w->handle);
      return;
    }
    values_.push_back(std::move(value));
  }

  RecvAwaiter recv() { return RecvAwaiter{*this, Waiter{}}; }

  RecvUntilAwaiter recv_until(SimTime deadline) {
    return RecvUntilAwaiter{*this, deadline, Waiter{}};
  }

  std::optional<T> try_recv() {
    if (values_.empty() || !waiters_.empty()) return std::nullopt;
    T v = std::move(values_.front());
    values_.pop_front();
    return v;
  }

  // Discards all unclaimed values (queued receivers, if any, stay queued).
  // The recovery supervisor's between-attempts reset: messages from an
  // aborted attempt must not leak into the next one.
  void clear() { values_.clear(); }

  // Unclaimed values (not counting values already handed to waking receivers).
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Receivers currently suspended in recv() (diagnostics: a non-empty
  // waiter list at the end of a run names who is blocked on what).
  std::size_t waiting() const { return waiters_.size(); }
  // Values handed directly to a woken-but-not-yet-resumed receiver. The
  // wait-for graph's satisfiability probe needs these: the receiver's wait
  // edge is still registered during the handoff-to-resume window, and a
  // handed value proves it is about to wake.
  std::size_t handed_pending() const { return handed_pending_; }

 private:
  Simulator& sim_;
  std::deque<T> values_;
  std::deque<Waiter*> waiters_;
  std::size_t handed_pending_ = 0;
};

}  // namespace pgxd::sim
