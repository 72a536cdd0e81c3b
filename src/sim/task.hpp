// Coroutine task type for discrete-event simulation processes.
//
// A sim::Task<T> is a lazily-started coroutine. It is resumed either by the
// Simulator (after a timed or synchronization await) or by a parent task
// `co_await`ing it (symmetric transfer on completion). A task spawned as a
// root process (Simulator::spawn) is owned by the simulator, which destroys
// the frame after completion.
//
// Exceptions thrown inside a task propagate to the awaiting parent; an
// exception escaping a root task aborts the simulation with a message
// (a simulator with a broken invariant must not keep producing numbers).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "common/assert.hpp"

namespace pgxd::sim {

class Simulator;

namespace detail {

// State shared by Task<T> and Task<void> promises.
struct PromiseBase {
  std::coroutine_handle<> continuation;  // parent waiting on us, if any
  std::exception_ptr exception;
  Simulator* owner = nullptr;  // set for root tasks; simulator reclaims frame
  std::size_t root_slot = 0;   // root tasks: index in the owner's root table
  bool done = false;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    // The continuation is *scheduled*, never resumed inline. Resuming it
    // here (symmetric transfer) would let the awaiting parent run — and
    // destroy this frame at the end of its co_await full-expression —
    // while this frame's resume chain is still on the C++ stack. Routing
    // the wake-up through the event queue guarantees a frame is only
    // destroyed from a fresh simulator step.
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      p.done = true;
      if (p.continuation) {
        PromiseBase::schedule_continuation(p.continuation);
        return std::noop_coroutine();
      }
      // Root task: hand the frame back to the simulator for destruction.
      if (p.owner) PromiseBase::reclaim_root(p.owner, p);
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }

 private:
  // Defined in simulator.cpp to avoid a circular include.
  static void reclaim_root(Simulator* sim, PromiseBase& promise);
  // Schedules `c` on the currently-stepping simulator at the current time.
  static void schedule_continuation(std::coroutine_handle<> c);
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  // Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  // when the task completes, yielding its value.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;

      bool await_ready() const noexcept { return child.promise().done; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // start the child now
      }
      T await_resume() {
        if (child.promise().exception)
          std::rethrow_exception(child.promise().exception);
        return std::move(child.promise().value);
      }
    };
    PGXD_CHECK_MSG(handle_ != nullptr, "awaiting a moved-from task");
    return Awaiter{handle_};
  }

  // Used by Simulator::spawn; transfers frame ownership to the simulator.
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  bool valid() const { return handle_ != nullptr; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;

      bool await_ready() const noexcept { return child.promise().done; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;
      }
      void await_resume() {
        if (child.promise().exception)
          std::rethrow_exception(child.promise().exception);
      }
    };
    PGXD_CHECK_MSG(handle_ != nullptr, "awaiting a moved-from task");
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  bool valid() const { return handle_ != nullptr; }

 private:
  friend class Simulator;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace pgxd::sim
