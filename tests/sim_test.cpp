// Tests for the discrete-event simulation kernel: deterministic ordering,
// coroutine task composition, and the synchronization primitives.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timeout.hpp"

namespace pgxd::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_micros(2.5), 2500);
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.quiescent());
  EXPECT_EQ(sim.run(), 0);
}

Task<void> delay_then_record(Simulator& sim, SimTime dt,
                             std::vector<SimTime>& log) {
  co_await sim.delay(dt);
  log.push_back(sim.now());
}

TEST(Simulator, DelayAdvancesClock) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 150, log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 150);
  EXPECT_EQ(sim.now(), 150);
  EXPECT_TRUE(sim.quiescent());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 300, log));
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 200, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
}

Task<void> tagged_delay(Simulator& sim, SimTime dt, int tag,
                        std::vector<int>& log) {
  co_await sim.delay(dt);
  log.push_back(tag);
}

TEST(Simulator, SimultaneousEventsKeepSpawnOrder) {
  // Equal timestamps break ties by insertion sequence — determinism.
  Simulator sim;
  std::vector<int> log;
  for (int i = 0; i < 8; ++i) sim.spawn(tagged_delay(sim, 50, i, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 500, log));
  sim.run_until(250);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  EXPECT_EQ(sim.now(), 250);
  EXPECT_FALSE(sim.quiescent());
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 500}));
  EXPECT_TRUE(sim.quiescent());
}

Task<int> compute_answer(Simulator& sim) {
  co_await sim.delay(10);
  co_return 42;
}

Task<void> await_child(Simulator& sim, int& out) {
  out = co_await compute_answer(sim);
}

TEST(Task, AwaitChildPropagatesValue) {
  Simulator sim;
  int out = 0;
  sim.spawn(await_child(sim, out));
  sim.run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(sim.now(), 10);
}

Task<int> thrower(Simulator& sim) {
  co_await sim.delay(5);
  throw std::runtime_error("boom");
}

Task<void> catcher(Simulator& sim, std::string& msg) {
  try {
    (void)co_await thrower(sim);
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulator sim;
  std::string msg;
  sim.spawn(catcher(sim, msg));
  sim.run();
  EXPECT_EQ(msg, "boom");
}

Task<void> nested_inner(Simulator& sim, std::vector<int>& log) {
  co_await sim.delay(1);
  log.push_back(2);
}

Task<void> nested_outer(Simulator& sim, std::vector<int>& log) {
  log.push_back(1);
  co_await nested_inner(sim, log);
  log.push_back(3);
}

TEST(Task, NestedAwaitRunsInOrder) {
  Simulator sim;
  std::vector<int> log;
  sim.spawn(nested_outer(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

// --- Barrier ---------------------------------------------------------------

Task<void> barrier_rounds(Simulator& sim, Barrier& bar, int id, SimTime work,
                          std::vector<std::pair<int, SimTime>>& log,
                          int rounds) {
  for (int r = 0; r < rounds; ++r) {
    co_await sim.delay(work * (id + 1));
    co_await bar.arrive();
    log.emplace_back(id, sim.now());
  }
}

TEST(Barrier, AllParticipantsLeaveAtSlowestArrival) {
  Simulator sim;
  Barrier bar(sim, 3);
  std::vector<std::pair<int, SimTime>> log;
  for (int id = 0; id < 3; ++id)
    sim.spawn(barrier_rounds(sim, bar, id, 10, log, 1));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  for (const auto& [id, t] : log) EXPECT_EQ(t, 30) << "participant " << id;
  EXPECT_TRUE(sim.quiescent());
}

TEST(Barrier, ReusableAcrossRounds) {
  // An early re-arrival in round 2 must not sneak through the barrier.
  Simulator sim;
  Barrier bar(sim, 3);
  std::vector<std::pair<int, SimTime>> log;
  for (int id = 0; id < 3; ++id)
    sim.spawn(barrier_rounds(sim, bar, id, 10, log, 3));
  sim.run();
  ASSERT_EQ(log.size(), 9u);
  // Round r completes when the slowest participant (id 2, 30ns/round) arrives.
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(log[i].second, 30 * (1 + static_cast<SimTime>(i / 3)));
  EXPECT_TRUE(sim.quiescent());
}

TEST(Barrier, SingleParticipantNeverBlocks) {
  Simulator sim;
  Barrier bar(sim, 1);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(barrier_rounds(sim, bar, 0, 5, log, 4));
  sim.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_TRUE(sim.quiescent());
}

// --- Channel ---------------------------------------------------------------

Task<void> producer(Simulator& sim, Channel<int>& ch, int count, SimTime gap) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(gap);
    ch.send(i);
  }
}

Task<void> consumer(Simulator& sim, Channel<int>& ch, int count,
                    std::vector<std::pair<int, SimTime>>& got) {
  for (int i = 0; i < count; ++i) {
    int v = co_await ch.recv();
    got.emplace_back(v, sim.now());
  }
}

TEST(Channel, DeliversInSendOrderAtSendTime) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, SimTime>> got;
  sim.spawn(consumer(sim, ch, 3, got));
  sim.spawn(producer(sim, ch, 3, 10));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].first, i);
    EXPECT_EQ(got[i].second, 10 * (i + 1));
  }
  EXPECT_TRUE(sim.quiescent());
}

TEST(Channel, BufferedValuesReadableWithoutBlocking) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(7);
  ch.send(8);
  EXPECT_EQ(ch.size(), 2u);
  std::vector<std::pair<int, SimTime>> got;
  sim.spawn(consumer(sim, ch, 2, got));
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 7);
  EXPECT_EQ(got[1].first, 8);
  EXPECT_EQ(got[0].second, 0);
}

Task<void> single_recv(Simulator& sim, Channel<int>& ch,
                       std::vector<std::pair<int, SimTime>>& got, SimTime at) {
  co_await sim.delay(at);
  int v = co_await ch.recv();
  got.emplace_back(v, sim.now());
}

TEST(Channel, QueuedReceiverBeatsNewcomer) {
  // A value sent while a receiver waits must go to that receiver even if a
  // second receiver shows up at the same instant.
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, SimTime>> got;
  sim.spawn(single_recv(sim, ch, got, 0));    // waits from t=0
  sim.spawn(producer(sim, ch, 1, 50));        // sends value 0 at t=50
  sim.spawn(single_recv(sim, ch, got, 50));   // arrives exactly at send time
  sim.spawn(producer(sim, ch, 1, 60));        // second value at t=60
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second, 50);
  EXPECT_EQ(got[1].second, 60);
}

TEST(Channel, TryRecvOnlyWhenNoWaiters) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(5);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
  EXPECT_FALSE(ch.try_recv().has_value());
}

// --- Stress: many interacting processes remain deterministic ---------------

Task<void> ring_node(Simulator& sim, Channel<int>& in, Channel<int>& out,
                     int hops, std::vector<int>& log, int id) {
  for (;;) {
    int token = co_await in.recv();
    log.push_back(id);
    if (token >= hops) co_return;
    co_await sim.delay(3);
    out.send(token + 1);
  }
}

TEST(Simulator, TokenRingIsDeterministic) {
  // A token circulates a ring of 5 processes 4 full laps; both runs must
  // produce the identical visit log and final clock.
  auto run_once = [](std::vector<int>& log) {
    Simulator sim;
    constexpr int kNodes = 5;
    constexpr int kHops = 20;
    std::vector<std::unique_ptr<Channel<int>>> chans;
    for (int i = 0; i < kNodes; ++i)
      chans.push_back(std::make_unique<Channel<int>>(sim));
    for (int i = 0; i < kNodes; ++i)
      sim.spawn(ring_node(sim, *chans[i], *chans[(i + 1) % kNodes], kHops, log, i));
    chans[0]->send(0);
    sim.run();
    return sim.now();
  };
  std::vector<int> log1, log2;
  const SimTime t1 = run_once(log1);
  const SimTime t2 = run_once(log2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(log1.size(), 21u);
  EXPECT_EQ(t1, 3 * 20);
}

struct TimeoutWake {
  SimTime at;
  bool expired;
};

Task<void> await_timeout(Simulator& sim, Timeout& t,
                         std::vector<TimeoutWake>& log) {
  co_await t.wait();
  log.push_back(TimeoutWake{sim.now(), t.expired()});
}

Task<void> cancel_after(Simulator& sim, Timeout& t, SimTime dt) {
  co_await sim.delay(dt);
  t.cancel();
}

TEST(Timeout, FiresAtDeadline) {
  Simulator sim;
  Timeout t(sim, 500);
  std::vector<TimeoutWake> log;
  sim.spawn(await_timeout(sim, t, log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].at, 500);
  EXPECT_TRUE(log[0].expired);
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(sim.now(), 500);
}

TEST(Timeout, CancelWakesWaiterAtCancelInstant) {
  Simulator sim;
  Timeout t(sim, 1000);
  std::vector<TimeoutWake> log;
  sim.spawn(await_timeout(sim, t, log));
  sim.spawn(cancel_after(sim, t, 200));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].at, 200);
  EXPECT_FALSE(log[0].expired);
  EXPECT_TRUE(t.cancelled());
  // The cancelled deadline event must not drag the clock out to 1000: a
  // timer that never fired cannot affect a run's measured end time.
  EXPECT_EQ(sim.now(), 200);
  EXPECT_TRUE(sim.quiescent());
}

TEST(Timeout, CancelBeforeWaitCompletesImmediately) {
  Simulator sim;
  Timeout t(sim, 700);
  t.cancel();
  std::vector<TimeoutWake> log;
  sim.spawn(await_timeout(sim, t, log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].at, 0);
  EXPECT_FALSE(log[0].expired);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Timeout, CancelAfterExpiryIsANoOp) {
  Simulator sim;
  Timeout t(sim, 50);
  std::vector<TimeoutWake> log;
  sim.spawn(await_timeout(sim, t, log));
  sim.run();
  t.cancel();
  EXPECT_TRUE(t.expired());
  EXPECT_FALSE(t.cancelled());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].expired);
}

TEST(Timeout, CancelArrivingAtTheDeadlineInstantIsDeterministic) {
  // The cancellation race at exactly the deadline timestamp: the deadline
  // event was scheduled first (at Timeout construction), so by (at, seq)
  // ordering it fires before the canceller's timer and the timeout counts
  // as expired — deterministically, run after run.
  auto run_once = [] {
    Simulator sim;
    Timeout t(sim, 500);
    std::vector<TimeoutWake> log;
    sim.spawn(await_timeout(sim, t, log));
    sim.spawn(cancel_after(sim, t, 500));
    sim.run();
    return std::pair<std::vector<TimeoutWake>, bool>(log, t.expired());
  };
  const auto [log1, expired1] = run_once();
  const auto [log2, expired2] = run_once();
  ASSERT_EQ(log1.size(), 1u);
  EXPECT_EQ(log1[0].at, 500);
  EXPECT_TRUE(expired1);
  EXPECT_EQ(log1[0].expired, log2[0].expired);
  EXPECT_EQ(expired1, expired2);
}

// --- Schedule perturbation ---------------------------------------------------

Task<void> touch_at(Simulator& sim, SimTime at, int id, std::vector<int>& log) {
  co_await sim.delay(at);
  log.push_back(id);
}

std::vector<int> run_six_at_once(std::uint64_t seed) {
  Simulator sim;
  if (seed != 0) sim.set_perturbation({true, seed, 0});
  std::vector<int> log;
  for (int i = 0; i < 6; ++i) sim.spawn(touch_at(sim, 100, i, log));
  sim.run();
  return log;
}

TEST(Perturbation, PermutesSameTimestampDeliveryDeterministically) {
  // Canonical mode: same-timestamp events fire in scheduling order.
  const auto canonical = run_six_at_once(0);
  EXPECT_EQ(canonical, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // A seed is one fixed alternative schedule: identical on re-run.
  EXPECT_EQ(run_six_at_once(3), run_six_at_once(3));
  // And the explorer genuinely explores: some small seed must permute six
  // simultaneous events away from the canonical order.
  bool shuffled = false;
  for (std::uint64_t seed = 1; seed <= 8 && !shuffled; ++seed)
    shuffled = run_six_at_once(seed) != canonical;
  EXPECT_TRUE(shuffled);
}

TEST(Perturbation, TimedDelaysKeepTheirExactDuration) {
  // Perturbation explores ordering freedom only: wake jitter stretches
  // same-instant wake-ups (including a root's spawn), but a modeled delay
  // must still take exactly its duration or perturbed runs would change
  // modeled physics, not just schedules.
  Simulator sim;
  sim.set_perturbation({true, 99, /*wake_jitter=*/25});
  SimTime elapsed = -1;
  sim.spawn([](Simulator& s, SimTime& out) -> Task<void> {
    const SimTime before = s.now();  // spawn jitter already applied here
    co_await s.delay(300);
    out = s.now() - before;
  }(sim, elapsed));
  sim.run();
  EXPECT_EQ(elapsed, 300);
}

TEST(Perturbation, WakeJitterShiftsHandoffsDeterministically) {
  // Channel wake-ups go through schedule_now, the one path wake_jitter
  // stretches; the handoff still happens, within the jitter window, at a
  // seed-reproducible instant.
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    sim.set_perturbation({true, seed, /*wake_jitter=*/10});
    Channel<int> ch(sim);
    std::vector<int> got;
    SimTime recv_at = -1;
    sim.spawn([](Simulator& s, Channel<int>& c, std::vector<int>& g,
                 SimTime& at) -> Task<void> {
      g.push_back(co_await c.recv());
      at = s.now();
    }(sim, ch, got, recv_at));
    sim.spawn([](Channel<int>& c) -> Task<void> {
      c.send(7);
      co_return;
    }(ch));
    sim.run();
    EXPECT_EQ(got, (std::vector<int>{7}));
    return recv_at;
  };
  const SimTime a1 = run_once(5);
  const SimTime a2 = run_once(5);
  EXPECT_EQ(a1, a2);
  EXPECT_GE(a1, 0);
  // Three same-instant wake-ups stack on the path to the receive (both
  // spawns and the handoff), each jittered by at most 10.
  EXPECT_LE(a1, 30);
}

// Root reclamation. A frame-local probe counts its destruction, so each
// test can show every root frame (and the child frames it owns) is
// destroyed exactly once, whatever order the roots finish in.
struct FrameProbe {
  std::vector<int>* destroyed;
  int id;
  FrameProbe(std::vector<int>* d, int i) : destroyed(d), id(i) {}
  FrameProbe(const FrameProbe&) = delete;
  FrameProbe& operator=(const FrameProbe&) = delete;
  ~FrameProbe() { ++(*destroyed)[static_cast<std::size_t>(id)]; }
};

Task<void> probed_delay(Simulator& sim, SimTime dt, int id,
                        std::vector<int>& destroyed) {
  FrameProbe probe(&destroyed, id);
  co_await sim.delay(dt);
}

// Reverse spawn order always removes the table's last root; spawn order
// always removes its first, so every removal moves another root's slot.
TEST(RootReclaim, RootsFinishingInEitherSpawnOrderAreEachDestroyedOnce) {
  constexpr int kRoots = 16;
  for (const bool reverse : {true, false}) {
    std::vector<int> destroyed(kRoots, 0);
    auto finish_rank = [&](int id) { return reverse ? kRoots - id : id + 1; };
    {
      Simulator sim;
      for (int i = 0; i < kRoots; ++i)
        sim.spawn(probed_delay(sim, 10 * finish_rank(i), i, destroyed));
      // Each finished root is destroyed at the end of its own step; the
      // others stay alive.
      for (int k = 1; k <= kRoots; ++k) {
        sim.run_until(10 * k);
        for (int i = 0; i < kRoots; ++i)
          EXPECT_EQ(destroyed[static_cast<std::size_t>(i)],
                    finish_rank(i) <= k ? 1 : 0)
              << "root " << i << " at step " << k << " reverse=" << reverse;
      }
      EXPECT_TRUE(sim.quiescent());
    }
    EXPECT_EQ(destroyed, std::vector<int>(kRoots, 1));
  }
}

// A binary tree of roots: each spawns its two children at different
// instants and outlives or predeceases them depending on its id, so roots
// finish interleaved with spawns all over the table.
Task<void> spawning_root(Simulator& sim, int id, int depth,
                         std::vector<int>& destroyed) {
  FrameProbe probe(&destroyed, id);
  if (depth > 0) {
    sim.spawn(spawning_root(sim, 2 * id + 1, depth - 1, destroyed));
    co_await sim.delay(3);
    sim.spawn(spawning_root(sim, 2 * id + 2, depth - 1, destroyed));
  }
  co_await sim.delay(static_cast<SimTime>(id % 2 == 0 ? 5 : 40 - id));
}

TEST(RootReclaim, RootsSpawnedMidRunByOtherRootsAreEachDestroyedOnce) {
  constexpr int kNodes = 31;  // depth 4
  std::vector<int> destroyed(kNodes, 0);
  {
    Simulator sim;
    sim.spawn(spawning_root(sim, 0, 4, destroyed));
    sim.run();
    EXPECT_TRUE(sim.quiescent());
  }
  EXPECT_EQ(destroyed, std::vector<int>(kNodes, 1));
}

Task<int> probed_recv(Channel<int>& ch, int id, std::vector<int>& destroyed) {
  FrameProbe probe(&destroyed, id);
  co_return co_await ch.recv();
}

Task<void> blocked_parent(Channel<int>& ch, int id, int child_id,
                          std::vector<int>& destroyed) {
  FrameProbe probe(&destroyed, id);
  (void)co_await probed_recv(ch, child_id, destroyed);
}

Task<void> one_send(Simulator& sim, Channel<int>& ch, SimTime at, int id,
                    std::vector<int>& destroyed) {
  FrameProbe probe(&destroyed, id);
  co_await sim.delay(at);
  ch.send(7);
}

// Roots still blocked on a channel when the simulator goes away are
// destroyed by its destructor — with the child frames they own — while the
// finished ones were already reclaimed during the run.
TEST(RootReclaim, SimulatorDestroyedWithBlockedRootsDestroysEachFrameOnce) {
  // ids 0-3: blocked parents, 4-7: their children, 8-9: finished delays,
  // 10: the sender, whose one value releases parent 0 mid-run.
  std::vector<int> destroyed(11, 0);
  {
    Simulator sim;
    Channel<int> ch(sim);
    sim.spawn(probed_delay(sim, 5, 8, destroyed));
    for (int i = 0; i < 4; ++i)
      sim.spawn(blocked_parent(ch, i, 4 + i, destroyed));
    sim.spawn(one_send(sim, ch, 20, 10, destroyed));
    sim.spawn(probed_delay(sim, 30, 9, destroyed));
    sim.run();
    EXPECT_FALSE(sim.quiescent());
    EXPECT_EQ(destroyed,
              (std::vector<int>{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1}));
  }
  EXPECT_EQ(destroyed, std::vector<int>(11, 1));
}

TEST(Perturbation, EnablingMidRunDies) {
  Simulator sim;
  std::vector<int> log;
  sim.spawn(touch_at(sim, 10, 0, log));
  EXPECT_DEATH(sim.set_perturbation({true, 1, 0}),
               "set_perturbation after events");
}

}  // namespace
}  // namespace pgxd::sim
