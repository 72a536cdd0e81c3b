// Crash-stop building blocks under test, one layer below the sorter's
// recovery supervisor: fail-fast reliable sends to dead peers, the
// heartbeat failure detector (suspicion, clears, watchdog-bounded loops),
// deadline receives, and Cluster::run_on over a shrunk membership. The
// end-to-end kill-a-rank chaos matrix lives in fault_injection_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "net/fabric.hpp"
#include "runtime/cluster.hpp"
#include "runtime/errors.hpp"
#include "sim/time.hpp"

namespace pgxd::rt {
namespace {

using Payload = std::vector<int>;

ClusterConfig tiny(std::size_t machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = 2;
  return cfg;
}

// ---- Fail-fast reliable delivery ---------------------------------------

TEST(FailFast, SendToDeadPeerThrowsPeerUnreachable) {
  ClusterConfig cfg = tiny(2);
  cfg.reliable.enabled = true;
  cfg.reliable.fail_fast = true;
  cfg.reliable.initial_rto = 200 * sim::kMicrosecond;
  cfg.reliable.max_rto = 1 * sim::kMillisecond;
  cfg.reliable.max_attempts = 3;
  cfg.net.faults.crashes = {net::CrashEvent{1, 0}};
  Cluster<Payload> cluster(cfg);
  bool first_threw = false, second_threw = false;
  sim::SimTime first_failed_at = 0, second_failed_at = 0;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    if (m.rank() != 0) co_return;
    auto& comm = cluster.comm();
    try {
      Payload keys{1, 2, 3};
      co_await comm.send(0, 1, /*tag=*/7, std::move(keys), 24);
    } catch (const PeerUnreachableError&) {
      first_threw = true;
    }
    first_failed_at = cluster.simulator().now();
    try {
      Payload keys{4};
      co_await comm.send(0, 1, /*tag=*/7, std::move(keys), 8);
    } catch (const PeerUnreachableError&) {
      second_threw = true;
    }
    second_failed_at = cluster.simulator().now();
  });
  EXPECT_TRUE(first_threw);
  EXPECT_TRUE(second_threw);
  EXPECT_GT(first_failed_at, 0);  // the first send rode out a retry ladder
  EXPECT_TRUE(cluster.comm().is_unreachable(1));
  EXPECT_EQ(cluster.comm().reliable_stats().peer_unreachable, 2u);
  // The second send failed at the source: no fresh retry ladder.
  EXPECT_LT(second_failed_at - first_failed_at, cfg.reliable.initial_rto);
}

TEST(FailFast, PostToUnreachablePeerDropsSilently) {
  ClusterConfig cfg = tiny(2);
  cfg.reliable.enabled = true;
  cfg.reliable.fail_fast = true;
  cfg.reliable.initial_rto = 200 * sim::kMicrosecond;
  cfg.reliable.max_attempts = 2;
  cfg.net.faults.crashes = {net::CrashEvent{1, 0}};
  cfg.allow_undrained = true;  // the abandoned post's bookkeeping frame
  Cluster<Payload> cluster(cfg);
  cluster.run([&](Machine& m) -> sim::Task<void> {
    if (m.rank() != 0) co_return;
    auto& comm = cluster.comm();
    try {
      Payload keys{9};
      co_await comm.send(0, 1, /*tag=*/3, std::move(keys), 8);
    } catch (const PeerUnreachableError&) {
    }
    // Fire-and-forget to a peer already marked unreachable: no throw, no
    // retry ladder — the post is dropped at the source.
    Payload more{10};
    comm.post(0, 1, /*tag=*/3, std::move(more), 8);
    co_return;
  });
  EXPECT_TRUE(cluster.comm().is_unreachable(1));
  EXPECT_GE(cluster.comm().reliable_stats().peer_unreachable, 1u);
}

TEST(FailFast, SuspicionShortCircuitsTheRetryLadder) {
  ClusterConfig cfg = tiny(3);
  cfg.reliable.enabled = true;
  cfg.reliable.fail_fast = true;
  cfg.reliable.initial_rto = 1 * sim::kMillisecond;
  cfg.reliable.max_attempts = 40;  // full ladder would take tens of ms
  cfg.detector.enabled = true;
  cfg.detector.interval = 100 * sim::kMicrosecond;
  cfg.detector.timeout = 500 * sim::kMicrosecond;
  cfg.net.faults.crashes = {net::CrashEvent{2, 0}};
  Cluster<Payload> cluster(cfg);
  sim::SimTime send_started = 0, send_failed = 0;
  bool threw = false;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    if (m.rank() != 0) co_return;
    // Let the detector accumulate silence from the dead rank first.
    co_await cluster.simulator().delay(1 * sim::kMillisecond);
    send_started = cluster.simulator().now();
    try {
      Payload keys{1};
      co_await cluster.comm().send(0, 2, /*tag=*/5, std::move(keys), 8);
    } catch (const PeerUnreachableError&) {
      threw = true;
    }
    send_failed = cluster.simulator().now();
  });
  EXPECT_TRUE(threw);
  // Suspicion is consulted at the first retry boundary: the send gives up
  // after roughly one RTO (plus jitter), not the 40-attempt budget.
  EXPECT_LT(send_failed - send_started, 2 * cfg.reliable.initial_rto);
}

// A rank blocked on a recv whose sender was abandoned shows up in the
// quiescence diagnostic together with the unreachable-peer report.
TEST(FailFast, QuiescenceDiagnosticNamesUnreachablePeers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto doomed = [] {
    ClusterConfig cfg = tiny(3);
    cfg.reliable.enabled = true;
    cfg.reliable.fail_fast = true;
    cfg.reliable.initial_rto = 200 * sim::kMicrosecond;
    cfg.reliable.max_attempts = 2;
    cfg.net.faults.crashes = {net::CrashEvent{2, 0}};
    Cluster<Payload> cluster(cfg);
    cluster.run([&cluster](Machine& m) -> sim::Task<void> {
      if (m.rank() != 0) co_return;
      try {
        Payload keys{1};
        co_await cluster.comm().send(0, 2, /*tag=*/5, std::move(keys), 8);
      } catch (const PeerUnreachableError&) {
      }
      // Waits forever: the answer would have come from the dead rank.
      co_await cluster.comm().recv(0, /*tag=*/6);
    });
  };
  EXPECT_DEATH(doomed(), "peers marked unreachable");
}

// ---- Heartbeat failure detector ----------------------------------------

TEST(Detector, SuspectsACrashedPeerAndOnlyThatPeer) {
  ClusterConfig cfg = tiny(3);
  cfg.detector.enabled = true;
  cfg.detector.interval = 100 * sim::kMicrosecond;
  cfg.detector.timeout = 500 * sim::kMicrosecond;
  cfg.net.faults.crashes = {net::CrashEvent{2, 1 * sim::kMillisecond}};
  Cluster<Payload> cluster(cfg);
  bool suspects_dead = false, suspects_live = true;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    co_await cluster.simulator().delay(3 * sim::kMillisecond);
    if (m.rank() == 0) {
      suspects_dead = cluster.detector()->suspects(0, 2);
      suspects_live = cluster.detector()->suspects(0, 1);
    }
  });
  EXPECT_TRUE(suspects_dead);
  EXPECT_FALSE(suspects_live);
  const DetectorStats& ds = cluster.detector()->stats();
  EXPECT_GE(ds.suspicions, 1u);
  EXPECT_GT(ds.heartbeats_sent, 0u);
  EXPECT_GT(ds.heartbeats_delivered, 0u);
}

TEST(Detector, BlackoutSuspicionClearsWhenTheFabricHeals) {
  ClusterConfig cfg = tiny(3);
  cfg.detector.enabled = true;
  cfg.detector.interval = 100 * sim::kMicrosecond;
  cfg.detector.timeout = 400 * sim::kMicrosecond;
  // One 1ms blackout window at the start of the run, then a clean fabric.
  cfg.net.faults.blackout_period = 10 * sim::kMillisecond;
  cfg.net.faults.blackout_duration = 1 * sim::kMillisecond;
  Cluster<Payload> cluster(cfg);
  bool suspected_during = false, suspected_after = true;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    co_await cluster.simulator().delay(800 * sim::kMicrosecond);
    if (m.rank() == 0)
      suspected_during = cluster.detector()->suspects(0, 1);
    co_await cluster.simulator().delay(1200 * sim::kMicrosecond);
    if (m.rank() == 0)
      suspected_after = cluster.detector()->suspects(0, 1);
  });
  EXPECT_TRUE(suspected_during);   // false positive while frames are lost
  EXPECT_FALSE(suspected_after);   // heartbeats resumed; suspicion cleared
  EXPECT_GE(cluster.detector()->stats().clears, 1u);
}

TEST(Detector, RejectsNonsensicalConfig) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto build = [](sim::SimTime interval, sim::SimTime timeout,
                  sim::SimTime watchdog) {
    ClusterConfig cfg;
    cfg.machines = 2;
    cfg.threads_per_machine = 2;
    cfg.detector.enabled = true;
    cfg.detector.interval = interval;
    cfg.detector.timeout = timeout;
    cfg.detector.watchdog = watchdog;
    Cluster<Payload> cluster(cfg);
  };
  EXPECT_DEATH(build(0, sim::kMillisecond, sim::kSecond),
               "interval must be > 0");
  EXPECT_DEATH(build(sim::kMillisecond, 100, sim::kSecond),
               "timeout must be >= interval");
  EXPECT_DEATH(build(sim::kMillisecond, 5 * sim::kMillisecond,
                     2 * sim::kMillisecond),
               "watchdog must exceed timeout");
}

// ---- Deadline receive --------------------------------------------------

TEST(RecvUntil, ResolvesNulloptExactlyAtTheDeadlineThenDeliversLate) {
  Cluster<Payload> cluster(tiny(2));
  const sim::SimTime deadline = 200 * sim::kMicrosecond;
  bool timed_out = false;
  sim::SimTime timeout_at = 0, arrival_at = 0;
  Payload delivered;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      co_await cluster.simulator().delay(500 * sim::kMicrosecond);
      Payload keys{11, 22};
      co_await comm.send(0, 1, /*tag=*/5, std::move(keys), 8);
    } else {
      auto got = co_await comm.recv_until(1, /*tag=*/5, deadline);
      timed_out = !got.has_value();
      timeout_at = cluster.simulator().now();
      auto msg = co_await comm.recv(1, /*tag=*/5);
      arrival_at = cluster.simulator().now();
      delivered = std::move(msg.payload);
    }
  });
  EXPECT_TRUE(timed_out);
  // Timing neutrality: the timed wait neither fires early nor drifts.
  EXPECT_EQ(timeout_at, deadline);
  EXPECT_GE(arrival_at, 500 * sim::kMicrosecond);
  EXPECT_EQ(delivered, (Payload{11, 22}));
}

// ---- Shrunk-membership runs --------------------------------------------

TEST(ClusterRunOn, SpawnsOnlyTheGivenRanks) {
  Cluster<Payload> cluster(tiny(4));
  std::vector<int> ran(4, 0);
  std::vector<std::size_t> subset{0, 2, 3};
  cluster.run_on(subset, [&ran](Machine& m) -> sim::Task<void> {
    ran[m.rank()] = 1;
    co_return;
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 0, 1, 1}));
}

TEST(ClusterRunOn, SurvivorsCommunicateAroundTheMissingRank) {
  Cluster<Payload> cluster(tiny(3));
  std::vector<std::size_t> subset{0, 2};  // rank 1 is out of the membership
  Payload got;
  cluster.run_on(subset, [&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      Payload keys{5, 6};
      co_await comm.send(0, 2, /*tag=*/4, std::move(keys), 8);
    } else {
      auto msg = co_await comm.recv(2, /*tag=*/4);
      got = std::move(msg.payload);
    }
  });
  EXPECT_EQ(got, (Payload{5, 6}));
}

}  // namespace
}  // namespace pgxd::rt
