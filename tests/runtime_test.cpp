// Tests for the runtime layer: cost model, memory tracker, buffered writer
// (data-manager request buffers), comm manager, and the cluster harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "runtime/buffered_writer.hpp"
#include "runtime/cluster.hpp"
#include "runtime/comm.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/machine.hpp"
#include "runtime/memory.hpp"

namespace pgxd::rt {
namespace {

// --- CostModel ------------------------------------------------------------

TEST(CostModel, MonotoneInN) {
  CostModel m;
  EXPECT_LT(m.sort_time(1000), m.sort_time(10000));
  EXPECT_LT(m.merge_time(1000), m.merge_time(10000));
  EXPECT_EQ(m.sort_time(0), 0);
  EXPECT_EQ(m.sort_time(1), 0);
}

TEST(CostModel, ParallelSpeedsUp) {
  CostModel m;
  const sim::SimTime serial = m.sort_time(1 << 20);
  const sim::SimTime p8 = m.parallel(serial, 8);
  const sim::SimTime p32 = m.parallel(serial, 32);
  EXPECT_LT(p8, serial);
  EXPECT_LT(p32, p8);
  // Sublinear: 32 threads give less than 32x.
  EXPECT_GT(p32, serial / 32);
}

TEST(CostModel, EffectiveWorkers) {
  CostModel m;
  m.parallel_efficiency = 0.5;
  EXPECT_DOUBLE_EQ(m.effective_workers(1), 1.0);
  EXPECT_DOUBLE_EQ(m.effective_workers(2), 1.5);
  EXPECT_DOUBLE_EQ(m.effective_workers(32), 16.5);
}

TEST(CostModel, BalancedMergeLevels) {
  CostModel m;
  m.task_overhead_ns = 0;
  // 8 runs -> 3 levels; 2 runs -> 1 level; time scales with level count.
  const auto t2 = m.balanced_merge_time(1 << 20, 2, 1);
  const auto t8 = m.balanced_merge_time(1 << 20, 8, 1);
  EXPECT_NEAR(static_cast<double>(t8), 3.0 * static_cast<double>(t2), 3.0);
  EXPECT_EQ(m.balanced_merge_time(1 << 20, 1, 8), 0);
}

TEST(CostModel, BalancedBeatsNaiveKwayForManyRuns) {
  CostModel m;
  // With 32 runs and 32 threads, the parallel Fig. 2 tree must beat one
  // sequential 32-way heap merge.
  EXPECT_LT(m.balanced_merge_time(1 << 22, 32, 32),
            m.naive_kway_merge_time(1 << 22, 32));
}

TEST(CostModel, LocalParallelSortScalesWithThreads) {
  CostModel m;
  const auto t1 = m.local_parallel_sort_time(1 << 22, 1);
  const auto t32 = m.local_parallel_sort_time(1 << 22, 32);
  EXPECT_LT(t32, t1);
}

TEST(CostModel, AdaptiveSortTime) {
  CostModel m;
  // Fully sorted input (one run) costs a scan plus one merge level floor;
  // more runs cost more, approaching the comparison-sort regime.
  const auto sorted_cost = m.adaptive_sort_time(1 << 20, 1);
  const auto few_runs = m.adaptive_sort_time(1 << 20, 8);
  const auto many_runs = m.adaptive_sort_time(1 << 20, 1 << 15);
  EXPECT_LT(sorted_cost, few_runs);
  EXPECT_LT(few_runs, many_runs);
  // With n/minrun runs, adaptive cost lands near the full sort cost.
  EXPECT_GT(many_runs * 2, m.sort_time(1 << 20));
  EXPECT_EQ(m.adaptive_sort_time(0, 1), 0);
  EXPECT_EQ(m.adaptive_sort_time(1, 5), 0);
}

TEST(CostModel, CalibrateProducesPositiveConstants) {
  const CostModel m = calibrate(1 << 17);
  EXPECT_GT(m.sort_ns_per_elem_log, 0.0);
  EXPECT_GT(m.merge_ns_per_elem, 0.0);
  EXPECT_GT(m.copy_ns_per_elem, 0.0);
  EXPECT_GT(m.search_ns_per_probe, 0.0);
  // Sanity: constants land within two orders of magnitude of the defaults.
  EXPECT_LT(m.sort_ns_per_elem_log, 100.0);
  EXPECT_LT(m.merge_ns_per_elem, 160.0);
}

// --- MemoryTracker ------------------------------------------------------------

TEST(MemoryTracker, TracksPeaksSeparately) {
  MemoryTracker mem;
  mem.alloc_persistent(100);
  mem.alloc_temp(50);
  mem.alloc_temp(30);
  mem.free_temp(50);
  mem.alloc_persistent(20);
  EXPECT_EQ(mem.persistent(), 120u);
  EXPECT_EQ(mem.temp(), 30u);
  EXPECT_EQ(mem.peak_persistent(), 120u);
  EXPECT_EQ(mem.peak_temp(), 80u);
  EXPECT_EQ(mem.peak_total(), 180u);  // 100 + 80
}

TEST(MemoryTracker, OverfreeAborts) {
  MemoryTracker mem;
  mem.alloc_temp(10);
  EXPECT_DEATH(mem.free_temp(11), "temp free");
}

TEST(MemoryTracker, TempAllocRaii) {
  MemoryTracker mem;
  {
    TempAlloc a(mem, 64);
    EXPECT_EQ(mem.temp(), 64u);
    {
      TempAlloc b(mem, 36);
      EXPECT_EQ(mem.temp(), 100u);
    }
    EXPECT_EQ(mem.temp(), 64u);
  }
  EXPECT_EQ(mem.temp(), 0u);
  EXPECT_EQ(mem.peak_temp(), 100u);
}

// --- BufferedWriter ------------------------------------------------------------

TEST(BufferedWriter, FlushesExactlyAtCapacity) {
  std::vector<std::pair<std::size_t, std::vector<int>>> emitted;
  BufferedWriter<int> w(2, /*buffer_bytes=*/4 * sizeof(int),
                        [&](std::size_t dst, std::vector<int> v) {
                          emitted.emplace_back(dst, std::move(v));
                        });
  EXPECT_EQ(w.capacity_elements(), 4u);
  const std::vector<int> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
  w.write(0, data);
  EXPECT_EQ(emitted.size(), 2u);  // two full buffers of 4
  EXPECT_EQ(w.pending(0), 1u);    // the 9th element
  w.flush_all();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[0].second, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(emitted[1].second, (std::vector<int>{5, 6, 7, 8}));
  EXPECT_EQ(emitted[2].second, (std::vector<int>{9}));
  EXPECT_EQ(w.flushes(), 3u);
}

TEST(BufferedWriter, PerDestinationIsolation) {
  std::vector<std::pair<std::size_t, std::size_t>> emitted;  // (dst, count)
  BufferedWriter<int> w(3, 2 * sizeof(int),
                        [&](std::size_t dst, std::vector<int> v) {
                          emitted.emplace_back(dst, v.size());
                        });
  w.write_one(0, 1);
  w.write_one(1, 2);
  w.write_one(0, 3);  // fills dst 0
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], (std::pair<std::size_t, std::size_t>{0, 2}));
  w.flush_all();
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1], (std::pair<std::size_t, std::size_t>{1, 1}));
}

TEST(BufferedWriter, ElementsPreservedAcrossChunks) {
  std::vector<int> all;
  BufferedWriter<int> w(1, 16 * sizeof(int),
                        [&](std::size_t, std::vector<int> v) {
                          all.insert(all.end(), v.begin(), v.end());
                        });
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  w.write(0, data);
  w.flush_all();
  EXPECT_EQ(all, data);
}

// --- Comm + Cluster ------------------------------------------------------------

using IntComm = Comm<std::vector<int>>;

ClusterConfig tiny_cluster(std::size_t machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = 4;
  cfg.net.link_bandwidth_Bps = 1e9;
  cfg.net.latency = 100;
  cfg.net.per_message_overhead = 10;
  return cfg;
}

TEST(Comm, PostAndRecvRoundTrip) {
  Cluster<std::vector<int>> cluster(tiny_cluster(2));
  std::vector<int> received;
  sim::SimTime recv_time = -1;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      comm.post(0, 1, /*tag=*/7, {1, 2, 3}, /*bytes=*/3 * 4);
    } else {
      auto msg = co_await comm.recv(1, 7);
      received = msg.payload;
      recv_time = cluster.simulator().now();
      EXPECT_EQ(msg.src, 0u);
      EXPECT_EQ(msg.bytes, 12u);
    }
    co_return;
  });
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(recv_time, 10 + 12 + 100 + 12);
}

// Regression for a GCC 12 miscompilation: an aggregate-initialized
// temporary payload inside a `co_await comm.send(...)` full-expression was
// double-owned (the temporary and the coroutine frame copy shared the
// vector buffer — double free). Payload/message types now carry
// user-declared constructors; this test routes prvalue payloads through
// blocking sends and validates the delivered contents. Run under ASan to
// get the full signal.
TEST(Comm, PrvaluePayloadRegression) {
  Cluster<std::vector<int>> cluster(tiny_cluster(4));
  std::vector<int> total;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() != 0) {
      // Prvalue payload built directly in the co_await expression.
      co_await comm.send(m.rank(), 0, 5,
                         std::vector<int>(60, static_cast<int>(m.rank())),
                         480);
    } else {
      for (int i = 0; i < 3; ++i) {
        auto msg = co_await comm.recv(0, 5);
        // Hold the payload across another suspension before reading it.
        co_await cluster.simulator().delay(50);
        total.insert(total.end(), msg.payload.begin(), msg.payload.end());
      }
    }
    co_return;
  });
  ASSERT_EQ(total.size(), 180u);
  long sum = 0;
  for (int x : total) sum += x;
  EXPECT_EQ(sum, 60 * (1 + 2 + 3));
}

TEST(Comm, LocalPostDeliversInstantly) {
  Cluster<std::vector<int>> cluster(tiny_cluster(1));
  sim::SimTime recv_time = -1;
  cluster.run([&](Machine&) -> sim::Task<void> {
    auto& comm = cluster.comm();
    comm.post(0, 0, 1, {42}, 4);
    auto msg = co_await comm.recv(0, 1);
    EXPECT_EQ(msg.payload, (std::vector<int>{42}));
    recv_time = cluster.simulator().now();
    co_return;
  });
  EXPECT_EQ(recv_time, 0);
  EXPECT_EQ(cluster.fabric().total_messages(), 0u);  // never touched the wire
}

TEST(Comm, FifoPerSourceDestinationPair) {
  Cluster<std::vector<int>> cluster(tiny_cluster(2));
  std::vector<int> order;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      for (int i = 0; i < 5; ++i) comm.post(0, 1, 3, {i}, 64);
    } else {
      for (int i = 0; i < 5; ++i) {
        auto msg = co_await comm.recv(1, 3);
        order.push_back(msg.payload[0]);
      }
    }
    co_return;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Comm, TagsAreIndependentStreams) {
  Cluster<std::vector<int>> cluster(tiny_cluster(2));
  int tag_a = -1, tag_b = -1;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      comm.post(0, 1, /*tag=*/1, {100}, 1000000);  // big: arrives later
      comm.post(0, 1, /*tag=*/2, {200}, 8);        // small but behind on TX
    } else {
      // Receive tag 2 first even though tag 1 was posted first.
      auto b = co_await comm.recv(1, 2);
      tag_b = b.payload[0];
      auto a = co_await comm.recv(1, 1);
      tag_a = a.payload[0];
    }
    co_return;
  });
  EXPECT_EQ(tag_a, 100);
  EXPECT_EQ(tag_b, 200);
}

// Mailboxes and in-flight counts are tables indexed by tag, so a negative
// tag is rejected by name on every path that touches them.
TEST(CommDeath, NegativeTagIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Cluster<std::vector<int>> cluster(tiny_cluster(2));
  EXPECT_DEATH(cluster.comm().post(0, 1, /*tag=*/-1, {1}, 4),
               "message tags must be non-negative");
  EXPECT_DEATH((void)cluster.comm().try_recv(1, /*tag=*/-3),
               "message tags must be non-negative");
}

TEST(Comm, RecvNGathersFromAllRanks) {
  Cluster<std::vector<int>> cluster(tiny_cluster(4));
  std::vector<int> got;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() != 0) {
      comm.post(m.rank(), 0, 9, {static_cast<int>(m.rank())}, 4);
    } else {
      for (int i = 0; i < 3; ++i) {
        auto msg = co_await comm.recv(0, 9);
        got.push_back(msg.payload[0]);
      }
    }
    co_return;
  });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Cluster, BarrierSynchronizesMachines) {
  Cluster<int> cluster(tiny_cluster(4));
  std::vector<sim::SimTime> after(4, -1);
  cluster.run([&](Machine& m) -> sim::Task<void> {
    co_await m.compute(static_cast<sim::SimTime>(100 * (m.rank() + 1)));
    co_await cluster.comm().barrier(m.rank());
    after[m.rank()] = cluster.simulator().now();
  });
  for (auto t : after) EXPECT_EQ(t, 400);
}

TEST(Cluster, RunReturnsElapsedAndIsRepeatable) {
  auto run_it = [] {
    Cluster<int> cluster(tiny_cluster(3));
    return cluster.run([&](Machine& m) -> sim::Task<void> {
      co_await m.charge_local_parallel_sort(100000);
      co_await cluster.comm().barrier(m.rank());
      co_await m.charge_copy(5000);
    });
  };
  const auto t1 = run_it();
  const auto t2 = run_it();
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1, 0);
}

TEST(Cluster, DeadlockDetectedAsNonQuiescent) {
  Cluster<int> cluster(tiny_cluster(2));
  EXPECT_DEATH(
      cluster.run([&](Machine& m) -> sim::Task<void> {
        if (m.rank() == 0) {
          // Waits forever: nobody sends on tag 99.
          co_await cluster.comm().recv(0, 99);
        }
        co_return;
      }),
      "deadlock");
}

TEST(Machine, RngStreamsDifferPerRank) {
  Cluster<int> a(tiny_cluster(2));
  EXPECT_NE(a.machine(0).rng().next(), a.machine(1).rng().next());
}

TEST(Machine, ComputeChargesAdvanceClock) {
  Cluster<int> cluster(tiny_cluster(1));
  sim::SimTime t_serial = -1, t_parallel = -1;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    const sim::SimTime serial = m.cost().sort_time(1 << 20);
    co_await m.compute(serial);
    t_serial = cluster.simulator().now();
    co_await m.compute_parallel(serial);
    t_parallel = cluster.simulator().now() - t_serial;
  });
  EXPECT_GT(t_serial, 0);
  EXPECT_LT(t_parallel, t_serial);  // 4 threads beat 1
}

}  // namespace
}  // namespace pgxd::rt
