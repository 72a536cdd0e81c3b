// Randomized stress tests for the simulation kernel: many interacting
// processes with random structure must conserve messages, terminate, and
// replay identically. These are the invariants every engine built on the
// kernel silently depends on.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/distributed_sort.hpp"
#include "datagen/distributions.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace pgxd::sim {
namespace {

struct FuzzWorld {
  explicit FuzzWorld(Simulator& s) : sim(s) {}
  Simulator& sim;
  std::vector<std::unique_ptr<Channel<std::uint64_t>>> channels;
  std::uint64_t sent_sum = 0;
  std::uint64_t received_sum = 0;
  std::uint64_t received_count = 0;
  std::vector<std::uint64_t> trace;
};

Task<void> fuzz_consumer(FuzzWorld& w, std::uint64_t seed, std::size_t ch,
                         int messages) {
  Rng rng(seed);
  for (int i = 0; i < messages; ++i) {
    const std::uint64_t v = co_await w.channels[ch]->recv();
    w.received_sum += v;
    ++w.received_count;
    w.trace.push_back(v ^ (w.sim.now() << 16));
    if (rng.bounded(3) == 0)
      co_await w.sim.delay(static_cast<SimTime>(rng.bounded(20)));
  }
}

// Builds a random producer/consumer graph where per-channel send and
// receive counts match, so the system must terminate with everything
// consumed.
struct FuzzResult {
  std::uint64_t checksum;
  SimTime end_time;
  std::uint64_t events;
};

FuzzResult run_fuzz(std::uint64_t seed) {
  Rng rng(seed);
  Simulator sim;
  FuzzWorld w(sim);
  const std::size_t n_channels = 2 + rng.bounded(6);
  for (std::size_t c = 0; c < n_channels; ++c)
    w.channels.push_back(std::make_unique<Channel<std::uint64_t>>(sim));

  // Random messages per channel; producers distribute across channels, so
  // plan exact per-channel quotas first.
  std::vector<int> per_channel(n_channels);
  for (auto& q : per_channel) q = static_cast<int>(rng.bounded(40));

  // One producer per channel sends exactly that channel's quota (keeps the
  // bookkeeping exact while the *timing* interleaving stays random).
  for (std::size_t c = 0; c < n_channels; ++c) {
    struct OneChannel {
      static Task<void> produce(FuzzWorld& world, std::uint64_t s,
                                std::size_t ch, int count) {
        Rng r(s);
        for (int i = 0; i < count; ++i) {
          co_await world.sim.delay(static_cast<SimTime>(r.bounded(50)));
          const std::uint64_t value = r.bounded(1000);
          world.sent_sum += value;
          world.channels[ch]->send(value);
        }
      }
    };
    sim.spawn(OneChannel::produce(w, derive_seed(seed, c), c, per_channel[c]));
    // Split the channel's consumption among 1-3 consumers.
    int remaining = per_channel[c];
    const std::size_t consumers = 1 + rng.bounded(3);
    for (std::size_t k = 0; k < consumers && remaining > 0; ++k) {
      const int take = (k + 1 == consumers)
                           ? remaining
                           : static_cast<int>(rng.bounded(remaining + 1));
      if (take > 0)
        sim.spawn(fuzz_consumer(w, derive_seed(seed, 100 + c * 10 + k), c, take));
      remaining -= take;
    }
    if (remaining > 0)
      sim.spawn(fuzz_consumer(w, derive_seed(seed, 999 + c), c, remaining));
  }

  sim.run();
  EXPECT_TRUE(sim.quiescent()) << "seed " << seed;
  EXPECT_EQ(w.sent_sum, w.received_sum) << "seed " << seed;

  std::uint64_t checksum = w.received_count;
  for (auto t : w.trace) checksum = checksum * 1099511628211ULL + t;
  return FuzzResult{checksum, sim.now(), sim.events_processed()};
}

class SimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimFuzz, ConservesAndTerminates) { run_fuzz(GetParam()); }

TEST_P(SimFuzz, ReplaysIdentically) {
  const auto a = run_fuzz(GetParam());
  const auto b = run_fuzz(GetParam());
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- Barrier fuzz: random arrival patterns over many rounds -----------------

Task<void> barrier_worker(Simulator& sim, Barrier& bar, std::uint64_t seed,
                          int rounds, std::vector<int>& round_of_release) {
  Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    co_await sim.delay(static_cast<SimTime>(rng.bounded(100)));
    co_await bar.arrive();
    round_of_release.push_back(r);
  }
}

TEST(BarrierFuzz, RoundsNeverInterleave) {
  for (std::uint64_t seed : {7ULL, 11ULL, 23ULL}) {
    Simulator sim;
    constexpr int kWorkers = 9;
    constexpr int kRounds = 25;
    Barrier bar(sim, kWorkers);
    std::vector<int> releases;
    for (int wkr = 0; wkr < kWorkers; ++wkr)
      sim.spawn(barrier_worker(sim, bar, derive_seed(seed, wkr), kRounds,
                               releases));
    sim.run();
    ASSERT_TRUE(sim.quiescent());
    ASSERT_EQ(releases.size(), kWorkers * kRounds);
    // All releases of round r precede any of round r+1.
    for (std::size_t i = 0; i < releases.size(); ++i)
      EXPECT_EQ(releases[i], static_cast<int>(i / kWorkers));
  }
}

}  // namespace
}  // namespace pgxd::sim

// --- Partition-scheme replay fuzz -------------------------------------------
//
// The sorter end-to-end on the DES: the same seed must reproduce every
// partitioning decision bit-for-bit for each scheme — the splitters, the
// histogram round count, the partition stats, the simulated end time, and
// the sorted output itself. Any hidden nondeterminism (map iteration,
// arrival-order dependence in the level-1 merge, stale-probe handling)
// breaks this immediately.
namespace pgxd::core {
namespace {

using SKey = std::uint64_t;
using SorterT = DistributedSorter<SKey>;

struct PartitionFingerprint {
  std::vector<SKey> splitters;
  std::uint64_t rounds = 0;
  std::uint64_t probe_keys = 0;
  std::uint64_t groups = 0;
  std::uint64_t level1_items = 0;
  double achieved_epsilon = 0.0;
  sim::SimTime total = 0;
  std::uint64_t output_checksum = 0;
};

PartitionFingerprint run_partition_replay(std::uint64_t seed,
                                          PartitionScheme scheme) {
  const std::size_t machines = 9;
  const std::size_t n = 18'000;
  gen::DataGenConfig dcfg;
  dcfg.dist = (seed % 2) ? gen::Distribution::kZipf
                         : gen::Distribution::kRightSkewed;
  dcfg.seed = seed;
  std::vector<std::vector<SKey>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, n, machines, r));

  SortConfig cfg;
  cfg.partition = scheme;
  cfg.partition_epsilon = 0.08;

  rt::ClusterConfig ccfg;
  ccfg.machines = machines;
  ccfg.threads_per_machine = 2;
  ccfg.seed = seed;
  rt::Cluster<SorterT::Msg> cluster(ccfg);
  SorterT sorter(cluster, cfg);
  sorter.run(std::move(shards));

  PartitionFingerprint fp;
  const auto& st = sorter.stats();
  fp.splitters = st.splitters;
  fp.rounds = st.partition.rounds;
  fp.probe_keys = st.partition.probe_keys;
  fp.groups = st.partition.groups;
  fp.level1_items = st.partition.level1_items;
  fp.achieved_epsilon = st.partition.achieved_epsilon;
  fp.total = st.total_time;
  for (const auto& part : sorter.partitions())
    for (const auto& item : part)
      fp.output_checksum = fp.output_checksum * 1099511628211ULL + item.key;
  return fp;
}

void expect_identical(const PartitionFingerprint& a,
                      const PartitionFingerprint& b) {
  EXPECT_EQ(a.splitters, b.splitters);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.probe_keys, b.probe_keys);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.level1_items, b.level1_items);
  EXPECT_EQ(a.achieved_epsilon, b.achieved_epsilon);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.output_checksum, b.output_checksum);
}

class PartitionReplayFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionReplayFuzz, HistogramRefineReplaysIdentically) {
  const auto a =
      run_partition_replay(GetParam(), PartitionScheme::kHistogramRefine);
  const auto b =
      run_partition_replay(GetParam(), PartitionScheme::kHistogramRefine);
  expect_identical(a, b);
  EXPECT_GE(a.rounds, 1u);
  EXPECT_EQ(a.groups, 1u);
}

TEST_P(PartitionReplayFuzz, TwoLevelAmsReplaysIdentically) {
  const auto a =
      run_partition_replay(GetParam(), PartitionScheme::kTwoLevelAms);
  const auto b =
      run_partition_replay(GetParam(), PartitionScheme::kTwoLevelAms);
  expect_identical(a, b);
  EXPECT_GT(a.groups, 1u);
  EXPECT_GT(a.level1_items, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionReplayFuzz,
                         ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace pgxd::core
