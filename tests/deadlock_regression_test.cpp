// Regression suite for the shared-pool deadlock (two-level AMS scoped
// exchanges contending on the cluster-wide BufferPool) and the schedule
// perturbation explorer that hunts for ordering-dependent wedges.
//
// The sorter's scoped pending guard is the fix: scoped senders only park
// in the pool-backpressure receive while data frames are actually pending
// for them. With the guard disabled (SorterTestHooks, this suite's seam
// into the sorter) the deadlock comes back, and these tests
// pin the whole detection chain: the run aborts at the instant it wedges,
// the wait-for graph names the pool-wait cycle, a committed perturbation
// seed reproduces the same wedge from an alternative schedule, and clean
// configurations survive perturbation without a single false positive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "datagen/distributions.hpp"
#include "runtime/cluster.hpp"

namespace pgxd {

namespace core {
struct SorterTestHooks {
  template <typename K, typename C>
  static void disable_pending_guard(DistributedSorter<K, C>& sorter) {
    sorter.scoped_pending_guard_ = false;
  }
};
}  // namespace core

namespace {

using core::DistributedSorter;
using core::PartitionScheme;
using core::SortConfig;
using core::SortMsg;
using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using Msg = SortMsg<Key>;

// The committed reproduction seed: one alternative same-timestamp delivery
// order under which the unguarded backpressure loop also wedges. Found by
// the --perturb sweep in scripts/check.sh analyze; keep in sync with it.
constexpr std::uint64_t kReproSeed = 7;

// 3x3 AMS groups + small chunks: several scoped exchanges share the pool
// and drain it, the exact contention the pending guard exists for.
constexpr std::size_t kMachines = 9;
constexpr std::size_t kTotalKeys = 60000;

std::vector<std::vector<Key>> ams_shards() {
  gen::DataGenConfig dcfg;
  dcfg.dist = gen::Distribution::kUniform;
  dcfg.domain = 1 << 20;
  dcfg.seed = 42;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < kMachines; ++r)
    shards.push_back(gen::generate_shard(dcfg, kTotalKeys, kMachines, r));
  return shards;
}

SortConfig ams_config() {
  SortConfig cfg;
  cfg.partition = PartitionScheme::kTwoLevelAms;
  cfg.read_buffer_bytes = 2048;  // 256-key chunks: heavy pool traffic
  return cfg;
}

rt::ClusterConfig ams_cluster() {
  rt::ClusterConfig ccfg;
  ccfg.machines = kMachines;
  ccfg.threads_per_machine = 8;
  return ccfg;
}

// One finished run, kept alive so tests can inspect the sorter and the
// cluster's wait graph after the fact. Member order matters: the sorter
// borrows the cluster, so it is declared (and thus destroyed) last-first.
struct AmsRun {
  std::unique_ptr<rt::Cluster<Msg>> cluster;
  std::unique_ptr<Sorter> sorter;
  sim::SimTime elapsed = 0;
};

AmsRun run_ams(bool pending_guard, std::uint64_t perturb_seed) {
  AmsRun r;
  r.cluster = std::make_unique<rt::Cluster<Msg>>(ams_cluster());
  if (perturb_seed != 0)
    r.cluster->simulator().set_perturbation(
        {true, perturb_seed, /*wake_jitter=*/50});
  r.sorter = std::make_unique<Sorter>(*r.cluster, ams_config());
  if (!pending_guard) core::SorterTestHooks::disable_pending_guard(*r.sorter);
  r.sorter->run(ams_shards());
  r.elapsed = r.cluster->simulator().now();
  return r;
}

void expect_sorted_output(const Sorter& sorter) {
  std::size_t total = 0;
  Key prev = 0;
  bool first = true;
  for (const auto& part : sorter.partitions()) {
    total += part.size();
    for (const auto& item : part) {
      if (!first) {
        EXPECT_LE(prev, item.key);
      }
      prev = item.key;
      first = false;
    }
  }
  EXPECT_EQ(total, kTotalKeys);
}

// --- The regression itself ---------------------------------------------------

TEST(PoolDeadlockRegression, UnguardedBackpressureWedgesAndNamesThePool) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The wait-for graph must (a) abort instead of hanging, and (b) name the
  // pool annotation on the cycling data-tag waits — the diagnostic that
  // distinguishes "pool starvation" from a plain lost message.
  EXPECT_DEATH(run_ams(/*pending_guard=*/false, 0),
               "deadlocked.*buffer-pool");
}

TEST(PoolDeadlockRegression, CommittedPerturbationSeedReproducesTheWedge) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The explorer's committed seed drives an alternative delivery order
  // into the same wedge: the bug is schedule-dependent, and this pins a
  // second, independent route to it.
  EXPECT_DEATH(run_ams(/*pending_guard=*/false, kReproSeed),
               "deadlocked.*buffer-pool");
}

TEST(PoolDeadlockRegression, PendingGuardKeepsTheSameConfigLive) {
  const AmsRun r = run_ams(/*pending_guard=*/true, 0);
  expect_sorted_output(*r.sorter);
  const auto& ws = r.sorter->wait_stats();
  EXPECT_EQ(ws.deadlocks, 0u);
  EXPECT_GT(ws.mailbox_waits, 0u);  // the graph was live, not bypassed
  EXPECT_GT(ws.holds_added, 0u);    // pool/mailbox hold edges registered
  const auto& ps = r.sorter->pool_stats();
  EXPECT_EQ(ps.returns, ps.leases);  // every buffer came home
}

// --- Perturbation explorer ---------------------------------------------------

TEST(PerturbationExplorer, CleanConfigSurvivesASeedSweep) {
  // Zero false positives: the guarded sort must complete and validate
  // under every explored schedule. Each seed is one deterministic
  // alternative ordering, so a wedge here would be reproducible.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const AmsRun r = run_ams(/*pending_guard=*/true, seed);
    expect_sorted_output(*r.sorter);
    EXPECT_EQ(r.sorter->wait_stats().deadlocks, 0u) << "seed " << seed;
  }
}

TEST(PerturbationExplorer, SameSeedSameSchedule) {
  // A perturbed run is still a deterministic simulation: re-running the
  // seed reproduces the elapsed time exactly (which is how a failure found
  // by the sweep becomes a committed regression).
  const auto t1 = run_ams(/*pending_guard=*/true, kReproSeed).elapsed;
  const auto t2 = run_ams(/*pending_guard=*/true, kReproSeed).elapsed;
  EXPECT_EQ(t1, t2);
}

TEST(PerturbationExplorer, DifferentSeedsExploreDifferentSchedules) {
  const auto t0 = run_ams(/*pending_guard=*/true, 0).elapsed;
  const auto t1 = run_ams(/*pending_guard=*/true, 1).elapsed;
  const auto t2 = run_ams(/*pending_guard=*/true, 42).elapsed;
  // Wake jitter shifts mailbox handoffs, so distinct seeds should land on
  // distinct elapsed times; all must still sort correctly (checked above).
  EXPECT_TRUE(t0 != t1 || t1 != t2)
      << "perturbation produced the canonical schedule for every seed";
}

// --- Report plumbing ---------------------------------------------------------

TEST(WaitReport, CleanRunExportsWaitStats) {
  const AmsRun r = run_ams(/*pending_guard=*/true, 0);
  const core::SortReport rep =
      core::build_sort_report(*r.sorter, core::SortRunInfo{});
  EXPECT_EQ(rep.waits.deadlocks, 0u);
  EXPECT_GT(rep.waits.mailbox_waits, 0u);
  EXPECT_GT(rep.waits.deadlock_checks + rep.waits.mailbox_waits, 0u);
  EXPECT_LE(rep.waits.max_blocked, kMachines);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"waits\""), std::string::npos);
  EXPECT_NE(json.find("\"mailbox_waits\""), std::string::npos);
}

}  // namespace
}  // namespace pgxd
