// Chaos suite: the full distributed sort over a faulty fabric with the
// reliable-delivery layer enabled. Sweeps fault profiles (drop rates up to
// 10%, duplication, blackout windows, degraded links, slow NICs) across
// the Fig. 4 data distributions and asserts the same postconditions as a
// clean run — globally sorted output, exactly-once provenance — plus
// determinism: identical seeds give bit-identical results and times.
//
// Also covers the harness diagnostics that ride along: the quiescence
// failure message naming blocked ranks/tags, and the end-of-run stray-
// message check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "datagen/distributions.hpp"
#include "net/fabric.hpp"
#include "runtime/cluster.hpp"
#include "sim/trace.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using Msg = SortMsg<Key>;

std::vector<std::vector<Key>> make_shards(gen::Distribution dist,
                                          std::size_t total_n,
                                          std::size_t machines,
                                          std::uint64_t seed = 42) {
  gen::DataGenConfig dcfg;
  dcfg.dist = dist;
  dcfg.domain = 1 << 20;
  dcfg.seed = seed;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, total_n, machines, r));
  return shards;
}

// A small read buffer makes the exchange stream many chunks per pair, so a
// given drop rate hits plenty of individual messages.
SortConfig chunky_sort_config() {
  SortConfig cfg;
  cfg.read_buffer_bytes = 4096;
  return cfg;
}

rt::ClusterConfig faulty_cluster(std::size_t machines,
                                 const net::FaultConfig& faults,
                                 bool reliable = true) {
  rt::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = 8;
  cfg.net.faults = faults;
  cfg.reliable.enabled = reliable;
  return cfg;
}

void verify_sorted(const Sorter& sorter,
                   const std::vector<std::vector<Key>>& input) {
  const auto& parts = sorter.partitions();
  const Key* prev_max = nullptr;
  for (const auto& part : parts) {
    for (std::size_t i = 1; i < part.size(); ++i)
      ASSERT_LE(part[i - 1].key, part[i].key);
    if (!part.empty()) {
      if (prev_max != nullptr) {
        ASSERT_LE(*prev_max, part.front().key);
      }
      prev_max = &part.back().key;
    }
  }
  std::vector<Key> all_in, all_out;
  for (const auto& shard : input)
    all_in.insert(all_in.end(), shard.begin(), shard.end());
  for (const auto& part : parts)
    for (const auto& item : part) all_out.push_back(item.key);
  ASSERT_EQ(all_in.size(), all_out.size());
  std::sort(all_in.begin(), all_in.end());
  std::sort(all_out.begin(), all_out.end());
  ASSERT_EQ(all_in, all_out);
}

// Bit-exact fingerprint of a run: every output element (key + provenance)
// plus the simulated completion time.
std::uint64_t fingerprint(const Sorter& sorter) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const auto& part : sorter.partitions())
    for (const auto& item : part) {
      mix(item.key);
      mix(item.prov.prev_machine);
      mix(item.prov.prev_index);
    }
  mix(static_cast<std::uint64_t>(sorter.stats().total_time));
  return h;
}

struct FaultProfile {
  const char* label;
  net::FaultConfig faults;
};

std::vector<FaultProfile> chaos_profiles() {
  std::vector<FaultProfile> out;
  {
    net::FaultConfig fc;
    fc.drop_prob = 0.02;
    out.push_back({"drop2", fc});
  }
  {
    net::FaultConfig fc;
    fc.drop_prob = 0.10;
    out.push_back({"drop10", fc});
  }
  {
    net::FaultConfig fc;
    fc.duplicate_prob = 0.10;
    out.push_back({"dup10", fc});
  }
  {
    net::FaultConfig fc;
    fc.drop_prob = 0.05;
    fc.duplicate_prob = 0.05;
    out.push_back({"drop5dup5", fc});
  }
  {
    net::FaultConfig fc;
    fc.drop_prob = 0.02;
    fc.blackout_period = 2 * sim::kMillisecond;
    fc.blackout_duration = 200 * sim::kMicrosecond;
    out.push_back({"blackout", fc});
  }
  {
    net::FaultConfig fc;
    fc.drop_prob = 0.02;
    fc.degrade_period = 1 * sim::kMillisecond;
    fc.degrade_duration = 250 * sim::kMicrosecond;
    fc.degrade_factor = 4.0;
    fc.slow_nics = {1};
    fc.slow_nic_factor = 2.0;
    out.push_back({"degraded", fc});
  }
  return out;
}

class ChaosSweep
    : public ::testing::TestWithParam<std::tuple<gen::Distribution, int>> {};

TEST_P(ChaosSweep, SortsCorrectlyOverFaultyFabric) {
  const auto [dist, profile_idx] = GetParam();
  const FaultProfile profile =
      chaos_profiles()[static_cast<std::size_t>(profile_idx)];
  const std::size_t p = 5;
  auto shards = make_shards(dist, 20000, p);

  rt::Cluster<Msg> cluster(faulty_cluster(p, profile.faults));
  Sorter sorter(cluster, chunky_sort_config());
  sorter.run(shards);  // the exactly-once audit runs inside the sorter
  verify_sorted(sorter, shards);

  const auto& rs = cluster.comm().reliable_stats();
  const auto& fabric = cluster.fabric();
  if (profile.faults.drop_prob > 0) {
    EXPECT_GT(fabric.total_dropped(), 0u);
    EXPECT_GT(rs.retransmits, 0u);
  }
  if (profile.faults.duplicate_prob > 0) {
    EXPECT_GT(fabric.total_duplicated(), 0u);
    EXPECT_GT(rs.duplicates_suppressed, 0u);
  }
  // Every data frame eventually acked; no element ever reached the sorter
  // twice (the dedup window absorbed every redelivery).
  EXPECT_GT(rs.frames_sent, 0u);
  EXPECT_GE(rs.acks_sent, rs.frames_sent);
  for (const auto& ms : sorter.stats().machines)
    EXPECT_EQ(ms.duplicate_chunks, 0u);
}

TEST_P(ChaosSweep, IdenticalSeedsAreBitIdentical) {
  const auto [dist, profile_idx] = GetParam();
  const FaultProfile profile =
      chaos_profiles()[static_cast<std::size_t>(profile_idx)];
  const std::size_t p = 5;
  auto run_once = [&]() {
    auto shards = make_shards(dist, 8000, p);
    rt::Cluster<Msg> cluster(faulty_cluster(p, profile.faults));
    Sorter sorter(cluster, chunky_sort_config());
    sorter.run(shards);
    return fingerprint(sorter);
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, ChaosSweep,
    ::testing::Combine(::testing::Values(gen::Distribution::kUniform,
                                         gen::Distribution::kNormal,
                                         gen::Distribution::kRightSkewed,
                                         gen::Distribution::kExponential),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

// Reliable mode over a PERFECT fabric: still correct, no retransmissions,
// and the ack overhead stays modest relative to the clean run.
TEST(ReliableClean, NoFaultsMeansNoRetries) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kUniform, 20000, p);

  rt::Cluster<Msg> plain_cluster(faulty_cluster(p, {}, /*reliable=*/false));
  Sorter plain(plain_cluster, chunky_sort_config());
  plain.run(shards);
  verify_sorted(plain, shards);

  rt::Cluster<Msg> rel_cluster(faulty_cluster(p, {}, /*reliable=*/true));
  Sorter reliable(rel_cluster, chunky_sort_config());
  reliable.run(shards);
  verify_sorted(reliable, shards);

  const auto& rs = rel_cluster.comm().reliable_stats();
  EXPECT_EQ(rs.retransmits, 0u);
  EXPECT_EQ(rs.duplicates_suppressed, 0u);
  EXPECT_EQ(rs.acks_received, rs.frames_sent);
  // Acks ride the fabric, so a reliable run is a bit slower than plain —
  // but only by ack traffic, never by timers (RTO events are cancelled).
  EXPECT_GE(reliable.stats().total_time, plain.stats().total_time);
  EXPECT_LT(static_cast<double>(reliable.stats().total_time),
            1.25 * static_cast<double>(plain.stats().total_time));
}

// A duplicating-but-lossless fabric WITHOUT the reliable layer: the sorter
// itself must absorb duplicates (distinct-source gathers, chunk dedup by
// rel_offset). Trailing duplicate copies can sit in mailboxes at the end,
// so the run opts into allow_undrained. At p=72 the exchange counts go
// through the scope master's batched relay (more than 64 members), so the
// relay's repeat drop runs too, and the scale-out schemes' control rounds
// run over a three-level scope tree whose interior nodes see duplicated
// probe, reply and down-sweep frames.
TEST(AppLevelDedup, DuplicatingFabricWithoutReliableLayer) {
  for (const std::size_t p : {std::size_t{5}, std::size_t{72}}) {
    for (const PartitionScheme scheme :
         {PartitionScheme::kOneLevelSample, PartitionScheme::kHistogramRefine,
          PartitionScheme::kTwoLevelAms}) {
      SCOPED_TRACE(::testing::Message()
                   << partition_scheme_name(scheme) << " at p=" << p);
      auto shards = make_shards(gen::Distribution::kExponential, 20000, p);
      net::FaultConfig fc;
      fc.duplicate_prob = 0.15;
      rt::ClusterConfig ccfg = faulty_cluster(p, fc, /*reliable=*/false);
      ccfg.allow_undrained = true;
      rt::Cluster<Msg> cluster(ccfg);
      SortConfig cfg = chunky_sort_config();
      cfg.partition = scheme;
      Sorter sorter(cluster, cfg);
      sorter.run(shards);
      verify_sorted(sorter, shards);

      std::uint64_t dup_chunks = 0;
      for (const auto& ms : sorter.stats().machines)
        dup_chunks += ms.duplicate_chunks;
      EXPECT_GT(cluster.fabric().total_duplicated(), 0u);
      EXPECT_GT(dup_chunks, 0u);
    }
  }
}

// Causal flow tracing over a faulty fabric: every frame that lands records
// a flow edge stamped with the sender's span id, and redelivery is labeled
// rather than double-counted. The invariant under reliable delivery: each
// span id resolves to EXACTLY ONE accepted (duplicate == false) data edge
// — retransmitted and fabric-duplicated copies that land after the first
// acceptance carry duplicate == true.
TEST(FlowTracing, EverySpanResolvesToExactlyOneAcceptedEdge) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kExponential, 20000, p);
  net::FaultConfig fc;
  fc.drop_prob = 0.05;
  fc.duplicate_prob = 0.05;
  rt::Cluster<Msg> cluster(faulty_cluster(p, fc));
  sim::Trace trace;
  Sorter sorter(cluster, chunky_sort_config());
  sorter.set_trace(&trace);
  sorter.run(shards);
  verify_sorted(sorter, shards);

  std::map<std::uint64_t, int> accepted_per_span;
  std::size_t retransmit_edges = 0, duplicate_edges = 0, ack_edges = 0;
  for (const auto& f : trace.flows()) {
    if (f.kind == sim::Trace::FlowKind::kAck) {
      ++ack_edges;
      continue;
    }
    EXPECT_GT(f.span_id, 0u);
    EXPECT_LE(f.send, f.recv);
    if (f.retransmit) ++retransmit_edges;
    if (f.duplicate) ++duplicate_edges;
    if (!f.duplicate) ++accepted_per_span[f.span_id];
  }
  for (const auto& [span, n] : accepted_per_span)
    EXPECT_EQ(n, 1) << "span " << span << " accepted " << n << " times";
  // The fabric's faults are visible in the causal record, not absorbed.
  EXPECT_GT(retransmit_edges, 0u);
  EXPECT_GT(duplicate_edges, 0u);
  EXPECT_GT(ack_edges, 0u);
  // Dedup'd arrivals never reach the sorter as data.
  for (const auto& ms : sorter.stats().machines)
    EXPECT_EQ(ms.duplicate_chunks, 0u);
}

// Retry budget: a fabric whose blackout never ends defeats retransmission;
// the sender must fail loudly instead of retrying forever.
TEST(ReliableDeath, ExhaustedRetryBudgetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto doomed = [] {
    net::FaultConfig fc;
    fc.blackout_period = 1;
    fc.blackout_duration = 1;  // every message dropped, forever
    rt::ClusterConfig ccfg;
    ccfg.machines = 2;
    ccfg.threads_per_machine = 8;
    ccfg.net.faults = fc;
    ccfg.reliable.enabled = true;
    ccfg.reliable.max_attempts = 4;
    rt::Cluster<Msg> cluster(ccfg);
    cluster.run([&cluster](rt::Machine& m) -> sim::Task<void> {
      auto& comm = cluster.comm();
      if (m.rank() == 0) {
        // Braced-list payloads are named first (GCC 12 cannot keep an
        // initializer_list temporary alive across a suspension).
        std::vector<Key> keys{1, 2, 3};
        co_await comm.send(0, 1, /*tag=*/7, Msg::of_keys(std::move(keys)), 24);
      } else {
        co_await comm.recv(1, /*tag=*/7);
      }
    });
  };
  EXPECT_DEATH(doomed(), "retry budget");
}

// Satellite diagnostics: a deadlocked run names the blocked ranks and tags.
TEST(ClusterDiagnostics, QuiescenceFailureNamesBlockedRanksAndTags) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto deadlocked = [] {
    rt::ClusterConfig ccfg;
    ccfg.machines = 3;
    ccfg.threads_per_machine = 8;
    rt::Cluster<Msg> cluster(ccfg);
    cluster.run([&cluster](rt::Machine& m) -> sim::Task<void> {
      // Rank 2 waits on tag 9 but nobody ever sends to it.
      if (m.rank() == 2) co_await cluster.comm().recv(2, /*tag=*/9);
      co_return;
    });
  };
  EXPECT_DEATH(deadlocked(), "rank 2 waits on tag 9");
}

// Satellite diagnostics: stray (sent but never received) messages fail the
// run and are named.
TEST(ClusterDiagnostics, UndrainedMailboxesAreFlagged) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto leaky = [] {
    rt::ClusterConfig ccfg;
    ccfg.machines = 2;
    ccfg.threads_per_machine = 8;
    rt::Cluster<Msg> cluster(ccfg);
    cluster.run([&cluster](rt::Machine& m) -> sim::Task<void> {
      if (m.rank() == 0) {
        std::vector<Key> keys{42};
        co_await cluster.comm().send(0, 1, /*tag=*/5,
                                     Msg::of_keys(std::move(keys)), 8);
      }
      co_return;  // rank 1 never receives it
    });
  };
  EXPECT_DEATH(leaky(), "undrained mailboxes");
}

// total_pending counts exactly the unreceived messages.
TEST(ClusterDiagnostics, TotalPendingCountsStrays) {
  rt::ClusterConfig ccfg;
  ccfg.machines = 2;
  ccfg.threads_per_machine = 8;
  ccfg.allow_undrained = true;
  rt::Cluster<Msg> cluster(ccfg);
  EXPECT_EQ(cluster.comm().total_pending(), 0u);
  cluster.run([&cluster](rt::Machine& m) -> sim::Task<void> {
    if (m.rank() == 0) {
      std::vector<Key> a{1};
      co_await cluster.comm().send(0, 1, /*tag=*/5,
                                   Msg::of_keys(std::move(a)), 8);
      std::vector<Key> b{2};
      co_await cluster.comm().send(0, 1, /*tag=*/6,
                                   Msg::of_keys(std::move(b)), 8);
    }
    co_return;
  });
  EXPECT_EQ(cluster.comm().total_pending(), 2u);
}

// ---- Crash-stop chaos: rank failures and phase-level recovery ----------
//
// The recovery stack under test: deterministic crash schedule in the
// fabric, heartbeat failure detector, fail-fast reliable delivery, and the
// sorter's attempt-loop supervisor (abort the wounded attempt, regenerate
// the dead rank's shard, re-run on the survivors). Crash instants are
// aimed by fractions of a clean pilot run's duration so every sort phase
// of attempt 0 gets killed somewhere in the matrix.

rt::ClusterConfig recovery_cluster(std::size_t machines,
                                   const net::FaultConfig& faults) {
  rt::ClusterConfig cfg = faulty_cluster(machines, faults);
  cfg.reliable.fail_fast = true;
  cfg.detector.enabled = true;
  cfg.allow_undrained = true;  // aborted attempts strand frames by design
  return cfg;
}

SortConfig recovery_sort_config() {
  SortConfig cfg = chunky_sort_config();
  cfg.recovery.enabled = true;
  return cfg;
}

// Simulated duration of one clean run over the identical stack (detector
// heartbeats included), used to aim crash instants inside attempt 0.
sim::SimTime clean_recovery_total(const std::vector<std::vector<Key>>& shards) {
  rt::Cluster<Msg> cluster(recovery_cluster(shards.size(), {}));
  Sorter sorter(cluster, recovery_sort_config());
  sorter.run(shards);
  return sorter.stats().total_time;
}

class CrashChaos : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(CrashChaos, KilledRankRecoversToACorrectSort) {
  const auto [fraction, restart] = GetParam();
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kUniform, 20000, p);
  const sim::SimTime clean_total = clean_recovery_total(shards);
  ASSERT_GT(clean_total, 0);

  net::FaultConfig fc;
  const auto crash_at =
      static_cast<sim::SimTime>(fraction * static_cast<double>(clean_total));
  fc.crashes = {net::CrashEvent{
      2, crash_at, restart ? 2 * sim::kMillisecond : sim::SimTime{0}}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, recovery_sort_config());
  sorter.run(shards);  // the exactly-once audit runs inside the sorter
  verify_sorted(sorter, shards);

  const auto& rec = sorter.stats().recovery;
  EXPECT_GE(rec.recoveries, 1u);
  EXPECT_GE(rec.final_attempt, 1);
  EXPECT_GT(rec.wasted_work_ns, 0);
  EXPECT_GT(rec.time_to_recover_max_ns, 0);
  if (restart) {
    // The rebooted rank rejoins if it was back before attempt 1 started.
    EXPECT_GE(rec.final_members, 4u);
  } else {
    EXPECT_EQ(rec.final_members, 4u);
    EXPECT_TRUE(sorter.partitions()[2].empty());
    EXPECT_GE(rec.regenerated_shards, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryPhase, CrashChaos,
    ::testing::Combine(::testing::Values(0.05, 0.25, 0.45, 0.65, 0.9),
                       ::testing::Bool()));

TEST(CrashRecovery, MasterDeathPromotesTheNextSurvivor) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kNormal, 20000, p);
  const sim::SimTime clean_total = clean_recovery_total(shards);

  net::FaultConfig fc;
  fc.crashes = {net::CrashEvent{0, clean_total * 3 / 10}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, recovery_sort_config());
  sorter.run(shards);
  verify_sorted(sorter, shards);

  const auto& rec = sorter.stats().recovery;
  EXPECT_GE(rec.recoveries, 1u);
  EXPECT_EQ(rec.final_members, 4u);
  EXPECT_TRUE(sorter.partitions()[0].empty());
  ASSERT_FALSE(sorter.final_members().empty());
  EXPECT_EQ(sorter.final_members().front(), 1u);  // promoted master
}

TEST(CrashRecovery, RankDeadBeforeTheRunIsExcludedWithoutARerun) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kExponential, 20000, p);
  net::FaultConfig fc;
  fc.crashes = {net::CrashEvent{2, 0}};  // dead before attempt 0 starts
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, recovery_sort_config());
  sorter.run(shards);
  verify_sorted(sorter, shards);

  const auto& rec = sorter.stats().recovery;
  EXPECT_EQ(rec.recoveries, 0u);
  EXPECT_EQ(rec.final_attempt, 0);
  EXPECT_EQ(rec.final_members, 4u);
  EXPECT_GE(rec.regenerated_shards, 1u);
  EXPECT_EQ(rec.wasted_work_ns, 0);
  EXPECT_TRUE(sorter.partitions()[2].empty());
}

// The chaos sweep's first row (pgxd_sim --n=200000 --p=5 --recovery
// --crash=2@50): rank 2 dies early and the survivors re-sort. Splitter
// error must be judged over the four final members in member order
// against i*N/4; counting the dead rank's empty partition shifts every
// boundary's ideal and reads 5-10% error on a balanced output.
TEST(CrashRecovery, ReportSplitterErrorCoversOnlyTheFinalMembers) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kUniform, 200000, p);
  {
    // Without recovery every rank is a final member.
    rt::Cluster<Msg> cluster(faulty_cluster(p, {}));
    Sorter sorter(cluster, SortConfig{});
    sorter.run(shards);
    EXPECT_EQ(sorter.final_members(),
              (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
  SortConfig cfg;
  cfg.recovery.enabled = true;
  net::FaultConfig fc;
  fc.crashes = {net::CrashEvent{2, 50 * sim::kMicrosecond}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, cfg);
  sorter.run(shards);
  verify_sorted(sorter, shards);

  const SortReport rep = build_sort_report(sorter, SortRunInfo{});
  ASSERT_EQ(rep.recovery.final_members, 4u);
  EXPECT_EQ(sorter.final_members(), (std::vector<std::size_t>{0, 1, 3, 4}));
  EXPECT_EQ(rep.splitters.boundary_error.size(),
            rep.recovery.final_members - 1);
  EXPECT_LE(rep.splitters.max_error, 0.01);
  EXPECT_LE(rep.items.imbalance, 1.01);
}

// The same crash: each phase's min and mean come from the four final
// members. Rank 2 ran no step of the final attempt, so counting it reads
// every min as 0 and averages its zeros into every mean.
TEST(CrashRecovery, ReportPhasesCoverOnlyTheFinalMembers) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kUniform, 200000, p);
  SortConfig cfg;
  cfg.recovery.enabled = true;
  net::FaultConfig fc;
  fc.crashes = {net::CrashEvent{2, 50 * sim::kMicrosecond}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, cfg);
  sorter.run(shards);

  const SortReport rep = build_sort_report(sorter, SortRunInfo{});
  const auto& members = sorter.final_members();
  ASSERT_EQ(members, (std::vector<std::size_t>{0, 1, 3, 4}));
  ASSERT_EQ(rep.phases.size(), kStepCount);
  for (std::size_t i = 0; i < kStepCount; ++i) {
    const Step s = static_cast<Step>(i);
    sim::SimTime mn = sorter.stats().machines[members[0]].steps[s];
    double sum = 0.0;
    for (const std::size_t r : members) {
      mn = std::min(mn, sorter.stats().machines[r].steps[s]);
      sum += static_cast<double>(sorter.stats().machines[r].steps[s]);
    }
    EXPECT_GT(mn, 0) << step_name(s);
    EXPECT_EQ(rep.phases[i].min_ns, mn) << step_name(s);
    EXPECT_DOUBLE_EQ(rep.phases[i].mean_ns,
                     sum / static_cast<double>(members.size()))
        << step_name(s);
  }
}

TEST(CrashRecovery, CrashDuringFabricFaultsStillRecovers) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kRightSkewed, 20000, p);
  const sim::SimTime clean_total = clean_recovery_total(shards);

  net::FaultConfig fc;
  fc.drop_prob = 0.02;
  fc.blackout_period = 2 * sim::kMillisecond;
  fc.blackout_duration = 200 * sim::kMicrosecond;
  fc.crashes = {net::CrashEvent{2, clean_total * 2 / 5}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, recovery_sort_config());
  sorter.run(shards);
  verify_sorted(sorter, shards);
  EXPECT_GE(sorter.stats().recovery.recoveries, 1u);
  EXPECT_EQ(sorter.stats().recovery.final_members, 4u);
}

// A slow peer is not a dead one. With rank 1's NIC at 1/8 speed and no
// crash, the recovery stack must not abort anything, and the run must
// match a detector-only run over the same fabric: the same items with the
// same provenance, and the same simulated total.
TEST(CrashRecovery, SlowPeerIsNotMistakenForACrash) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kUniform, 20000, p);
  net::FaultConfig fc;
  fc.slow_nics = {1};
  fc.slow_nic_factor = 8.0;

  rt::Cluster<Msg> det_cluster(recovery_cluster(p, fc));
  Sorter det(det_cluster, chunky_sort_config());
  det.run(shards);
  verify_sorted(det, shards);

  rt::Cluster<Msg> rec_cluster(recovery_cluster(p, fc));
  Sorter rec(rec_cluster, recovery_sort_config());
  rec.run(shards);
  verify_sorted(rec, shards);
  EXPECT_EQ(rec.stats().recovery.recoveries, 0u);
  EXPECT_EQ(rec.stats().recovery.abort_broadcasts, 0u);
  EXPECT_EQ(rec.stats().total_time, det.stats().total_time);
  EXPECT_EQ(fingerprint(rec), fingerprint(det));
}

TEST(CrashRecovery, IdenticalCrashSchedulesAreBitIdentical) {
  const std::size_t p = 5;
  auto run_once = [&]() {
    auto shards = make_shards(gen::Distribution::kUniform, 8000, p);
    const sim::SimTime clean_total = clean_recovery_total(shards);
    net::FaultConfig fc;
    fc.crashes = {net::CrashEvent{2, clean_total / 2}};
    rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
    Sorter sorter(cluster, recovery_sort_config());
    sorter.run(shards);
    return fingerprint(sorter);
  };
  EXPECT_EQ(run_once(), run_once());
}

// No-fault cost of the crash-tolerance stack: the detector's heartbeats
// stay under the 3% telemetry-style overhead gate, and the recovery
// machinery itself (deadline polling, ctrl tags, supervisor) is
// bit-identical to a detector-only run on a healthy fabric.
TEST(CrashRecovery, NoFaultOverheadStaysUnderTheGate) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kUniform, 20000, p);

  rt::ClusterConfig base_cfg = faulty_cluster(p, {});
  base_cfg.reliable.fail_fast = true;
  rt::Cluster<Msg> base_cluster(base_cfg);
  Sorter base(base_cluster, chunky_sort_config());
  base.run(shards);
  verify_sorted(base, shards);

  rt::Cluster<Msg> det_cluster(recovery_cluster(p, {}));
  Sorter det(det_cluster, chunky_sort_config());
  det.run(shards);
  verify_sorted(det, shards);
  EXPECT_LT(static_cast<double>(det.stats().total_time),
            1.03 * static_cast<double>(base.stats().total_time));

  rt::Cluster<Msg> rec_cluster(recovery_cluster(p, {}));
  Sorter rec(rec_cluster, recovery_sort_config());
  rec.run(shards);
  verify_sorted(rec, shards);
  EXPECT_EQ(fingerprint(rec), fingerprint(det));
  EXPECT_EQ(rec.stats().recovery.recoveries, 0u);
  EXPECT_EQ(rec.stats().recovery.final_members, p);
}

TEST(CrashRecoveryDeath, DoubleFailureBelowMinMembersIsUnrecoverable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto doomed = [] {
    const std::size_t p = 4;
    auto shards = make_shards(gen::Distribution::kUniform, 8000, p);
    net::FaultConfig fc;
    fc.crashes = {net::CrashEvent{2, 0}, net::CrashEvent{3, 0}};
    rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
    SortConfig scfg = recovery_sort_config();
    scfg.recovery.min_members = 3;  // 2 survivors void the contract
    Sorter sorter(cluster, scfg);
    sorter.run(shards);
  };
  EXPECT_DEATH(doomed(), "unrecoverable sort: surviving membership");
}

TEST(CrashRecoveryDeath, ExhaustedRecoveryBudgetIsUnrecoverable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto doomed = [] {
    const std::size_t p = 5;
    auto shards = make_shards(gen::Distribution::kUniform, 8000, p);
    const sim::SimTime clean_total = clean_recovery_total(shards);
    net::FaultConfig fc;
    fc.crashes = {net::CrashEvent{2, clean_total / 2}};
    rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
    SortConfig scfg = recovery_sort_config();
    scfg.recovery.max_recoveries = 0;  // the one failed attempt exhausts it
    Sorter sorter(cluster, scfg);
    sorter.run(shards);
  };
  EXPECT_DEATH(doomed(), "unrecoverable sort: recovery budget exhausted");
}

// ---- Crash-stop chaos under the non-baseline partition schemes ---------
//
// Histogram refinement adds a master-driven lockstep probe protocol to
// splitter selection, and two-level AMS adds a level-1 group exchange
// before the scoped phase-2 sort; a rank killed inside either must funnel
// into the same phase-level recovery: abort the attempt, regenerate the
// dead shard, re-run on survivors, and pass the exactly-once audit there.
// Crash instants are aimed by fractions of a clean pilot run (the
// EveryPhase convention) plus one histogram kill aimed directly inside the
// refinement window from the pilot's per-step wall times.

SortConfig scheme_recovery_config(PartitionScheme scheme, double epsilon) {
  SortConfig cfg = recovery_sort_config();
  cfg.partition = scheme;
  cfg.partition_epsilon = epsilon;
  return cfg;
}

// Clean pilot over the identical stack; returns the full sorter stats so
// callers can aim at per-step windows, not just the total.
SortStats<Key> clean_scheme_stats(const std::vector<std::vector<Key>>& shards,
                                  PartitionScheme scheme, double epsilon) {
  rt::Cluster<Msg> cluster(recovery_cluster(shards.size(), {}));
  Sorter sorter(cluster, scheme_recovery_config(scheme, epsilon));
  sorter.run(shards);
  return sorter.stats();
}

class SchemeCrash
    : public ::testing::TestWithParam<std::tuple<PartitionScheme, double>> {};

TEST_P(SchemeCrash, KilledRankRecoversUnderTheScheme) {
  const auto [scheme, fraction] = GetParam();
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kRightSkewed, 20000, p);
  const sim::SimTime clean_total =
      clean_scheme_stats(shards, scheme, 0.10).total_time;
  ASSERT_GT(clean_total, 0);

  net::FaultConfig fc;
  // Rank 3 is the second AMS group's master at p=5 — the nastiest victim.
  fc.crashes = {net::CrashEvent{
      3, static_cast<sim::SimTime>(fraction *
                                   static_cast<double>(clean_total))}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster, scheme_recovery_config(scheme, 0.10));
  sorter.run(shards);  // the exactly-once audit runs inside the sorter
  verify_sorted(sorter, shards);

  const auto& rec = sorter.stats().recovery;
  EXPECT_GE(rec.recoveries, 1u);
  EXPECT_EQ(rec.final_members, 4u);
  EXPECT_TRUE(sorter.partitions()[3].empty());
  EXPECT_GE(rec.regenerated_shards, 1u);
}

// Where the kills land in a clean run of this stack (victim rank 3). AMS
// (82.4 us): 0.15 in the local sort, 0.35 at the end of the level-1
// sample send, 0.5 in the level-1 bucket exchange, 0.7 in the phase-2
// partition plan. Histogram (101.8 us; the master's refinement rounds run
// 20.6-48.9 us): 0.15 in the local sort, 0.35 in a probe round, 0.5 while
// the victim still waits for the closing down-sweep, 0.7 in the exchange.
INSTANTIATE_TEST_SUITE_P(
    BothSchemes, SchemeCrash,
    ::testing::Combine(::testing::Values(PartitionScheme::kHistogramRefine,
                                         PartitionScheme::kTwoLevelAms),
                       ::testing::Values(0.15, 0.35, 0.5, 0.7)));

// Aimed shot: kill a member while the master is mid-refinement-round. The
// refinement window on the master's wall clock starts after its local sort
// + sampling and spans the splitter-select step; a tight epsilon keeps the
// window wide (more rounds).
TEST(SchemeCrash2, MidRefinementRoundKillRecovers) {
  const std::size_t p = 5;
  auto shards = make_shards(gen::Distribution::kZipf, 20000, p);
  const auto pilot = clean_scheme_stats(
      shards, PartitionScheme::kHistogramRefine, 0.01);
  ASSERT_GE(pilot.partition.rounds, 2u)
      << "pilot resolved without iterating; tighten epsilon";
  const auto& master = pilot.machines[0];
  const sim::SimTime refine_start =
      master.steps[Step::kLocalSort] + master.steps[Step::kSampling];
  const sim::SimTime crash_at =
      refine_start + master.steps[Step::kSplitterSelect] / 2;

  net::FaultConfig fc;
  fc.crashes = {net::CrashEvent{2, crash_at}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster,
                scheme_recovery_config(PartitionScheme::kHistogramRefine,
                                       0.01));
  sorter.run(shards);
  verify_sorted(sorter, shards);
  EXPECT_GE(sorter.stats().recovery.recoveries, 1u);
  EXPECT_EQ(sorter.stats().recovery.final_members, 4u);
}

// Aimed shot at an interior node of the scope tree: at p=21 the root's
// children each parent a subtree of four, so killing one mid-round orphans
// its subtree, whose members wait on a parent that never answers. They
// must notice through the failure detector and abort, and the attempt must
// recover on the 20 survivors.
TEST(SchemeCrash2, InteriorTreeNodeKillRecovers) {
  const std::size_t p = 21;
  const std::size_t victim = 6;
  const ScopeTree node(p, victim);
  ASSERT_EQ(node.parent, 0u);
  ASSERT_EQ(node.children.size(), 4u);
  auto shards = make_shards(gen::Distribution::kZipf, p * 4000, p);
  const auto pilot = clean_scheme_stats(
      shards, PartitionScheme::kHistogramRefine, 0.01);
  ASSERT_GE(pilot.partition.rounds, 2u)
      << "pilot resolved without iterating; tighten epsilon";
  const auto& master = pilot.machines[0];
  const sim::SimTime crash_at = master.steps[Step::kLocalSort] +
                                master.steps[Step::kSampling] +
                                master.steps[Step::kSplitterSelect] / 2;

  net::FaultConfig fc;
  fc.crashes = {net::CrashEvent{victim, crash_at}};
  rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
  Sorter sorter(cluster,
                scheme_recovery_config(PartitionScheme::kHistogramRefine,
                                       0.01));
  sorter.run(shards);  // the exactly-once audit runs inside the sorter
  verify_sorted(sorter, shards);
  const auto& rec = sorter.stats().recovery;
  EXPECT_EQ(rec.recoveries, 1u);
  EXPECT_EQ(rec.final_members, p - 1);
  EXPECT_TRUE(sorter.partitions()[victim].empty());
  EXPECT_EQ(rec.regenerated_shards, 1u);
}

TEST(SchemeCrash2, SchemeCrashScheduleReplaysBitIdentically) {
  const std::size_t p = 5;
  auto run_once = [&](PartitionScheme scheme) {
    auto shards = make_shards(gen::Distribution::kRightSkewed, 8000, p);
    const sim::SimTime clean_total =
        clean_scheme_stats(shards, scheme, 0.10).total_time;
    net::FaultConfig fc;
    fc.crashes = {net::CrashEvent{3, clean_total * 2 / 5}};
    rt::Cluster<Msg> cluster(recovery_cluster(p, fc));
    Sorter sorter(cluster, scheme_recovery_config(scheme, 0.10));
    sorter.run(shards);
    return fingerprint(sorter);
  };
  EXPECT_EQ(run_once(PartitionScheme::kHistogramRefine),
            run_once(PartitionScheme::kHistogramRefine));
  EXPECT_EQ(run_once(PartitionScheme::kTwoLevelAms),
            run_once(PartitionScheme::kTwoLevelAms));
}

TEST(CrashRecoveryDeath, RecoveryPrerequisitesAreChecked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto doomed = [] {
    const std::size_t p = 3;
    auto shards = make_shards(gen::Distribution::kUniform, 3000, p);
    // Plain cluster: no reliable fail-fast layer, no failure detector.
    rt::Cluster<Msg> cluster(faulty_cluster(p, {}, /*reliable=*/false));
    Sorter sorter(cluster, recovery_sort_config());
    sorter.run(shards);
  };
  EXPECT_DEATH(doomed(), "recovery requires");
}

}  // namespace
}  // namespace pgxd::core
