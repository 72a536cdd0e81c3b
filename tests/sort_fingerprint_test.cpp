// Golden behaviour fingerprints of the distributed sort over the exchange
// and final-merge paths: every partition scheme x every final-merge
// strategy, plus the bulk-synchronous exchange ablation, and substrate
// cases: reliable delivery over a lossy, duplicating fabric, two-level AMS
// recovering from a rank killed mid-exchange, and every partition scheme
// over a duplicating fabric with no reliable layer beneath the sorter.
// A fingerprint pins what the simulation did, not just that the output is
// sorted: total and per-step simulated time, wire bytes, fabric messages,
// DES events, peak modelled memory, and a hash over every output item's
// key and provenance. A refactor that claims "nothing moved" must leave
// every golden here untouched; a change that moves simulated behaviour must
// update the goldens in its own diff and say why.
//
// Few-distinct keys and a 2 KiB read buffer (256 keys per chunk) make the
// investigator split duplicate runs and every exchange range span several
// chunks. Telemetry is pinned off so the goldens hold under an
// instrumented suite run too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/distributed_sort.hpp"
#include "datagen/distributions.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;

// p = 9 is a square, so the two-level AMS scheme runs 3 groups of 3.
constexpr std::size_t kMachines = 9;
constexpr std::size_t kTotalKeys = 9 * 8000;

struct Fingerprint {
  sim::SimTime total = 0;
  std::array<sim::SimTime, kStepCount> steps{};
  std::uint64_t wire_bytes_total = 0;
  std::uint64_t wire_bytes_samples = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_persistent = 0;
  std::uint64_t peak_temp = 0;
  std::uint64_t output_hash = 0;
  // Not part of the golden: evidence that a substrate case exercised the
  // machinery it pins.
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t fabric_duplicates = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t final_members = 0;
};

struct Case {
  const char* name;
  PartitionScheme partition;
  MergeAlgo merge;
  bool async_exchange;
  Fingerprint golden;
  // Substrate cases adjust the sort and cluster configs before the run.
  void (*setup)(SortConfig&, rt::ClusterConfig&) = nullptr;
};

// FNV-1a over 64-bit words.
struct Hash64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; }
};

std::vector<std::vector<Key>> few_distinct_shards(std::size_t machines,
                                                  std::size_t total) {
  gen::DataGenConfig dcfg;
  dcfg.dist = gen::Distribution::kFewDistinct;
  dcfg.seed = 2017;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, total, machines, r));
  return shards;
}

// Every output partition's size, then each item's key and provenance.
std::uint64_t output_hash(const Sorter& sorter) {
  Hash64 hash;
  for (const auto& part : sorter.partitions()) {
    hash.add(part.size());
    for (const auto& item : part) {
      hash.add(item.key);
      hash.add(item.prov.prev_machine);
      hash.add(item.prov.prev_index);
    }
  }
  return hash.h;
}

Fingerprint run_case(const Case& c, std::size_t machines = kMachines,
                     std::size_t total = kTotalKeys) {
  std::vector<std::vector<Key>> shards = few_distinct_shards(machines, total);

  SortConfig cfg;
  cfg.read_buffer_bytes = 2048;
  cfg.partition = c.partition;
  cfg.final_merge = c.merge;
  cfg.async_exchange = c.async_exchange;
  cfg.telemetry = false;

  rt::ClusterConfig ccfg;
  ccfg.machines = machines;
  ccfg.threads_per_machine = 8;
  if (c.setup != nullptr) c.setup(cfg, ccfg);
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(std::move(shards));

  const auto& st = sorter.stats();
  Fingerprint fp;
  fp.total = st.total_time;
  fp.steps = st.steps_max.t;
  fp.wire_bytes_total = st.wire_bytes_total;
  fp.wire_bytes_samples = st.wire_bytes_samples;
  fp.messages = cluster.fabric().total_messages();
  fp.events = cluster.simulator().events_processed();
  for (const auto& ms : st.machines) {
    fp.peak_persistent = std::max(fp.peak_persistent, ms.peak_persistent_bytes);
    fp.peak_temp = std::max(fp.peak_temp, ms.peak_temp_bytes);
  }
  fp.output_hash = output_hash(sorter);
  fp.retransmits = cluster.comm().reliable_stats().retransmits;
  fp.duplicates_suppressed =
      cluster.comm().reliable_stats().duplicates_suppressed;
  fp.fabric_duplicates = cluster.fabric().total_duplicated();
  fp.recoveries = st.recovery.recoveries;
  fp.final_members = st.recovery.final_members;
  return fp;
}

// The fingerprint as a Case initializer: goldens compare in this form, so a
// mismatch prints readably and a deliberate behaviour change can paste the
// new golden straight from the failure message.
std::string format(const Fingerprint& fp) {
  std::string s = "{" + std::to_string(fp.total) + ", {";
  for (std::size_t i = 0; i < kStepCount; ++i)
    s += (i ? ", " : "") + std::to_string(fp.steps[i]);
  char tail[256];
  std::snprintf(tail, sizeof tail,
                "}, %llu, %llu, %llu, %llu, %llu, %llu, 0x%016llxull}",
                static_cast<unsigned long long>(fp.wire_bytes_total),
                static_cast<unsigned long long>(fp.wire_bytes_samples),
                static_cast<unsigned long long>(fp.messages),
                static_cast<unsigned long long>(fp.events),
                static_cast<unsigned long long>(fp.peak_persistent),
                static_cast<unsigned long long>(fp.peak_temp),
                static_cast<unsigned long long>(fp.output_hash));
  return s + tail;
}

constexpr auto kOne = PartitionScheme::kOneLevelSample;
constexpr auto kHist = PartitionScheme::kHistogramRefine;
constexpr auto kAms = PartitionScheme::kTwoLevelAms;
constexpr auto kKway = MergeAlgo::kParallelKway;
constexpr auto kTree = MergeAlgo::kPairwiseTree;
constexpr auto kSeq = MergeAlgo::kSequentialKway;

// Reliable delivery over a fabric that drops and duplicates 5% of frames
// each: RTO timers, in-flight accounting, receiver dedup and acks.
void lossy_reliable_fabric(SortConfig&, rt::ClusterConfig& ccfg) {
  ccfg.net.faults.drop_prob = 0.05;
  ccfg.net.faults.duplicate_prob = 0.05;
  ccfg.reliable.enabled = true;
}

// The recovery stack (reliable fail-fast delivery, failure detector,
// supervisor) with rank 4 killed at 116 us: inside its level-2 group
// exchange, which a clean run of this stack holds from 101.7 to 133.5 us.
void crash_mid_exchange(SortConfig& cfg, rt::ClusterConfig& ccfg) {
  ccfg.net.faults.crashes = {net::CrashEvent{4, 116 * sim::kMicrosecond}};
  ccfg.reliable.enabled = true;
  ccfg.reliable.fail_fast = true;
  ccfg.detector.enabled = true;
  ccfg.allow_undrained = true;
  cfg.recovery.enabled = true;
}

// A fabric that duplicates 15% of frames with reliable delivery off, so
// nothing below the sorter drops the copies: every gather's per-source and
// stale-round drop branches see them. Copies that arrive after their
// gather completed stay behind in the mailboxes.
void duplicating_fabric(SortConfig&, rt::ClusterConfig& ccfg) {
  ccfg.net.faults.duplicate_prob = 0.15;
  ccfg.allow_undrained = true;
}

// Golden fields: {total ns, {six per-step max ns}, wire_bytes_total,
// wire_bytes_samples, fabric messages, DES events, max peak persistent
// bytes, max peak temp bytes, output hash}.
const Case kCases[] = {
    {"OneLevelKway", kOne, kKway, true,
     {115664, {37657, 3356, 12243, 13726, 45367, 7402},
      519488, 2880, 376, 3284, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"OneLevelTree", kOne, kTree, true,
     {122458, {37657, 3356, 12243, 13726, 45367, 14196},
      519488, 2880, 376, 3284, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"OneLevelKwaySeq", kOne, kSeq, true,
     {148843, {37657, 3356, 12243, 13726, 45367, 40581},
      519488, 2880, 376, 3284, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"HistogramKway", kHist, kKway, true,
     {175868, {37657, 3038, 75393, 15556, 45919, 7402},
      350432, 5568, 336, 2859, 160000, 192000, 0xd097ed39b5a94de5ull}},
    {"HistogramTree", kHist, kTree, true,
     {182658, {37657, 3038, 75393, 15556, 45919, 14192},
      350432, 5568, 336, 2859, 160000, 192000, 0xd097ed39b5a94de5ull}},
    {"HistogramKwaySeq", kHist, kSeq, true,
     {209042, {37657, 3038, 75393, 15556, 45919, 40576},
      350432, 5568, 336, 2859, 160000, 192000, 0xd097ed39b5a94de5ull}},
    {"TwoLevelKway", kAms, kKway, true,
     {134787, {37657, 6627, 17327, 18970, 64154, 4706},
      777840, 6384, 280, 2519, 160020, 256032, 0x72b173217d271c7dull}},
    {"TwoLevelTree", kAms, kTree, true,
     {137179, {37657, 6627, 17327, 18970, 64154, 7098},
      777840, 6384, 280, 2519, 160020, 256032, 0x72b173217d271c7dull}},
    {"TwoLevelKwaySeq", kAms, kSeq, true,
     {150372, {37657, 6627, 17327, 18970, 64154, 20291},
      777840, 6384, 280, 2519, 160020, 256032, 0x72b173217d271c7dull}},
    {"OneLevelKwayBsp", kOne, kKway, false,
     {193997, {37657, 3356, 12243, 13726, 129704, 7402},
      519488, 2880, 376, 3298, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"OneLevelKwayLossyReliable", kOne, kKway, true,
     {4019453, {37657, 13117, 8096, 1374723, 2667956, 7402},
      519488, 2880, 835, 6200, 160020, 192024, 0x06f27abe11ea9429ull},
     lossy_reliable_fabric},
    {"TwoLevelKwayCrashRecovery", kAms, kKway, true,
     {10280214, {47472, 24937, 19990, 21044, 80387, 4856},
      1522872, 12344, 1330, 9442, 400060, 384064, 0xe4e2dcdde66306c5ull},
     crash_mid_exchange},
    {"OneLevelKwayDuplicating", kOne, kKway, true,
     {115742, {37657, 3432, 12319, 13726, 45369, 7402},
      519488, 2880, 376, 3410, 160020, 192024, 0x06f27abe11ea9429ull},
     duplicating_fabric},
    {"HistogramKwayDuplicating", kHist, kKway, true,
     {175947, {37657, 3046, 75472, 15580, 46011, 7402},
      350432, 5568, 336, 2969, 160000, 192000, 0xd097ed39b5a94de5ull},
     duplicating_fabric},
    {"TwoLevelKwayDuplicating", kAms, kKway, true,
     {134866, {37657, 6703, 17406, 18975, 64159, 4706},
      777840, 6384, 280, 2600, 160020, 256032, 0x72b173217d271c7dull},
     duplicating_fabric},
};

// Every case runs once per test binary; every test reads the results.
const std::vector<Fingerprint>& measured() {
  static const std::vector<Fingerprint> fps = [] {
    std::vector<Fingerprint> out;
    for (const Case& c : kCases) out.push_back(run_case(c));
    return out;
  }();
  return fps;
}

const Fingerprint& measured(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kCases); ++i)
    if (kCases[i].name == name) return measured()[i];
  ADD_FAILURE() << "no fingerprint case " << name;
  return measured().front();
}

TEST(SortFingerprint, MatchesGoldens) {
  for (std::size_t i = 0; i < std::size(kCases); ++i)
    EXPECT_EQ(format(measured()[i]), format(kCases[i].golden))
        << kCases[i].name;
}

// The three final-merge strategies are different algorithms over the same
// received runs, so within one partition scheme they must emit the same
// items in the same order, provenance included.
TEST(SortFingerprint, MergeStrategiesAgreeWithinEachScheme) {
  for (const auto scheme : {kOne, kHist, kAms}) {
    std::vector<std::uint64_t> hashes;
    for (std::size_t i = 0; i < std::size(kCases); ++i)
      if (kCases[i].partition == scheme && kCases[i].async_exchange &&
          kCases[i].setup == nullptr)
        hashes.push_back(measured()[i].output_hash);
    ASSERT_EQ(hashes.size(), 3u) << partition_scheme_name(scheme);
    EXPECT_EQ(hashes[0], hashes[1]) << partition_scheme_name(scheme);
    EXPECT_EQ(hashes[0], hashes[2]) << partition_scheme_name(scheme);
  }
}

// The substrate goldens only pin what they claim if the run really went
// through that machinery. Faults change timing, never the output.
TEST(SortFingerprint, SubstrateCasesExerciseTheirMachinery) {
  const Fingerprint& lossy = measured("OneLevelKwayLossyReliable");
  EXPECT_GT(lossy.retransmits, 0u);
  EXPECT_GT(lossy.duplicates_suppressed, 0u);
  EXPECT_EQ(lossy.output_hash, measured("OneLevelKway").output_hash);

  const Fingerprint& crash = measured("TwoLevelKwayCrashRecovery");
  EXPECT_EQ(crash.recoveries, 1u);
  EXPECT_EQ(crash.final_members, kMachines - 1);

  for (const char* scheme : {"OneLevelKway", "HistogramKway", "TwoLevelKway"}) {
    const Fingerprint& dup = measured(std::string(scheme) + "Duplicating");
    EXPECT_GT(dup.fabric_duplicates, 0u) << scheme;
    EXPECT_EQ(dup.retransmits, 0u) << scheme;
    EXPECT_EQ(dup.output_hash, measured(scheme).output_hash) << scheme;
  }
}

// The scale-out control plane runs over a k-ary scope tree, and at p=9 that
// tree is too shallow to tell a scope-order duplicate split from one that
// only keeps order within each subtree. At p=77 (histogram) and p=81 (AMS
// level 1) the tree is at least three levels deep with subtrees of unequal
// size, and few-distinct keys put most boundaries inside one duplicate run,
// so every member's duplicate take is non-trivial. The p=77 run is also the
// only pinned case whose step-4 counts go through the master relay
// (q > 64). The output hashes were recorded with the star-shaped control
// plane the tree replaced; the rest of each golden with the tree.
TEST(SortFingerprint, DeepScopeTreesKeepTheOutput) {
  struct Deep {
    Case c;
    std::size_t machines;
  };
  const Deep deep[] = {
      {{"HistogramKwayP77", kHist, kKway, true,
        {298744, {12635, 3232, 154531, 111654, 84097, 4184},
         1538464, 360224, 1745, 14754, 40000, 48000, 0x394e3900dada5254ull}},
       77},
      {{"TwoLevelKwayP81", kAms, kKway, true,
        {110095, {12635, 6482, 31552, 32326, 42701, 3820},
         2363904, 38144, 2968, 24640, 57280, 91648, 0x3b2f7f06f7840d99ull}},
       81},
  };
  for (const Deep& d : deep)
    EXPECT_EQ(format(run_case(d.c, d.machines, d.machines * 2000)),
              format(d.c.golden))
        << d.c.name;
}

}  // namespace
}  // namespace pgxd::core
