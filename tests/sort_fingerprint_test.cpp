// Golden behaviour fingerprints of the distributed sort over the exchange
// and final-merge paths: every partition scheme x every final-merge
// strategy, plus the bulk-synchronous and unbuffered exchange ablations.
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
};

struct Case {
  const char* name;
  PartitionScheme partition;
  MergeAlgo merge;
  bool async_exchange;
  bool buffered_exchange;
  Fingerprint golden;
};

// FNV-1a over 64-bit words.
struct Hash64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; }
};

Fingerprint run_case(const Case& c) {
  gen::DataGenConfig dcfg;
  dcfg.dist = gen::Distribution::kFewDistinct;
  dcfg.seed = 2017;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < kMachines; ++r)
    shards.push_back(gen::generate_shard(dcfg, kTotalKeys, kMachines, r));

  SortConfig cfg;
  cfg.read_buffer_bytes = 2048;
  cfg.partition = c.partition;
  cfg.final_merge = c.merge;
  cfg.async_exchange = c.async_exchange;
  cfg.buffered_exchange = c.buffered_exchange;
  cfg.telemetry = false;

  rt::ClusterConfig ccfg;
  ccfg.machines = kMachines;
  ccfg.threads_per_machine = 8;
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
  Hash64 hash;
  for (const auto& part : sorter.partitions()) {
    hash.add(part.size());
    for (const auto& item : part) {
      hash.add(item.key);
      hash.add(item.prov.prev_machine);
      hash.add(item.prov.prev_index);
    }
  }
  fp.output_hash = hash.h;
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

// Golden fields: {total ns, {six per-step max ns}, wire_bytes_total,
// wire_bytes_samples, fabric messages, DES events, max peak persistent
// bytes, max peak temp bytes, output hash}.
const Case kCases[] = {
    {"OneLevelKway", kOne, kKway, true, true,
     {165879, {37657, 3356, 12243, 13726, 100592, 7402},
      519488, 2880, 376, 3282, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"OneLevelTree", kOne, kTree, true, true,
     {172673, {37657, 3356, 12243, 13726, 100592, 14196},
      519488, 2880, 376, 3282, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"OneLevelKwaySeq", kOne, kSeq, true, true,
     {199058, {37657, 3356, 12243, 13726, 100592, 40581},
      519488, 2880, 376, 3282, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"HistogramKway", kHist, kKway, true, true,
     {199063, {37657, 3038, 76200, 23716, 68270, 7402},
      350304, 5440, 344, 2902, 160000, 192000, 0xd097ed39b5a94de5ull}},
    {"HistogramTree", kHist, kTree, true, true,
     {205853, {37657, 3038, 76200, 23716, 68270, 14192},
      350304, 5440, 344, 2902, 160000, 192000, 0xd097ed39b5a94de5ull}},
    {"HistogramKwaySeq", kHist, kSeq, true, true,
     {232237, {37657, 3038, 76200, 23716, 68270, 40576},
      350304, 5440, 344, 2902, 160000, 192000, 0xd097ed39b5a94de5ull}},
    {"TwoLevelKway", kAms, kKway, true, true,
     {135793, {37657, 6627, 18333, 18973, 62844, 4706},
      777840, 6384, 280, 2518, 160020, 256032, 0x72b173217d271c7dull}},
    {"TwoLevelTree", kAms, kTree, true, true,
     {138185, {37657, 6627, 18333, 18973, 62844, 7098},
      777840, 6384, 280, 2518, 160020, 256032, 0x72b173217d271c7dull}},
    {"TwoLevelKwaySeq", kAms, kSeq, true, true,
     {151378, {37657, 6627, 18333, 18973, 62844, 20291},
      777840, 6384, 280, 2518, 160020, 256032, 0x72b173217d271c7dull}},
    {"OneLevelKwayBsp", kOne, kKway, false, true,
     {193997, {37657, 3356, 12243, 13726, 129704, 7402},
      519488, 2880, 376, 3298, 160020, 192024, 0x06f27abe11ea9429ull}},
    {"OneLevelKwayUnbuffered", kOne, kKway, true, false,
     {112194, {37657, 3356, 12243, 13726, 44014, 7402},
      516032, 2880, 160, 1339, 160020, 192024, 0x06f27abe11ea9429ull}},
};

// Every case runs once per test binary; both tests read the results.
const std::vector<Fingerprint>& measured() {
  static const std::vector<Fingerprint> fps = [] {
    std::vector<Fingerprint> out;
    for (const Case& c : kCases) out.push_back(run_case(c));
    return out;
  }();
  return fps;
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
          kCases[i].buffered_exchange)
        hashes.push_back(measured()[i].output_hash);
    ASSERT_EQ(hashes.size(), 3u) << partition_scheme_name(scheme);
    EXPECT_EQ(hashes[0], hashes[1]) << partition_scheme_name(scheme);
    EXPECT_EQ(hashes[0], hashes[2]) << partition_scheme_name(scheme);
  }
}

}  // namespace
}  // namespace pgxd::core
