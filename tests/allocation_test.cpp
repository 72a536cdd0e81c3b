// Allocation discipline of the hot path: the sorting kernels allocate
// nothing per element, and the exchange allocates nothing per chunk. Every
// data frame is a read-only view of its sender's sorted run
// (core::SortedRun), so retransmits and fabric duplicates share the run's
// storage, and a frame keeps the run alive for as long as the frame exists.
// Under ASan (scripts/check.sh) a frame that outlived its run would fail
// these tests as a use-after-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/distributed_sort.hpp"
#include "datagen/distributions.hpp"
#include "net/fabric.hpp"
#include "runtime/cluster.hpp"
#include "sim/trace.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/quicksort.hpp"

// Counting allocator: global operator new/delete instrumented for the whole
// test binary; individual tests read the counter delta around the call
// under test (everything here is single-threaded unless noted). It also
// counts the allocations of one watched size.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::uint64_t> g_watched_allocs{0};

void count_alloc(std::size_t size) {
  ++g_allocs;
  if (size == g_watched_size.load(std::memory_order_relaxed))
    ++g_watched_allocs;
}
}  // namespace

void* operator new(std::size_t size) {
  count_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc(size);
  return std::malloc(size);
}
// GCC flags free() inside a replaced operator delete as a mismatched
// allocation pair; it cannot see that the paired operator new above
// allocates with malloc, so the pairing is exactly right here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace pgxd {
namespace {

using core::DistributedSorter;
using core::SortConfig;
using core::SortMsg;
using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using Msg = SortMsg<Key>;

// --- Kernel allocation discipline -------------------------------------------

TEST(AllocationDiscipline, QuicksortAllocatesNothing) {
  Rng rng(7);
  std::vector<Key> v(200000);
  for (auto& x : v) x = rng.next();
  const std::uint64_t before = g_allocs.load();
  sort::quicksort(std::span<Key>(v));
  EXPECT_EQ(g_allocs.load(), before);  // stack offset buffers only
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(AllocationDiscipline, BalancedMergeAllocationsIndependentOfRunCount) {
  // With pre-sized scratch, a merge level's work is one reused segment
  // vector — allocations scale with levels (log runs), not with runs or
  // tasks. 64 runs merged sequentially must stay under a small fixed count.
  Rng rng(13);
  const std::size_t runs = 64, per_run = 2000;
  std::vector<Key> data(runs * per_run);
  std::vector<std::size_t> bounds(runs + 1);
  for (std::size_t r = 0; r < runs; ++r) {
    bounds[r] = r * per_run;
    for (std::size_t i = 0; i < per_run; ++i)
      data[r * per_run + i] = rng.next();
    std::sort(data.begin() + r * per_run, data.begin() + (r + 1) * per_run);
  }
  bounds[runs] = data.size();
  std::vector<Key> scratch(data.size());
  const std::uint64_t before = g_allocs.load();
  sort::balanced_merge(data, bounds, scratch);
  const std::uint64_t delta = g_allocs.load() - before;
  EXPECT_LE(delta, 40u) << "merge allocations must not scale with run count";
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(AllocationDiscipline, IndexedRunAllAllocationsIndependentOfTaskCount) {
  ThreadPool pool(2);
  pool.run_all(1, [](std::size_t) {});  // warm the pool's queue storage
  std::atomic<std::uint64_t> sum{0};
  const std::uint64_t before = g_allocs.load();
  pool.run_all(50000, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  const std::uint64_t delta = g_allocs.load() - before;
  EXPECT_LE(delta, 64u) << "run_all must allocate O(workers), not O(tasks)";
  EXPECT_EQ(sum.load(), 50000ull * 49999ull / 2);
}

// --- Exchange frames are views ----------------------------------------------

std::vector<std::vector<Key>> uniform_shards(std::size_t total_n,
                                             std::size_t machines) {
  gen::DataGenConfig dcfg;
  dcfg.dist = gen::Distribution::kUniform;
  dcfg.domain = 1 << 20;
  dcfg.seed = 42;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, total_n, machines, r));
  return shards;
}

rt::ClusterConfig cluster_config(std::size_t machines,
                                 const net::FaultConfig& faults = {}) {
  rt::ClusterConfig ccfg;
  ccfg.machines = machines;
  ccfg.threads_per_machine = 8;
  ccfg.net.faults = faults;
  return ccfg;
}

std::vector<std::vector<Key>> sorted_shards(
    std::vector<std::vector<Key>> shards) {
  for (auto& s : shards) std::sort(s.begin(), s.end());
  return shards;
}

// Every output item holds the key its provenance names — position
// prev_index of machine prev_machine's locally sorted shard — and the
// output is the whole input in order. So each frame's view delivered its
// sender's keys.
void expect_output_matches_origins(const Sorter& sorter,
                                   const std::vector<std::vector<Key>>& input) {
  const auto runs = sorted_shards(input);
  std::size_t expected = 0;
  for (const auto& r : runs) expected += r.size();
  std::size_t total = 0;
  const Key* prev = nullptr;
  for (const auto& part : sorter.partitions())
    for (const auto& item : part) {
      ASSERT_LT(item.prov.prev_machine, runs.size());
      const auto& run = runs[item.prov.prev_machine];
      ASSERT_LT(item.prov.prev_index, run.size());
      ASSERT_EQ(item.key, run[item.prov.prev_index]);
      if (prev != nullptr) {
        ASSERT_LE(*prev, item.key);
      }
      prev = &item.key;
      ++total;
    }
  EXPECT_EQ(total, expected);
}

// The exchange copies no payload: run() makes no allocation of one full
// chunk's keys. An odd read buffer (257 keys per chunk, 2,056 bytes) gives
// the chunk payload a size no other buffer of this run has, so a pooled or
// per-chunk payload buffer would show up here.
TEST(ExchangeViews, RunAllocatesNoChunkSizedBuffer) {
  const std::size_t p = 4;
  SortConfig cfg;
  cfg.read_buffer_bytes = 257 * sizeof(Key) + 5;
  const std::size_t chunk_keys = cfg.read_buffer_bytes / sizeof(Key);
  rt::Cluster<Msg> cluster(cluster_config(p));
  Sorter sorter(cluster, cfg);
  auto shards = uniform_shards(80000, p);

  // The watch sees an allocation of that size.
  g_watched_size = chunk_keys * sizeof(Key);
  g_watched_allocs = 0;
  ::operator delete(::operator new(chunk_keys * sizeof(Key)));
  EXPECT_EQ(g_watched_allocs.load(), 1u);

  g_watched_allocs = 0;
  sorter.run(std::move(shards));
  const std::uint64_t chunk_allocs = g_watched_allocs.load();
  g_watched_size = 0;

  std::uint64_t sent = 0;
  for (const auto& ms : sorter.stats().machines) sent += ms.sent_elements;
  // ~80000 * 3/4 remote keys / 257 per chunk: over 200 chunks.
  EXPECT_GT(sent / chunk_keys, 200u);
  EXPECT_EQ(chunk_allocs, 0u) << "the exchange allocated chunk payloads";
}

// Reliable delivery over a lossy, duplicating fabric. The reliable layer
// keeps a frame until its first accepted delivery, so a frame whose first
// copy was dropped lands by retransmit — for some frames after their sender
// finished its exchange and let go of its run. The frame's own reference
// keeps the run alive, and the receiver still places the sender's keys.
TEST(ExchangeViews, RetransmittedFramesOutliveTheirSendersHold) {
  const std::size_t p = 5;
  SortConfig cfg;
  cfg.read_buffer_bytes = 4096;
  net::FaultConfig fc;
  fc.drop_prob = 0.08;
  fc.duplicate_prob = 0.08;
  rt::ClusterConfig ccfg = cluster_config(p, fc);
  ccfg.reliable.enabled = true;
  rt::Cluster<Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sim::Trace trace;
  sorter.set_trace(&trace);
  const auto shards = uniform_shards(30000, p);
  sorter.run(shards);  // the sorter audits exactly-once
  expect_output_matches_origins(sorter, shards);

  const auto& rs = cluster.comm().reliable_stats();
  EXPECT_GT(rs.retransmits, 0u);
  EXPECT_GT(rs.duplicates_suppressed, 0u);
  for (const auto& ms : sorter.stats().machines)
    EXPECT_EQ(ms.duplicate_chunks, 0u);
  // A rank lets go of its run where its send/receive span ends.
  std::vector<sim::SimTime> released(p, 0);
  for (const auto& span : trace.spans())
    if (span.label == core::step_name(core::Step::kExchange))
      released[span.lane] = span.end;
  std::size_t late = 0;
  for (const auto& f : trace.flows())
    if (f.tag == Sorter::kTagData && !f.duplicate && f.recv > released[f.src])
      ++late;
  EXPECT_GT(late, 0u) << "no frame landed after its sender let go of its run";
}

// A duplicating fabric without the reliable layer: copies reach the
// application, and a copy still queued when its receiver placed its last
// element stays in the mailbox past run(). Sender and receiver have both
// let go of the run by then, so such a stray frame is its run's last
// owner, and it still reads the sender's sorted keys.
TEST(ExchangeViews, TrailingDuplicatesStillViewTheSortedRun) {
  const std::size_t p = 8;
  SortConfig cfg;
  cfg.read_buffer_bytes = 4096;
  net::FaultConfig fc;
  fc.duplicate_prob = 0.30;
  rt::ClusterConfig ccfg = cluster_config(p, fc);
  ccfg.allow_undrained = true;  // trailing duplicates stay in mailboxes
  rt::Cluster<Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  const auto shards = uniform_shards(30000, p);
  sorter.run(shards);
  expect_output_matches_origins(sorter, shards);

  std::uint64_t dup_chunks = 0;
  for (const auto& ms : sorter.stats().machines)
    dup_chunks += ms.duplicate_chunks;
  EXPECT_GT(dup_chunks, 0u);

  const auto runs = sorted_shards(shards);
  std::size_t strays = 0;
  for (std::size_t r = 0; r < p; ++r)
    while (auto frame = cluster.comm().try_recv(r, Sorter::kTagData)) {
      const std::span<const Key> keys = frame->payload.view();
      const auto& run = runs[frame->src];
      ASSERT_LE(frame->payload.prov_base + keys.size(), run.size());
      EXPECT_TRUE(std::equal(
          keys.begin(), keys.end(),
          run.begin() +
              static_cast<std::ptrdiff_t>(frame->payload.prov_base)));
      ++strays;
    }
  EXPECT_GT(strays, 0u);
}

}  // namespace
}  // namespace pgxd
