// Tests for the exchange BufferPool and the hot path's allocation
// discipline: chunk buffers are leased/returned instead of allocated per
// message (O(p), not O(chunks), fresh allocations per sort), the sorting
// kernels themselves allocate nothing per element, and the pool stays
// correct — no aliasing, no double lease — under fault-injected
// retransmits and fabric-level duplication.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/distributed_sort.hpp"
#include "datagen/distributions.hpp"
#include "net/fabric.hpp"
#include "runtime/cluster.hpp"
#include "runtime/memory.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/quicksort.hpp"
#include "sort/soa_merge.hpp"

// Counting allocator: global operator new/delete instrumented for the whole
// test binary; individual tests read the counter delta around the call
// under test (everything here is single-threaded unless noted).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
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

// --- BufferPool unit behaviour ----------------------------------------------

TEST(BufferPool, FirstLeaseAllocatesLaterLeasesReuse) {
  rt::BufferPool<Key> pool;
  auto a = pool.acquire(100);
  EXPECT_GE(a.capacity(), 100u);
  const Key* storage = a.data();
  pool.release(std::move(a));
  auto b = pool.acquire(50);  // smaller hint: same storage is big enough
  EXPECT_EQ(b.data(), storage);
  EXPECT_TRUE(b.empty());
  pool.release(std::move(b));

  const auto& st = pool.stats();
  EXPECT_EQ(st.leases, 2u);
  EXPECT_EQ(st.fresh_allocs, 1u);
  EXPECT_EQ(st.reuses, 1u);
  EXPECT_EQ(st.returns, 2u);
  EXPECT_EQ(pool.free_buffers(), 1u);
}

TEST(BufferPool, LeasedBuffersNeverAlias) {
  rt::BufferPool<Key> pool;
  auto a = pool.acquire(10);
  auto b = pool.acquire(10);
  auto c = pool.acquire(10);
  EXPECT_NE(a.data(), b.data());
  EXPECT_NE(b.data(), c.data());
  EXPECT_NE(a.data(), c.data());
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));
  EXPECT_EQ(pool.stats().fresh_allocs, 3u);
  EXPECT_EQ(pool.stats().peak_free, 3u);
}

TEST(BufferPool, EmptyBufferReturnIsIgnored) {
  rt::BufferPool<Key> pool;
  pool.release(std::vector<Key>{});  // moved-from buffers arrive like this
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.stats().returns, 1u);
}

TEST(BufferPool, DuplicatedMessageCopiesAreDistinctStorage) {
  // The retransmit/duplication contract: a fabric-cloned message carries a
  // *copy* of the payload, so the receiver can release both the original
  // and the clone — distinct storage, both accepted, no aliasing.
  rt::BufferPool<Key> pool;
  auto original = pool.acquire(16);
  original.assign({1, 2, 3});
  std::vector<Key> fabric_clone = original;  // what net duplication does
  EXPECT_NE(original.data(), fabric_clone.data());
  pool.release(std::move(original));
  pool.release(std::move(fabric_clone));
  EXPECT_EQ(pool.free_buffers(), 2u);
  EXPECT_EQ(pool.stats().returns, 2u);
  // Both pooled blocks feed later leases without aliasing.
  auto a = pool.acquire(4);
  auto b = pool.acquire(4);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(pool.stats().reuses, 2u);
  pool.release(std::move(a));
  pool.release(std::move(b));
}

TEST(BufferPool, MovedFromReleaseAfterMoveIsHarmless) {
  // A caller that releases, keeps the moved-from husk, and "releases" it
  // again must not poison the free list (capacity-0 returns are ignored).
  rt::BufferPool<Key> pool;
  auto buf = pool.acquire(8);
  buf.push_back(7);
  pool.release(std::move(buf));
  pool.release(std::move(buf));  // moved-from: ignored, not double-pooled
  EXPECT_EQ(pool.free_buffers(), 1u);
}

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

// --- Exchange buffer pooling in the full sort --------------------------------

std::vector<std::vector<Key>> uniform_shards(std::size_t total_n,
                                             std::size_t machines,
                                             std::uint64_t seed = 42) {
  gen::DataGenConfig dcfg;
  dcfg.dist = gen::Distribution::kUniform;
  dcfg.domain = 1 << 20;
  dcfg.seed = seed;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, total_n, machines, r));
  return shards;
}

TEST(ExchangePool, FreshAllocationsStayNearMachineCountNotChunkCount) {
  const std::size_t p = 4;
  SortConfig cfg;
  cfg.read_buffer_bytes = 2048;  // 256 keys per chunk -> many chunks
  rt::ClusterConfig ccfg;
  ccfg.machines = p;
  ccfg.threads_per_machine = 8;
  rt::Cluster<Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(uniform_shards(80000, p));

  const auto& st = sorter.pool_stats();
  // ~80000 * 3/4 remote elements / 256 per chunk ≈ 230 chunks.
  EXPECT_GT(st.leases, 100u);
  EXPECT_LE(st.fresh_allocs, 4 * p)
      << "chunk buffers must be recycled, not allocated per chunk";
  // A clean run returns every buffer: drained mailboxes, no strays.
  EXPECT_EQ(sorter.pool_stats().returns, st.leases);
  EXPECT_EQ(cluster.comm().total_pending(), 0u);
}

TEST(ExchangePool, DisabledPoolStillSortsAndLeasesNothing) {
  const std::size_t p = 4;
  SortConfig cfg;
  cfg.read_buffer_bytes = 2048;
  cfg.use_buffer_pool = false;
  rt::ClusterConfig ccfg;
  ccfg.machines = p;
  ccfg.threads_per_machine = 8;
  rt::Cluster<Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(uniform_shards(40000, p));
  EXPECT_EQ(sorter.pool_stats().leases, 0u);
}

// Reliable delivery over a lossy, duplicating fabric: retransmits resend
// modeled bytes only and the receiver-side dedup window delivers each
// payload exactly once, so pooling stays sound — every lease is returned
// exactly once and the double-release check never fires.
TEST(ExchangePool, PoolSurvivesFaultInjectedRetransmits) {
  const std::size_t p = 5;
  SortConfig cfg;
  cfg.read_buffer_bytes = 4096;
  net::FaultConfig fc;
  fc.drop_prob = 0.08;
  fc.duplicate_prob = 0.08;
  rt::ClusterConfig ccfg;
  ccfg.machines = p;
  ccfg.threads_per_machine = 8;
  ccfg.net.faults = fc;
  ccfg.reliable.enabled = true;
  rt::Cluster<Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(uniform_shards(30000, p));  // the sorter audits exactly-once

  const auto& rs = cluster.comm().reliable_stats();
  EXPECT_GT(rs.retransmits, 0u);
  EXPECT_GT(rs.duplicates_suppressed, 0u);
  const auto& st = sorter.pool_stats();
  EXPECT_GT(st.leases, 0u);
  EXPECT_EQ(st.returns, st.leases);
  EXPECT_LE(st.fresh_allocs, 6 * p);
  for (const auto& ms : sorter.stats().machines)
    EXPECT_EQ(ms.duplicate_chunks, 0u);
}

// A duplicating fabric WITHOUT the reliable layer: fabric-cloned chunks
// reach the application and are returned to the pool as independent
// storage (returns > leases is legal); the aliasing check must not fire.
TEST(ExchangePool, FabricDuplicatesReturnAsIndependentBuffers) {
  const std::size_t p = 4;
  SortConfig cfg;
  cfg.read_buffer_bytes = 4096;
  net::FaultConfig fc;
  fc.duplicate_prob = 0.20;
  rt::ClusterConfig ccfg;
  ccfg.machines = p;
  ccfg.threads_per_machine = 8;
  ccfg.net.faults = fc;
  ccfg.allow_undrained = true;  // trailing duplicates may sit in mailboxes
  rt::Cluster<Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(uniform_shards(30000, p));

  std::uint64_t dup_chunks = 0;
  for (const auto& ms : sorter.stats().machines)
    dup_chunks += ms.duplicate_chunks;
  EXPECT_GT(dup_chunks, 0u);
  const auto& st = sorter.pool_stats();
  EXPECT_GT(st.returns, st.leases - st.fresh_allocs);
}

}  // namespace
}  // namespace pgxd
