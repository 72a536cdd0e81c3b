// Concurrency stress suite — the workloads scripts/check.sh runs under
// ThreadSanitizer (and ASan) to keep the thread pool, the parallel merge
// tree, and the exchange buffer pool race-free. Each test drives one
// subsystem through the interleavings TSan needs to observe to prove the
// synchronization: pool churn (construction/teardown under load), nested
// submission, parallel merge rounds, and concurrent lease/release traffic.
//
// Workloads are sized to finish in seconds under TSan's ~10x slowdown.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "runtime/memory.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/parallel_sort.hpp"

namespace pgxd {
namespace {

// --- ThreadPool --------------------------------------------------------------

// Construction/teardown churn with live traffic: every pool instance takes
// submissions immediately and is destroyed right after its barrier-free
// wait, so worker startup and shutdown paths run hundreds of times.
TEST(ThreadPoolStress, ChurnConstructDestroyUnderLoad) {
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(1 + round % 4);
    for (int t = 0; t < 16; ++t)
      pool.submit([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
  }
  EXPECT_EQ(total.load(), 50u * 16u);
}

// The index-based run_all overload shares one atomic cursor between the
// caller and every worker; each index must execute exactly once.
TEST(ThreadPoolStress, RunAllIndexedExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 20000;
  std::vector<std::atomic<std::uint32_t>> hits(kCount);
  for (int round = 0; round < 5; ++round) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.run_all(kCount, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << "index " << i;
  }
}

// Tasks submitting tasks while the caller drains via wait_idle: the
// completion counter must account for nested work before wait_idle returns.
TEST(ThreadPoolStress, NestedSubmitCompletesBeforeWaitIdle) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> done{0};
  for (int outer = 0; outer < 64; ++outer)
    pool.submit([&pool, &done] {
      for (int inner = 0; inner < 4; ++inner)
        pool.submit(
            [&done] { done.fetch_add(1, std::memory_order_relaxed); });
      done.fetch_add(1, std::memory_order_relaxed);
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64u * 5u);
}

// --- Parallel merge tree -----------------------------------------------------

// The Fig. 2 balanced merge drives ThreadPool::run_all with MergeSegment
// descriptors shared across workers; under TSan this proves the per-level
// barrier (run_all's wait) orders segment writes before the next level
// reads them.
TEST(MergeTreeStress, BalancedMergeParallelRounds) {
  ThreadPool pool(4);
  Rng rng(0x5eed5);
  for (int round = 0; round < 6; ++round) {
    const std::size_t runs = 8;
    const std::size_t per_run = 4000 + 512u * static_cast<unsigned>(round);
    const std::size_t n = runs * per_run;
    std::vector<std::uint64_t> data(n);
    for (auto& v : data) v = rng.next();
    std::vector<std::size_t> bounds(runs + 1);
    for (std::size_t r = 0; r <= runs; ++r) bounds[r] = r * per_run;
    for (std::size_t r = 0; r < runs; ++r)
      std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
                data.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]));

    std::vector<std::uint64_t> scratch;
    const auto stats =
        sort::balanced_merge(data, bounds, scratch, std::less<>{}, &pool);
    EXPECT_EQ(stats.levels, 3u);
    ASSERT_TRUE(std::is_sorted(data.begin(), data.end()));
  }
}

// End-to-end local sort (chunked quicksort + merge tree) on a shared pool,
// back to back, so worker reuse across phases is covered too.
TEST(MergeTreeStress, ParallelSortReusedPool) {
  ThreadPool pool(4);
  Rng rng(0xfeed);
  std::vector<std::uint64_t> scratch;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> data(30000);
    for (auto& v : data) v = rng.next();
    sort::parallel_sort(data, scratch, std::less<>{}, &pool);
    ASSERT_TRUE(std::is_sorted(data.begin(), data.end()));
  }
}

// --- BufferPool --------------------------------------------------------------

// Concurrent lease/release traffic from several threads. The pool's mutex
// must keep the free list and tallies coherent: afterwards every lease is
// matched by a return, the free list holds distinct storage, and the
// aliasing check never fired (PGXD_CHECK aborts on double release).
TEST(BufferPoolStress, ConcurrentAcquireRelease) {
  rt::BufferPool<std::uint64_t> pool;
  constexpr std::size_t kThreads = 4;
  constexpr int kIters = 2000;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&pool, t] {
        Rng rng(0xb0f + t);
        for (int i = 0; i < kIters; ++i) {
          auto buf = pool.acquire(64 + rng.bounded(64));
          buf.push_back(rng.next());
          // Hold a second lease half the time so the free list sees
          // interleaved returns, not lock-step pairs.
          if (rng.bounded(2) == 0) {
            auto buf2 = pool.acquire(32);
            buf2.push_back(buf.back());
            pool.release(std::move(buf2));
          }
          pool.release(std::move(buf));
        }
      });
    for (auto& t : threads) t.join();
  }
  const auto& st = pool.stats();
  EXPECT_EQ(st.leases, st.returns);
  EXPECT_GE(st.leases, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(pool.outstanding(), 0);
  EXPECT_GT(st.reuses, 0u);
  // Free-list storage must be pairwise distinct (the release-time aliasing
  // check enforced this throughout; draining re-verifies it end-state).
  std::vector<const void*> datas;
  while (pool.free_buffers() > 0) {
    auto buf = pool.acquire(0);
    datas.push_back(buf.data());
    buf.shrink_to_fit();  // retire the storage instead of re-pooling it
  }
  std::sort(datas.begin(), datas.end());
  EXPECT_EQ(std::adjacent_find(datas.begin(), datas.end()), datas.end());
}

}  // namespace
}  // namespace pgxd
