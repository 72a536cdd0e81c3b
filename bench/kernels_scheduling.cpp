// Microbenchmarks (google-benchmark) of the shared-queue ThreadPool on
// regular and on irregular (power-law) task sizes — the irregular case is
// the load imbalance PGX.D's task manager meets on power-law graphs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace {

using pgxd::Rng;

// Busy-work proportional to `units`, opaque to the optimizer.
void spin(std::uint64_t units) {
  std::uint64_t acc = 0xdeadbeef;
  for (std::uint64_t i = 0; i < units * 64; ++i)
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  benchmark::DoNotOptimize(acc);
}

std::vector<std::uint64_t> task_sizes(bool irregular, std::size_t count) {
  Rng rng(7);
  std::vector<std::uint64_t> sizes(count);
  for (auto& s : sizes) {
    if (irregular) {
      // Power-law: a few giant tasks, many tiny ones.
      double u = rng.uniform();
      while (u <= 0) u = rng.uniform();
      s = static_cast<std::uint64_t>(std::min(std::pow(u, -1.2), 4000.0));
    } else {
      s = 40;
    }
  }
  return sizes;
}

void run_tasks(pgxd::ThreadPool& pool,
               const std::vector<std::uint64_t>& sizes) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(sizes.size());
  for (auto s : sizes) tasks.push_back([s] { spin(s); });
  pool.run_all(std::move(tasks));
}

void BM_SharedQueueRegular(benchmark::State& state) {
  pgxd::ThreadPool pool(3);
  const auto sizes = task_sizes(false, 512);
  for (auto _ : state) run_tasks(pool, sizes);
}
BENCHMARK(BM_SharedQueueRegular);

void BM_SharedQueueIrregular(benchmark::State& state) {
  pgxd::ThreadPool pool(3);
  const auto sizes = task_sizes(true, 512);
  for (auto _ : state) run_tasks(pool, sizes);
}
BENCHMARK(BM_SharedQueueIrregular);

}  // namespace

BENCHMARK_MAIN();
