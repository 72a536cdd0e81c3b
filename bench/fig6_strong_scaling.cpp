// Figure 6 reproduction: strong-scaling speedup of the PGX.D distributed
// sort versus Spark's sortByKey on the same data and simulated cluster.
//
// Paper claim: PGX.D shows visibly better speedup than Spark as processors
// grow (Spark's stage barriers and materialization flatten its curve).
#include <cstdio>

#include "bench_common.hpp"

using namespace pgxd;
using namespace pgxd::bench;

int main(int argc, char** argv) {
  Flags flags;
  declare_common_flags(flags);
  flags.declare("dist", "distribution: uniform|normal|right-skewed|exponential",
                "uniform");
  flags.parse(argc, argv);
  BenchEnv env = env_from_flags(flags);

  gen::Distribution dist = gen::Distribution::kUniform;
  for (auto d : gen::kAllDistributions)
    if (flags.str("dist") == gen::name(d)) dist = d;

  print_header("Figure 6: strong scaling, PGX.D vs Spark sortByKey",
               "paper: PGX.D speedup curve clearly above Spark's", env);

  const std::size_t base_p = env.procs.front();
  double pgxd_base = 0, spark_base = 0;
  Table t({"procs", "pgxd time (s)", "pgxd speedup", "spark time (s)",
           "spark speedup", "pgxd/spark advantage"});
  for (auto p : env.procs) {
    const auto pg = run_pgxd(env, p, dist_shards(env, dist, p));
    const auto sp = run_spark(env, p, dist_shards(env, dist, p));
    const double pg_s = sim::to_seconds(pg.stats.total_time);
    const double sp_s = sim::to_seconds(sp.total_time);
    if (p == base_p) {
      pgxd_base = pg_s;
      spark_base = sp_s;
    }
    t.row({std::to_string(p), seconds(pg.stats.total_time),
           Table::fmt(pgxd_base / pg_s, 2) + "x", seconds(sp.total_time),
           Table::fmt(spark_base / sp_s, 2) + "x",
           Table::fmt(sp_s / pg_s, 2) + "x"});
  }
  emit(t, flags);
  std::printf("\nSpeedups are relative to each engine's own %zu-processor time; "
              "'advantage' is\nSpark time / PGX.D time at equal processors "
              "(paper: around 2x-3x).\n", static_cast<std::size_t>(base_p));
  return 0;
}
