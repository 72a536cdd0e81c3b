// Ablation: partitioning-scheme crossover — one-level sampling vs histogram
// refinement vs two-level AMS, p = 64 .. 4096.
//
// Every row is a full simulated sort of --dist keys (uniform by default) at
// one of the --procs counts: total time, the refiner's round count, the
// achieved epsilon, the partition layer's sample/probe/level-1 traffic out
// of the SortReport, and the control bytes the sorter counted on the wire.
//
// Expectation: at small p the one-level scheme's O(p^2) splitter broadcast
// and counts exchange are cheap and the extra machinery of the refined
// schemes costs more than it saves. Two-level AMS has no O(p^2) control
// plane and ships less than one-level from p ~ 512 on. Histogram
// refinement seeds from a smaller sample but pays for its epsilon target
// in probe and draw traffic, and ships more than one-level at every p.
#include <string>

#include "bench_common.hpp"

using namespace pgxd;
using namespace pgxd::bench;

int main(int argc, char** argv) {
  Flags flags;
  declare_common_flags(flags);
  flags.declare("epsilon", "histogram refinement balance target", "0.05");
  flags.declare("dist",
                "distribution: uniform|normal|right-skewed|exponential|zipf|"
                "few-distinct",
                "uniform");
  flags.parse(argc, argv);
  BenchEnv env = env_from_flags(flags);
  const double epsilon = flags.f64("epsilon");

  gen::Distribution dist = gen::Distribution::kUniform;
  for (auto d : gen::kAllDistributionsExtended)
    if (flags.str("dist") == gen::name(d)) dist = d;

  print_header(
      "Ablation: partitioning-scheme crossover (one-level vs histogram vs "
      "AMS), " + std::string(gen::name(dist)) + " keys",
      "expectation: AMS ships less control traffic than one-level from "
      "p ~ 512; histogram ships more at every p",
      env);

  const sort::PartitionScheme kSchemes[] = {
      sort::PartitionScheme::kOneLevelSample,
      sort::PartitionScheme::kHistogramRefine,
      sort::PartitionScheme::kTwoLevelAms,
  };

  Table t({"procs", "scheme", "total (s)", "rounds", "achieved eps",
           "sample keys", "probe keys", "level1 items", "control bytes"});

  for (auto p : env.procs) {
    for (auto scheme : kSchemes) {
      core::SortConfig cfg;
      cfg.partition = scheme;
      cfg.partition_epsilon = epsilon;
      cfg.partition_max_rounds = 30;
      const auto run =
          run_pgxd(env, p, dist_shards(env, dist, p), cfg, gen::name(dist));
      const auto& pt = run.report.partition;
      t.row({std::to_string(p), core::partition_scheme_name(scheme),
             seconds(run.stats.total_time), std::to_string(pt.rounds),
             Table::fmt(pt.achieved_epsilon, 4),
             std::to_string(pt.sample_keys), std::to_string(pt.probe_keys),
             std::to_string(pt.level1_items),
             std::to_string(run.stats.wire_bytes_samples)});
    }
  }

  emit(t, flags);
  return 0;
}
