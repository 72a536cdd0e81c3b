// Ablation: partitioning-scheme crossover — one-level sampling vs histogram
// refinement vs two-level AMS, p = 64 .. 4096.
//
// Two row kinds in one table (the `kind` column):
//   measured — full simulated sorts at the --procs counts: total time, the
//              refiner's achieved epsilon, the partition layer's actual
//              sample/probe/level-1 traffic out of the SortReport, and the
//              control bytes the sorter counted on the wire.
//   model    — the closed-form control-volume model of sort/partition.hpp
//              extended past what a simulated run can execute (to
//              --max-model-procs, default 4096), parameterized by the
//              measured refinement behaviour.
//
// Expectation: at small p the one-level scheme's O(p^2) splitter broadcast
// and counts exchange are cheap and the extra machinery of the refined
// schemes costs more than it saves; past p ~ 1024 the O(p^2) terms dominate
// and histogram (smaller samples) and AMS (no O(p^2) control plane at all)
// win on sample + wire volume.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "sort/partition.hpp"

using namespace pgxd;
using namespace pgxd::bench;

namespace {

const char* kind_name(sort::PartitionScheme s) {
  return core::partition_scheme_name(s);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  declare_common_flags(flags);
  flags.declare("max-model-procs",
                "extend the control-volume model out to this processor count",
                "4096");
  flags.declare("epsilon", "histogram refinement balance target", "0.05");
  flags.parse(argc, argv);
  BenchEnv env = env_from_flags(flags);
  const std::uint64_t max_model = flags.u64("max-model-procs");
  const double epsilon = flags.f64("epsilon");

  print_header(
      "Ablation: partitioning-scheme crossover (one-level vs histogram vs "
      "AMS)",
      "expectation: refined schemes beat one-level on sample+wire volume "
      "past p ~ 1024",
      env);

  const sort::PartitionScheme kSchemes[] = {
      sort::PartitionScheme::kOneLevelSample,
      sort::PartitionScheme::kHistogramRefine,
      sort::PartitionScheme::kTwoLevelAms,
  };

  Table t({"kind", "procs", "scheme", "total (s)", "rounds", "achieved eps",
           "sample keys", "probe keys", "level1 items", "control bytes"});

  // Refinement behaviour observed at the largest measured p, used to
  // parameterize the model rows.
  std::uint64_t seen_rounds = 3, seen_probes_per_round = 8;

  for (auto p : env.procs) {
    for (auto scheme : kSchemes) {
      core::SortConfig cfg;
      cfg.partition = scheme;
      cfg.partition_epsilon = epsilon;
      cfg.partition_max_rounds = 30;
      const auto run =
          run_pgxd(env, p, dist_shards(env, gen::Distribution::kUniform, p),
                   cfg, "uniform");
      const auto& pt = run.report.partition;
      if (scheme == sort::PartitionScheme::kHistogramRefine) {
        seen_rounds = pt.rounds;
        seen_probes_per_round = std::max<std::uint64_t>(
            1, pt.probe_keys / std::max<std::uint64_t>(1, pt.rounds));
      }
      t.row({"measured", std::to_string(p), kind_name(scheme),
             seconds(run.stats.total_time), std::to_string(pt.rounds),
             Table::fmt(pt.achieved_epsilon, 4),
             std::to_string(pt.sample_keys), std::to_string(pt.probe_keys),
             std::to_string(pt.level1_items),
             std::to_string(run.stats.wire_bytes_samples)});
    }
  }

  // Model extension: the same per-rank sample budget formula the sorter
  // uses (X = read_buffer / p bytes), refinement shaped like the largest
  // measured run.
  core::SortConfig defaults;
  for (std::uint64_t p = 64; p <= max_model; p *= 2) {
    for (auto scheme : kSchemes) {
      const std::uint64_t per_rank = std::max<std::uint64_t>(
          1, defaults.read_buffer_bytes / p / sizeof(Key));
      const auto vol = sort::model_control_volume(
          scheme, p, sizeof(Key), per_rank, seen_rounds,
          seen_probes_per_round);
      t.row({"model", std::to_string(p), kind_name(scheme), "-", "-", "-",
             std::to_string(vol.sample_bytes / sizeof(Key)), "-", "-",
             std::to_string(vol.total())});
    }
  }

  emit(t, flags);
  return 0;
}
