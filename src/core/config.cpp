#include "core/config.hpp"

#include <cstdlib>
#include <cstring>

namespace pgxd::core {

bool telemetry_default() {
  static const bool enabled = [] {
    const char* v = std::getenv("PGXD_TELEMETRY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

const char* partition_scheme_name(PartitionScheme s) {
  switch (s) {
    case PartitionScheme::kOneLevelSample: return "one-level-sample";
    case PartitionScheme::kHistogramRefine: return "histogram-refine";
    case PartitionScheme::kTwoLevelAms: return "two-level-ams";
  }
  return "unknown";
}

std::string SortConfig::validate() const {
  if (partition_epsilon <= 0.0 || partition_epsilon > 1.0)
    return "invalid SortConfig: partition_epsilon must be in (0, 1]";
  if (partition_max_rounds < 1)
    return "invalid SortConfig: partition_max_rounds must be >= 1";
  if (partition == PartitionScheme::kTwoLevelAms && !async_exchange)
    return "invalid SortConfig: kTwoLevelAms requires async_exchange (the "
           "level-1 group exchange is send-while-receive by construction)";
  if (partition == PartitionScheme::kHistogramRefine && sample_factor <= 0.0)
    return "invalid SortConfig: kHistogramRefine requires a positive "
           "sample_factor to seed the refinement";
  return {};
}

const char* step_name(Step s) {
  switch (s) {
    case Step::kLocalSort: return "local-sort";
    case Step::kSampling: return "sampling";
    case Step::kSplitterSelect: return "splitter-select";
    case Step::kPartitionPlan: return "partition-plan";
    case Step::kExchange: return "send/receive";
    case Step::kFinalMerge: return "final-merge";
  }
  return "unknown";
}

const char* step_metric_suffix(Step s) {
  switch (s) {
    case Step::kLocalSort: return "local_sort";
    case Step::kSampling: return "sampling";
    case Step::kSplitterSelect: return "splitter_select";
    case Step::kPartitionPlan: return "partition_plan";
    case Step::kExchange: return "exchange";
    case Step::kFinalMerge: return "final_merge";
  }
  return "unknown";
}

}  // namespace pgxd::core
