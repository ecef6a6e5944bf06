// A cluster controller plus one node, run in this process and fed over
// loopback by the generator process: the cluster_ingress measurement, and
// the traced run's generator-lateness probe on any workload's plant.

#ifndef PERFBENCH_CLUSTER_RUN_H_
#define PERFBENCH_CLUSTER_RUN_H_

#include <cstdint>
#include <string>

#include "cluster/controller_runner.h"
#include "cluster/node_runner.h"
#include "generator.h"

namespace perfbench {

struct ClusterFed {
  ctrlshed::ClusterControllerResult ctl;
  ctrlshed::ClusterNodeResult node;
  GeneratorReport gen;
  /// Entry-point call until both on_ready fired.
  double setup_s = 0.0;
  double window_s = 0.0;  ///< Node on_ready until the node returned.
  double cpu_s = 0.0;     ///< Process CPU over the same window.
  std::string error;      ///< Non-empty when the run did not happen.
};

/// Runs `workload`'s plant as a controller + one node for `duration` trace
/// seconds, fed by a generator process replaying the workload's arrivals.
/// Node workers are pinned to the first two CPUs, the rest of this process
/// to the third and the generator to the fourth, when there are four.
ClusterFed RunClusterFed(const std::string& workload, uint64_t seed,
                         double duration);

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_RUN_H_
