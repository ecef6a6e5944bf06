// Process-level measurements: wall time, CPU time, peak RSS, CPU pinning.

#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double WallSeconds();

/// CPU time of the whole process (all threads, user + system), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();

/// Restricts the calling thread (and the threads it creates afterwards) to
/// `cpus`. Best effort: returns false and leaves affinity alone on failure.
bool RestrictToCpus(const std::vector<int>& cpus);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
