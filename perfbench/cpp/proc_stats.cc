#include "proc_stats.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

namespace perfbench {

namespace {
double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double WallSeconds() { return ClockSeconds(CLOCK_MONOTONIC); }

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpus.push_back(i);
  }
  return cpus;
}

bool RestrictToCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace perfbench
