// The open-loop tuple generator of cluster_ingress, run as a separate
// process so its CPU time and scheduling stay out of the system under
// test. It pre-encodes every kTupleBatch frame from the seed, then writes
// each frame with one write() at its due time on its own CPU, whether or
// not the node keeps up, and reports how late it ran.

#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// What the generator reports after its last frame.
struct GeneratorReport {
  uint64_t generated = 0;     ///< Tuples in frames due inside the window.
  uint64_t frames = 0;        ///< Frames due inside the window.
  uint64_t sent_tuples = 0;   ///< Tuples in frames fully written.
  uint64_t sent_frames = 0;
  double lateness_p50_ms = 0.0;  ///< Wall ms each write started past due.
  double lateness_p99_ms = 0.0;
  double lateness_max_ms = 0.0;
  double prepare_s = 0.0;        ///< Wall time spent pre-encoding.
};

/// Parent-side handle of one generator process.
class GeneratorProcess {
 public:
  GeneratorProcess() = default;
  ~GeneratorProcess();
  GeneratorProcess(const GeneratorProcess&) = delete;
  GeneratorProcess& operator=(const GeneratorProcess&) = delete;

  /// Starts this executable again with `--generator`, replaying
  /// `workload`'s arrivals for `duration` trace seconds, pinned to `cpu`
  /// (-1 = unpinned). Returns false with a message in *error when it
  /// cannot start.
  bool Spawn(const std::string& workload, uint64_t seed, double duration,
             int cpu, std::string* error);

  /// Blocks until the frames are encoded (or the process died).
  bool WaitReady(std::string* error);

  /// Tells the generator to start its clock now and feed `port`.
  bool Go(int port);

  /// Waits for the report and reaps the process.
  bool Finish(GeneratorReport* report, std::string* error);

  /// Kills and reaps the process if it is still running.
  void Kill();

 private:
  bool ReadLine(std::string* line, double timeout_s);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
