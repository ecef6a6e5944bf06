#ifndef CTRLSHED_TELEMETRY_FLIGHT_RECORDER_H_
#define CTRLSHED_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "metrics/recorder.h"

namespace ctrlshed {

/// One annotated event: config changes, actuation-site switches, node
/// join/stale/readmit, decode rejects. Fixed-size strings so the crash
/// dump never touches the heap.
struct FlightEvent {
  double t = -1.0;     ///< Caller's clock (trace s); -1 when unknown.
  char what[32] = {};  ///< Category, e.g. "site_switch", "node_stale".
  char detail[96] = {};
};

/// A fixed-capacity ring of the last control periods plus recent
/// annotated events, kept by every control loop (sim FeedbackLoop,
/// RtLoop, NodeAgent, ClusterControlLoop). Construction registers the
/// recorder in a process-global slot table; a flight dump — triggered by
/// a CS_CHECK failure (fatal hook), SIGSEGV/SIGABRT, SIGUSR1, or
/// `POST /debug/dump` — walks every registered recorder and writes their
/// rings as JSON with plain write() calls, no allocation. The ring keeps
/// each period's scalar values (ValuesOf), and the dump formats them with
/// the timeline's FormatPeriodJson, so a dumped period is its
/// timeline.jsonl row without the shard fields.
///
/// Threading: RecordPeriod has a single writer (the owning control
/// thread). RecordEvent may be called from any thread (slots are claimed
/// with fetch_add). The dump path is a concurrent reader with no lock:
/// an entry being overwritten at crash time can be torn — acceptable for
/// a best-effort post-mortem, and only ever the oldest entry in the ring.
class FlightRecorder {
 public:
  static constexpr size_t kPeriodCapacity = 256;
  static constexpr size_t kEventCapacity = 128;

  explicit FlightRecorder(const char* name);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one finished period (owning control thread only). Allocates
  /// nothing.
  void RecordPeriod(const PeriodRecord& row);

  /// Appends one annotated event (any thread). Strings are truncated to
  /// the FlightEvent field sizes.
  void RecordEvent(const char* what, const char* detail, double t = -1.0);

  const char* name() const { return name_; }
  uint64_t periods_recorded() const {
    return period_cursor_.load(std::memory_order_acquire);
  }
  uint64_t events_recorded() const {
    return event_cursor_.load(std::memory_order_acquire);
  }

 private:
  friend bool WriteFlightDump(const char* reason, const char* detail);

  char name_[32] = {};
  PeriodValues periods_[kPeriodCapacity];
  FlightEvent events_[kEventCapacity];
  std::atomic<uint64_t> period_cursor_{0};
  std::atomic<uint64_t> event_cursor_{0};
};

/// Sets where flight dumps are written (default
/// "ctrlshed.flightdump.json" in the working directory). The path is
/// copied into static storage so signal handlers can reach it; empty
/// paths and paths of PATH_MAX bytes or more are rejected (returns false).
bool SetFlightDumpPath(const std::string& path);
std::string FlightDumpPath();

/// Installs the CS_CHECK fatal hook plus SIGSEGV/SIGABRT/SIGUSR1
/// handlers that write a flight dump (SIGUSR1 dumps and continues; the
/// fatal signals dump, restore the default disposition, and re-raise).
/// Idempotent. The CS_CHECK hook alone is also installed by the first
/// FlightRecorder constructed, so aborts dump even without this call.
void InstallFlightDumpHandlers();

/// Writes a dump of every registered recorder to FlightDumpPath() now.
/// `reason` is one of "cs_check", "signal", "sigusr1", "request";
/// `detail` is free-form. Async-signal-safe. Returns true on success.
bool WriteFlightDump(const char* reason, const char* detail);

}  // namespace ctrlshed

#endif  // CTRLSHED_TELEMETRY_FLIGHT_RECORDER_H_
