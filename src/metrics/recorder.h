#ifndef CTRLSHED_METRICS_RECORDER_H_
#define CTRLSHED_METRICS_RECORDER_H_

#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "control/actuation_plan.h"
#include "control/controller.h"

namespace ctrlshed {

/// One per-period row of the closed-loop trace.
struct PeriodRecord {
  PeriodMeasurement m;
  double v = 0.0;      ///< Controller output (desired admitted rate).
  double alpha = 0.0;  ///< Entry drop probability in force afterwards.
  /// Wall-clock lateness of the actuation, seconds: how far past the
  /// period deadline the control tick actually ran. Always 0 in the
  /// simulation (ticks fire exactly on the event heap); the rt loop
  /// records its scheduling jitter here.
  double lateness = 0.0;
  /// Per-shard virtual queue lengths at the sample (sums to m.queue).
  /// Empty for unsharded runs — the sim loop and the N = 1 rt loop — so
  /// their exports stay byte-identical.
  std::vector<double> shard_q{};
  /// Where this period's actuation shed (entry gate, in-network queues, or
  /// split across both), judged on the realized alpha (see SiteFor).
  ActuationSite site = ActuationSite::kEntry;
  /// Tuples removed from operator queues during the period (in-network
  /// shedding executed; 0 for entry-only runs).
  double queue_shed = 0.0;
  /// Measured headroom H_hat: realized base-load drained per busy second,
  /// EWMA-smoothed (see docs/observability.md "Post-mortem & health").
  /// Report-only — the control law never consumes it. NaN when the loop
  /// does not estimate it, which keeps historical exports byte-identical
  /// (the timeline emits it only when finite).
  double h_hat = std::numeric_limits<double>::quiet_NaN();
};

/// Collects the per-period trace of an experiment; feeds the transient
/// plots (Figs. 15, 16, 18), the telemetry timeline export, and debugging.
class Recorder {
 public:
  void Record(PeriodRecord row) { rows_.push_back(std::move(row)); }

  const std::vector<PeriodRecord>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// Writes a whitespace-separated table with a header row.
  void Write(std::ostream& out) const;

  /// Machine-readable variant: comma-separated, locale-independent %.17g
  /// doubles (exact round-trip through strtod), one header row. Adds the
  /// derived control signals the table omits: the tracking error
  /// e = yd - y_hat, the queue-growth command u = v - fout (Eq. 10), the
  /// per-period loss (fin - admitted)/fin, and the actuation lateness.
  /// y_meas is `nan` for periods with no departures.
  void WriteCsv(std::ostream& out) const;

  /// Header + single-row pieces of WriteCsv, exposed so streaming sinks
  /// (the telemetry FileTimelineSink) produce byte-identical CSV while
  /// writing row by row instead of from a finished recorder.
  static void WriteCsvHeader(std::ostream& out);
  static void WriteCsvRow(const PeriodRecord& row, std::ostream& out);

 private:
  std::vector<PeriodRecord> rows_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_METRICS_RECORDER_H_
