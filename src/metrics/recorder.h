#ifndef CTRLSHED_METRICS_RECORDER_H_
#define CTRLSHED_METRICS_RECORDER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ostream>
#include <string_view>
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

/// How a period field is written: a %.17g double (exact strtod round
/// trip, locale-independent), an integer, or an ActuationSite name (quoted
/// in JSON).
enum class FieldFormat : uint8_t { kNum, kInt, kSite };

/// Which outputs carry a period field (bit set): kCsv is timeline.csv and
/// trace_out=; kJson is timeline.jsonl, the SSE feed and flight dumps.
enum FieldSurface : uint8_t { kCsv = 1, kJson = 2 };

/// What JSON does with a non-finite value, which is not JSON: write null,
/// or leave the field out. The CSV always writes the value (`nan`).
enum class NanRule : uint8_t { kNull, kOmit };

/// One scalar signal of a control period.
struct PeriodField {
  const char* name;
  double (*value)(const PeriodRecord&);
  FieldFormat format = FieldFormat::kNum;
  uint8_t surfaces = kCsv | kJson;
  NanRule nan = NanRule::kNull;
};

/// The one schema of a control period, in output order. timeline.csv,
/// trace_out=, timeline.jsonl, the SSE feed and flight dumps all walk it,
/// so a new signal is one line here. Sharded runs append `shards` and
/// `shard_q` to the JSON timeline row (Telemetry::PublishTimelineRow).
inline constexpr PeriodField kPeriodFields[] = {
    {"k", [](const PeriodRecord& r) { return double(r.m.k); },
     FieldFormat::kInt},
    {"t", [](const PeriodRecord& r) { return r.m.t; }},
    {"period", [](const PeriodRecord& r) { return r.m.period; },
     FieldFormat::kNum, kCsv},
    {"yd", [](const PeriodRecord& r) { return r.m.target_delay; }},
    {"fin", [](const PeriodRecord& r) { return r.m.fin; }},
    {"fin_forecast", [](const PeriodRecord& r) { return r.m.fin_forecast; }},
    {"admitted", [](const PeriodRecord& r) { return r.m.admitted; }},
    {"fout", [](const PeriodRecord& r) { return r.m.fout; }},
    {"q", [](const PeriodRecord& r) { return r.m.queue; }},
    {"c", [](const PeriodRecord& r) { return r.m.cost; }},
    {"y_hat", [](const PeriodRecord& r) { return r.m.y_hat; }},
    // NaN (`nan`, null) in a period with no departures.
    {"y_meas",
     [](const PeriodRecord& r) {
       return r.m.has_y_measured ? r.m.y_measured
                                 : std::numeric_limits<double>::quiet_NaN();
     }},
    // Tracking error e = yd - y_hat.
    {"e", [](const PeriodRecord& r) { return r.m.target_delay - r.m.y_hat; }},
    // Queue-growth command u = v - fout (Eq. 10).
    {"u", [](const PeriodRecord& r) { return r.v - r.m.fout; }},
    {"v", [](const PeriodRecord& r) { return r.v; }},
    {"alpha", [](const PeriodRecord& r) { return r.alpha; }},
    // Per-period loss (fin - admitted)/fin, clamped at 0.
    {"loss",
     [](const PeriodRecord& r) {
       return r.m.fin > 0.0 ? std::max(0.0, (r.m.fin - r.m.admitted) / r.m.fin)
                            : 0.0;
     }},
    {"lateness", [](const PeriodRecord& r) { return r.lateness; }},
    {"site", [](const PeriodRecord& r) { return double(r.site); },
     FieldFormat::kSite},
    {"queue_shed", [](const PeriodRecord& r) { return r.queue_shed; }},
    {"h_hat", [](const PeriodRecord& r) { return r.h_hat; }, FieldFormat::kNum,
     kJson, NanRule::kOmit},
};

/// The scalar values of one period, in kPeriodFields order.
using PeriodValues = std::array<double, std::size(kPeriodFields)>;
PeriodValues ValuesOf(const PeriodRecord& row);

/// Widest formatted value: %.17g of a negative subnormal,
/// "-1.2345678901234567e-308".
inline constexpr size_t kMaxValueChars = 24;

/// Room for any FormatPeriodJson output: per field `,"name":` and the
/// widest value, plus the braces and snprintf's terminator.
inline constexpr size_t kPeriodJsonMax = [] {
  size_t n = 3;
  for (const PeriodField& f : kPeriodFields) {
    n += std::string_view(f.name).size() + 4 + kMaxValueChars;
  }
  return n;
}();
using PeriodJsonBuffer = std::array<char, kPeriodJsonMax>;

/// Formats one period as a single-line JSON object (no newline) into `buf`
/// and returns it. Allocation-free and async-signal-safe up to snprintf,
/// so the flight dump formats its periods with it too.
std::string_view FormatPeriodJson(const PeriodValues& values,
                                  PeriodJsonBuffer* buf);

/// timeline.csv: one header line, then one line per period.
void WritePeriodCsvHeader(std::ostream& out);
void WritePeriodCsvRow(const PeriodValues& values, std::ostream& out);

/// Collects the per-period trace of an experiment; feeds the transient
/// plots (Figs. 15, 16, 18), the telemetry timeline export, and debugging.
class Recorder {
 public:
  void Record(PeriodRecord row) { rows_.push_back(std::move(row)); }

  const std::vector<PeriodRecord>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// Writes every row as timeline.csv does: header, then one line per
  /// period.
  void WriteCsv(std::ostream& out) const;

 private:
  std::vector<PeriodRecord> rows_;
};

/// The soak's tracking gate over a run's periods, as rt_soak and
/// `ctrlshed cluster gate=1` apply it. Periods k <= 4 are skipped: the
/// transient takes about three, plus one for the cold-start cost estimate.
/// With at least 8 overloaded periods (fin at or above
/// `capacity`) it passes when their mean y_hat is within +/-20% of `yd`.
/// Otherwise the run never overloaded, and a shedder cannot create delay:
/// it passes when at least 8 periods converged and their mean y_hat is at
/// most 1.2 yd.
struct TrackingVerdict {
  bool pass = false;
  int converged = 0;   ///< Periods with k > 4.
  int overloaded = 0;  ///< Of those, periods with fin >= capacity.
  double mean_overloaded = 0.0;  ///< Mean y_hat of the overloaded periods.
  double error = 0.0;            ///< |mean_overloaded - yd| / yd.
  double mean_converged = 0.0;   ///< Mean y_hat of the converged periods.
  /// Whether the +/-20% branch judged the run.
  bool tracked() const { return overloaded >= 8; }
};
TrackingVerdict TrackingGate(const Recorder& recorder, double yd,
                             double capacity);

}  // namespace ctrlshed

#endif  // CTRLSHED_METRICS_RECORDER_H_
