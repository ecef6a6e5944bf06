#ifndef CTRLSHED_TELEMETRY_HEALTH_H_
#define CTRLSHED_TELEMETRY_HEALTH_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "control/period_math.h"
#include "metrics/recorder.h"
#include "telemetry/metrics_registry.h"

namespace ctrlshed {

/// Thresholds for the health verdict. Defaults are tuned so a 2x
/// steady overload (the CI smoke workloads; alpha ~= 0.5) stays `ok`
/// while a sustained 3x overload (alpha ~= 0.67) reports
/// `alpha_saturated`.
struct HealthOptions {
  size_t window = 30;  ///< Sliding window, control periods.
  /// A period sheds "saturated" when alpha is at or above this level…
  double alpha_saturation_level = 0.6;
  /// …and the loop degrades when that holds for this fraction of the
  /// window.
  double alpha_saturated_frac = 0.5;
  /// Tracking-error RMS (|yd - y_hat| / yd over actively-shedding
  /// periods) degraded / critical levels.
  double tracking_rms_degraded = 0.5;
  double tracking_rms_critical = 1.0;
  /// Fraction of consecutive-period u sign flips (both sides above the
  /// noise floor) that flags oscillation.
  double oscillation_degraded = 0.6;
  /// |u| below this fraction of fin is steady-state noise, not a flip.
  double u_noise_floor_frac = 0.05;
  /// Tracer/SSE self-loss rate that degrades the verdict.
  double self_loss_degraded = 0.10;
  /// |H_hat - H| / H beyond this adds a headroom_drift warning.
  double headroom_drift_warn = 0.25;
  /// Below this many observed periods the loop is warming up and only
  /// stale_node can degrade it.
  size_t min_periods = 8;
};

enum class HealthVerdict : uint8_t { kOk = 0, kDegraded = 1, kCritical = 2 };

const char* HealthVerdictName(HealthVerdict v);

/// One evaluated snapshot of the loop's health: a verdict, the reasons
/// that drove it, non-degrading warnings, and the raw diagnostics.
struct HealthReport {
  HealthVerdict verdict = HealthVerdict::kOk;
  std::vector<std::string> reasons;   ///< e.g. "alpha_saturated".
  std::vector<std::string> warnings;  ///< e.g. "headroom_drift".
  uint64_t periods = 0;               ///< Periods observed in total.
  double tracking_rms = 0.0;
  double alpha_sat_frac = 0.0;
  double oscillation = 0.0;
  uint64_t stale_nodes = 0;
  uint64_t known_nodes = 0;
  double trace_loss = 0.0;
  double sse_loss = 0.0;
  double h_hat = std::numeric_limits<double>::quiet_NaN();
  double h_configured = std::numeric_limits<double>::quiet_NaN();

  /// {"verdict":"ok","reasons":[…],"warnings":[…],"periods":N,
  ///  "metrics":{…}} — the GET /health body.
  std::string ToJson() const;

  /// ok/degraded -> 200 (the verdict is in the body), critical -> 503.
  int HttpStatus() const;

  /// One-line summary for the end-of-run CLI output.
  std::string Summary() const;
};

/// Derives per-period control-loop diagnostics — tracking-error RMS over
/// a sliding window, alpha-saturation fraction, u sign-flip oscillation
/// score, stale-node count, telemetry self-loss — and folds them into an
/// ok/degraded/critical verdict. ObservePeriod is called from the owning
/// control thread; Report may be called from any thread (the telemetry
/// server's /health handler), so state sits behind a small mutex touched
/// once per period and per scrape.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions opts = HealthOptions{});

  /// Feeds one finished control period.
  void ObservePeriod(const PeriodRecord& row);

  /// Cluster controllers report node staleness each period.
  void SetStaleNodes(uint64_t stale, uint64_t known);

  /// Cumulative telemetry self-loss counters (tracer ring + SSE).
  void SetSelfLoss(uint64_t trace_events, uint64_t trace_dropped,
                   uint64_t sse_published, uint64_t sse_dropped);

  /// Configured vs measured headroom (per worker), for drift warnings.
  void SetHeadroom(double configured, double measured);

  /// Evaluates the current verdict.
  HealthReport Report() const;

 private:
  mutable std::mutex mu_;
  HealthOptions opts_;
  uint64_t periods_ = 0;
  // Sliding windows, circular over opts_.window entries.
  std::vector<double> alpha_;
  std::vector<double> err_rel_;  ///< |e|/yd; NaN when not actively shedding.
  std::vector<double> u_;
  std::vector<double> fin_;
  uint64_t stale_nodes_ = 0;
  uint64_t known_nodes_ = 0;
  double trace_loss_ = 0.0;
  double sse_loss_ = 0.0;
  double h_configured_ = std::numeric_limits<double>::quiet_NaN();
  double h_hat_ = std::numeric_limits<double>::quiet_NaN();
};

/// The ctrlshed.health.* gauge family (rendered by the Prometheus
/// exporter as ctrlshed_health_*). Init once, Publish per period.
class HealthGauges {
 public:
  void Init(MetricsRegistry* registry);
  void Publish(const HealthReport& r);

 private:
  Gauge* verdict_ = nullptr;
  Gauge* tracking_rms_ = nullptr;
  Gauge* alpha_sat_frac_ = nullptr;
  Gauge* oscillation_ = nullptr;
  Gauge* stale_nodes_ = nullptr;
  Gauge* h_hat_ = nullptr;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_TELEMETRY_HEALTH_H_
