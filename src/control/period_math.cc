#include "control/period_math.h"

#include <algorithm>

#include "common/macros.h"

namespace ctrlshed {

PeriodMath::PeriodMath(double nominal_entry_cost, PeriodMathOptions options)
    : nominal_entry_cost_(nominal_entry_cost), options_(options) {
  CS_CHECK_MSG(nominal_entry_cost_ > 0.0, "nominal cost must be positive");
  CS_CHECK_MSG(options_.period > 0.0, "period must be positive");
  CS_CHECK_MSG(options_.max_headroom >= 1.0, "max headroom must be >= 1");
  CS_CHECK_MSG(
      options_.headroom > 0.0 && options_.headroom <= options_.max_headroom,
      "headroom must be in (0, max_headroom]");
  CS_CHECK_MSG(options_.cost_ewma > 0.0 && options_.cost_ewma <= 1.0,
               "cost_ewma must be in (0,1]");
  CS_CHECK_MSG(options_.headroom_ewma > 0.0 && options_.headroom_ewma <= 1.0,
               "headroom_ewma must be in (0,1]");
  // Until the first measurement arrives, fall back to the static estimate
  // (Borealis can always compute this from its cost x selectivity catalog).
  cost_estimate_ = nominal_entry_cost_;
  headroom_estimate_ = options_.headroom;
}

PeriodMeasurement PeriodMath::SampleDeltas(
    const PeriodDeltas& d, double target_delay, double elapsed,
    const std::function<double()>& cost_noise) {
  CS_CHECK_MSG(elapsed > 0.0, "elapsed time must be positive");

  PeriodMeasurement m;
  m.k = ++k_;
  m.t = d.now;
  m.period = options_.period;
  m.target_delay = target_delay;

  m.fin = static_cast<double>(d.offered) / elapsed;
  m.fin_forecast = m.fin;  // the loop overrides this when a predictor is set
  m.admitted = static_cast<double>(d.admitted) / elapsed;

  const double drained = d.drained_base_load;
  const double busy = d.busy_seconds;
  m.fout = drained / nominal_entry_cost_ / elapsed;

  // Measured per-tuple cost: CPU seconds consumed per entry-tuple
  // equivalent drained. Only meaningful when enough work was processed.
  if (drained > nominal_entry_cost_) {
    double measured = nominal_entry_cost_ * busy / drained;
    if (cost_noise) measured *= cost_noise();
    cost_estimate_ = options_.cost_ewma * measured +
                     (1.0 - options_.cost_ewma) * cost_estimate_;
  }
  m.cost = cost_estimate_;

  m.queue = d.queue;

  // Online headroom estimate: with queued work at both ends of the period
  // the CPU never idled, so work done per trace second IS the headroom.
  if (options_.adapt_headroom && m.queue > 1.0 && prev_queue_ > 1.0 &&
      busy > 0.0) {
    const double measured_h = std::min(options_.max_headroom, busy / elapsed);
    headroom_estimate_ = options_.headroom_ewma * measured_h +
                         (1.0 - options_.headroom_ewma) * headroom_estimate_;
  }
  prev_queue_ = m.queue;

  const double h =
      options_.adapt_headroom ? headroom_estimate_ : options_.headroom;
  m.y_hat = (m.queue + 1.0) * m.cost / h;

  if (d.delay_count > 0) {
    m.y_measured = d.delay_sum / static_cast<double>(d.delay_count);
    m.has_y_measured = true;
  }

  return m;
}

void PeriodMath::SetHeadroom(double headroom, double max_headroom) {
  CS_CHECK_MSG(max_headroom >= 1.0, "max headroom must be >= 1");
  CS_CHECK_MSG(headroom > 0.0 && headroom <= max_headroom,
               "headroom must be in (0, max_headroom]");
  options_.headroom = headroom;
  options_.max_headroom = max_headroom;
  if (options_.adapt_headroom && k_ > 0) {
    // Keep the learned estimate but respect the new plant bound.
    headroom_estimate_ = std::min(headroom_estimate_, max_headroom);
  } else {
    headroom_estimate_ = headroom;
  }
}

SliceFold::SliceFold(double nominal_entry_cost, PeriodMathOptions options)
    : math_(nominal_entry_cost, options) {}

void SliceFold::Begin(SimTime now) {
  CS_CHECK_MSG(now > prev_now_, "samples must move forward in time");
  const SimTime period = math_.options().period;
  span_ = now == prev_now_ + period ? period : now - prev_now_;
  prev_now_ = now;
  sum_ = PeriodDeltas{};
  sum_.now = now;
  fin_.clear();
  queue_.clear();
}

void SliceFold::Add(const PeriodDeltas& d) {
  sum_.offered += d.offered;
  sum_.admitted += d.admitted;
  sum_.drained_base_load += d.drained_base_load;
  sum_.busy_seconds += d.busy_seconds;
  sum_.queue += d.queue;
  sum_.delay_sum += d.delay_sum;
  sum_.delay_count += d.delay_count;
  fin_.push_back(static_cast<double>(d.offered) / span_);
  queue_.push_back(d.queue);
}

PeriodMeasurement SliceFold::Sample(double target_delay,
                                    const std::function<double()>& cost_noise) {
  h_hat_.Update(sum_.drained_base_load, sum_.busy_seconds);
  return math_.SampleDeltas(sum_, target_delay, span_, cost_noise);
}

std::vector<double> ProportionalShares(const std::vector<double>& loads) {
  std::vector<double> shares;
  ProportionalShares(loads, &shares);
  return shares;
}

void ProportionalShares(std::span<const double> loads,
                        std::vector<double>* shares) {
  shares->resize(loads.size());
  if (loads.empty()) return;
  double total = 0.0;
  for (double l : loads) total += l;
  const double even = 1.0 / static_cast<double>(loads.size());
  for (size_t i = 0; i < loads.size(); ++i) {
    (*shares)[i] = total > 0.0 ? loads[i] / total : even;
  }
}

}  // namespace ctrlshed
