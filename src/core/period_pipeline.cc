#include "core/period_pipeline.h"

#include <cstdio>
#include <string>
#include <utility>

#include "common/macros.h"
#include "control/period_math.h"
#include "telemetry/telemetry.h"

namespace ctrlshed {

PeriodPipeline::PeriodPipeline(const char* name,
                               ActuationPlannerOptions planner,
                               Telemetry* telemetry, bool keep_rows)
    : planner_(planner),
      telemetry_(telemetry),
      keep_rows_(keep_rows),
      flight_(name) {
  if (telemetry_ != nullptr) SetMetricsSink(telemetry_->metrics());
}

void PeriodPipeline::SetMetricsSink(MetricsRegistry* registry) {
  for (ActuationSite site : {ActuationSite::kEntry, ActuationSite::kInNetwork,
                             ActuationSite::kSplit}) {
    site_counters_[static_cast<size_t>(site)] = registry->GetCounter(
        "actuation.site." + std::string(ActuationSiteName(site)));
  }
  const std::string prefix = std::string(flight_.name()) + ".";
  loop_gauges_ = {registry->GetGauge(prefix + "queue"),
                  registry->GetGauge(prefix + "y_hat"),
                  registry->GetGauge(prefix + "alpha"),
                  registry->GetGauge(prefix + "h_hat")};
  health_gauges_.Init(registry);
}

ActuationFold PeriodPipeline::Actuate(PeriodRecord* rec,
                                      std::span<const double> fin,
                                      std::span<const double> queue,
                                      const SliceDelivery& deliver) {
  CS_CHECK_MSG(fin.size() == queue.size(), "one queue per slice required");
  ProportionalShares(fin, &shares_);
  ActuationFold fold;
  for (size_t i = 0; i < fin.size(); ++i) {
    // The slice's own offered rate and queue, and its share of the
    // forecast and admitted rate; at one slice the share is exactly 1.0.
    PeriodMeasurement mi = rec->m;
    mi.fin = fin[i];
    mi.fin_forecast = rec->m.fin_forecast * shares_[i];
    mi.admitted = rec->m.admitted * shares_[i];
    mi.queue = queue[i];
    fold.Add(shares_[i],
             deliver(i, planner_.BuildPlan(rec->v * shares_[i], mi), mi));
  }
  rec->alpha = fold.alpha;
  rec->site = fold.site();
  return fold;
}

void PeriodPipeline::Publish(PeriodRecord rec, double configured_headroom) {
  if (rec.site != last_site_) {
    char detail[32];
    std::snprintf(detail, sizeof(detail), "%s -> %s",
                  ActuationSiteName(last_site_).data(),
                  ActuationSiteName(rec.site).data());
    flight_.RecordEvent("site_switch", detail, rec.m.t);
    last_site_ = rec.site;
  }
  flight_.RecordPeriod(rec);
  health_.ObservePeriod(rec);
  health_.SetHeadroom(configured_headroom, rec.h_hat);
  if (telemetry_ != nullptr) {
    telemetry_->PublishTimelineRow(rec);
    health_.SetSelfLoss(/*trace_events=*/0, /*trace_dropped=*/0,
                        telemetry_->sse_rows_published(),
                        telemetry_->sse_rows_dropped());
  }
  if (site_counters_[0] != nullptr) {
    site_counters_[static_cast<size_t>(rec.site)]->Add();
    loop_gauges_[0]->Set(rec.m.queue);
    loop_gauges_[1]->Set(rec.m.y_hat);
    loop_gauges_[2]->Set(rec.alpha);
    if (rec.h_hat == rec.h_hat) loop_gauges_[3]->Set(rec.h_hat);
    health_gauges_.Publish(health_.Report());
  }
  if (keep_rows_) recorder_.Record(std::move(rec));
}

}  // namespace ctrlshed
