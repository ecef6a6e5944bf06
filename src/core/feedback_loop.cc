#include "core/feedback_loop.h"

#include "common/macros.h"

namespace ctrlshed {

FeedbackLoop::FeedbackLoop(Simulation* sim, Engine* engine,
                           LoadController* controller, Shedder* shedder,
                           FeedbackLoopOptions options)
    : sim_(sim),
      engine_(engine),
      controller_(controller),
      shedder_(shedder),
      options_(options),
      monitor_(engine,
               [&options] {
                 MonitorOptions mo;
                 mo.period = options.period;
                 mo.headroom = options.headroom;
                 mo.cost_ewma = options.cost_ewma;
                 mo.estimation_noise = options.estimation_noise;
                 mo.noise_seed = options.noise_seed;
                 mo.adapt_headroom = options.adapt_headroom;
                 return mo;
               }()),
      qos_(options.target_delay),
      pipeline_("sim",
                ActuationPlannerOptions{
                    engine != nullptr ? engine->NominalEntryCost() : 1.0,
                    options.allow_in_network_shed, options.cost_aware_shed},
                options.telemetry),
      predictor_(MakePredictor(options.predictor)),
      target_delay_(options.target_delay) {
  CS_CHECK(sim_ != nullptr);
  CS_CHECK(engine_ != nullptr);
  if (options.track_sources > 0) {
    per_source_ = std::make_unique<PerSourceStats>(options.track_sources);
  }
  // controller_ may be null (uncontrolled run); shedder is required only
  // when a controller is present.
  if (controller_ != nullptr) CS_CHECK(shedder_ != nullptr);
}

void FeedbackLoop::SetDepartureObserver(DepartureCallback observer) {
  CS_CHECK_MSG(!started_, "observer must be set before Start");
  observer_ = std::move(observer);
}

void FeedbackLoop::Start() {
  CS_CHECK_MSG(!started_, "Start called twice");
  started_ = true;

  engine_->SetDepartureCallback([this](const Departure& d) {
    monitor_.OnDeparture(d);
    qos_.OnDeparture(d);
    if (per_source_) per_source_->OnDeparture(d);
    if (observer_) observer_(d);
  });

  sim_->ScheduleEvery(options_.period, options_.period, [this](SimTime now) {
    ControlTick(now);
    return true;
  });
}

void FeedbackLoop::OnArrival(const Tuple& t) {
  ++offered_;
  if (per_source_) per_source_->OnOffered(t);
  if (shedder_ != nullptr && controller_ != nullptr && !shedder_->Admit(t)) {
    ++entry_shed_;
    return;
  }
  if (per_source_) per_source_->OnAdmitted(t);
  engine_->Inject(t, t.arrival_time);
}

void FeedbackLoop::SetTargetDelay(double yd) {
  CS_CHECK_MSG(yd > 0.0, "target delay must be positive");
  target_delay_ = yd;
  qos_.SetTargetDelay(yd);
}

void FeedbackLoop::ControlTick(SimTime now) {
  PeriodMeasurement m = monitor_.Sample(now, offered_, target_delay_);
  m.fin_forecast = predictor_->Observe(m.fin);
  PeriodRecord rec{.m = m};
  if (controller_ != nullptr) {
    if (options_.allow_in_network_shed) {
      CollectQueueFeedback(*engine_, &feedback_);
    }
    rec.v = controller_->DesiredRate(m);
    const ActuationFold fold = pipeline_.Actuate(
        &rec, {&m.fin, 1}, {&m.queue, 1},
        [this](size_t, const ActuationPlan& plan, const PeriodMeasurement& mi) {
          return ApplySlice(*shedder_, plan, mi);
        },
        feedback_);
    controller_->NotifyActuation(fold.applied);
  }
  const EngineCounters& counters = engine_->counters();
  rec.queue_shed = counters.shed_lineages - prev_queue_shed_;
  prev_queue_shed_ = counters.shed_lineages;
  rec.h_hat = headroom_tracker_.Update(
      counters.drained_base_load - prev_drained_base_load_,
      counters.busy_seconds - prev_busy_seconds_);
  prev_drained_base_load_ = counters.drained_base_load;
  prev_busy_seconds_ = counters.busy_seconds;
  pipeline_.Publish(std::move(rec), options_.headroom);
}

QosSummary FeedbackLoop::Summary() const {
  return qos_.Summarize(offered_, entry_shed_, /*ring_dropped=*/0,
                        engine_->counters().shed_lineages);
}

}  // namespace ctrlshed
