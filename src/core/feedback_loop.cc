#include "core/feedback_loop.h"

#include "common/macros.h"

namespace ctrlshed {

namespace {
double CheckedNominalCost(const Engine* engine) {
  CS_CHECK(engine != nullptr);
  return engine->NominalEntryCost();
}
}  // namespace

RtSample EngineSample(const Engine& engine, SimTime now, uint64_t offered,
                      double delay_sum, uint64_t delay_count) {
  const EngineCounters& c = engine.counters();
  RtSample s;
  s.now = now;
  s.offered = offered;
  s.admitted = c.admitted;
  s.busy_seconds = c.busy_seconds;
  s.drained_base_load = c.drained_base_load;
  s.queued_tuples = engine.QueuedTuples();
  s.outstanding_base_load = engine.OutstandingBaseLoad();
  s.delay_sum = delay_sum;
  s.delay_count = delay_count;
  return s;
}

FeedbackLoop::FeedbackLoop(Simulation* sim, Engine* engine,
                           LoadController* controller, Shedder* shedder,
                           FeedbackLoopOptions options)
    : sim_(sim),
      engine_(engine),
      controller_(controller),
      shedder_(shedder),
      options_(options),
      monitor_(CheckedNominalCost(engine), 1,
               {.period = options.period,
                .headroom = options.headroom,
                .cost_ewma = options.cost_ewma,
                .adapt_headroom = options.adapt_headroom,
                .estimation_noise = options.estimation_noise,
                .noise_seed = options.noise_seed}),
      qos_(options.target_delay),
      pipeline_("sim",
                ActuationPlannerOptions{engine->NominalEntryCost(),
                                        options.allow_in_network_shed,
                                        options.cost_aware_shed},
                options.telemetry),
      predictor_(MakePredictor(options.predictor)),
      sample_(1),
      target_delay_(options.target_delay) {
  CS_CHECK(sim_ != nullptr);
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
    delay_sum_ += d.depart_time - d.arrival_time;
    ++delay_count_;
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
  sample_[0] =
      EngineSample(*engine_, now, offered_, delay_sum_, delay_count_);
  PeriodMeasurement m = monitor_.Sample(sample_, target_delay_);
  m.fin_forecast = predictor_->Observe(m.fin);
  PeriodRecord rec{.m = m};
  if (controller_ != nullptr) {
    rec.v = controller_->DesiredRate(m);
    const ActuationFold fold = pipeline_.Actuate(
        &rec, {&m.fin, 1}, {&m.queue, 1},
        [this](size_t, const ActuationPlan& plan, const PeriodMeasurement& mi) {
          return ApplySlice(*shedder_, plan, mi);
        });
    controller_->NotifyActuation(fold.applied);
  }
  const uint64_t shed_lineages = engine_->counters().shed_lineages;
  rec.queue_shed = shed_lineages - prev_queue_shed_;
  prev_queue_shed_ = shed_lineages;
  rec.h_hat = monitor_.h_hat();
  pipeline_.Publish(std::move(rec), options_.headroom);
}

QosSummary FeedbackLoop::Summary() const {
  return qos_.Summarize(offered_, entry_shed_, /*ring_dropped=*/0,
                        engine_->counters().shed_lineages);
}

}  // namespace ctrlshed
