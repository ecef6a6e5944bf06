#include "rt/rt_loop.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "rt/rt_runtime.h"
#include "rt/rt_source.h"

namespace ctrlshed {

namespace {
RtPlant* CheckedPlant(RtPlant* plant, const LoadController* controller) {
  CS_CHECK(plant != nullptr);
  for (size_t i = 0; controller != nullptr && i < plant->size(); ++i) {
    CS_CHECK(plant->shedder(i) != nullptr);
  }
  return plant;
}

RtMonitorOptions ToMonitorOptions(const RtLoopOptions& options) {
  RtMonitorOptions mo;
  mo.period = options.period;
  mo.headroom = options.headroom;
  mo.cost_ewma = options.cost_ewma;
  mo.adapt_headroom = options.adapt_headroom;
  return mo;
}
}  // namespace

void AdmitToShard(RtEngine* engine, Shedder* shedder, std::mutex* mu,
                  int local_source, const Tuple* tuples, size_t n) {
  RtSharedStats* stats = engine->stats();
  stats->offered.fetch_add(n, std::memory_order_relaxed);
  Tuple admitted[kRtArrivalBatchMax];
  uint8_t admit_mask[kRtArrivalBatchMax];
  for (size_t base = 0; base < n; base += kRtArrivalBatchMax) {
    const size_t chunk_n = std::min(n - base, kRtArrivalBatchMax);
    if (shedder != nullptr) {
      // One batched decision under the mutex (coin-flip shedders draw
      // their RNG stream and compare branch-free); the survivor
      // compaction below runs outside the critical section.
      std::lock_guard<std::mutex> lock(*mu);
      shedder->AdmitBatch(tuples + base, chunk_n, admit_mask);
    } else {
      std::fill_n(admit_mask, chunk_n, uint8_t{1});
    }
    size_t m = 0;
    for (size_t i = 0; i < chunk_n; ++i) {
      admitted[m] = tuples[base + i];
      admitted[m].source = local_source;
      m += admit_mask[i] != 0;
    }
    if (m < chunk_n) {
      stats->entry_shed.fetch_add(chunk_n - m, std::memory_order_relaxed);
    }
    engine->OfferBatch(admitted, m);
  }
}

RtLoop::RtLoop(RtPlant* plant, const RtClock* clock,
               LoadController* controller, RtLoopOptions options)
    : plant_(CheckedPlant(plant, controller)),
      clock_(clock),
      controller_(controller),
      options_(options),
      monitor_(plant_->engine(0)->NominalEntryCost(),
               static_cast<int>(plant_->size()), ToMonitorOptions(options)),
      qos_(options.target_delay),
      pipeline_("rt",
                ActuationPlannerOptions{plant_->engine(0)->NominalEntryCost(),
                                        options.queue_shed,
                                        options.cost_aware_shed},
                options.telemetry),
      predictor_(MakePredictor(options.predictor)),
      samples_(plant_->size()),
      shedder_mutexes_(new std::mutex[plant_->size()]),
      target_delay_(options.target_delay) {
  CS_CHECK(clock_ != nullptr);
  CS_CHECK_MSG(options_.period > 0.0, "period must be positive");

  // Departure fan-in runs on the N engine worker threads, serialized by
  // the departure mutex (uncontended at N = 1). The setpoint is re-read
  // per departure so runtime setpoint changes are judged like the sim
  // loop judges them: against the setpoint in force at departure.
  plant_->SetDepartureCallback([this](const Departure& d) {
    std::lock_guard<std::mutex> lock(departure_mutex_);
    const double yd = target_delay_.load(std::memory_order_relaxed);
    if (yd != qos_.target_delay()) qos_.SetTargetDelay(yd);
    qos_.OnDeparture(d);
    if (observer_) observer_(d);
  });
}

RtLoop::~RtLoop() { Stop(); }

void RtLoop::SetDepartureObserver(DepartureCallback observer) {
  CS_CHECK_MSG(!started_, "observer must be set before Start");
  observer_ = std::move(observer);
}

void RtLoop::Start() {
  CS_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  plant_->Start();
  controller_thread_ = std::thread([this] { ControllerLoop(); });
}

void RtLoop::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  if (controller_thread_.joinable()) controller_thread_.join();
  plant_->Stop();
}

void RtLoop::OnArrival(const Tuple& t) { OnArrivalBatch(&t, 1); }

void RtLoop::OnArrivalBatch(const Tuple* tuples, size_t n) {
  if (n == 0) return;
  for (size_t i = 1; i < n; ++i) {
    CS_CHECK_MSG(tuples[i].source == tuples[0].source,
                 "a batch must come from a single source");
  }
  // Hash partitioning: global source s lives on shard s % N as that
  // engine's local source s / N. The global->local remap keeps the
  // one-producer-per-ring SPSC contract intact (a batch comes from one
  // source thread, so the whole batch lands on one shard).
  const size_t shards = plant_->size();
  const size_t shard = static_cast<size_t>(tuples[0].source) % shards;
  AdmitToShard(plant_->engine(shard),
               controller_ != nullptr ? plant_->shedder(shard) : nullptr,
               &shedder_mutexes_[shard],
               tuples[0].source / static_cast<int>(shards), tuples, n);
}

void RtLoop::SetTargetDelay(double yd) {
  CS_CHECK_MSG(yd > 0.0, "target delay must be positive");
  target_delay_.store(yd, std::memory_order_relaxed);
}

void RtLoop::ControllerLoop() {
  if (options_.telemetry != nullptr) {
    trace_buf_ = options_.telemetry->RegisterThread("rt.controller");
    MetricsRegistry* reg = options_.telemetry->metrics();
    lateness_metric_ = reg->GetHistogram("rt.actuation_lateness_s");
    if (plant_->size() > 1) {
      for (size_t i = 0; i < plant_->size(); ++i) {
        const std::string prefix = "rt.shard" + std::to_string(i);
        shard_queue_gauges_.push_back(reg->GetGauge(prefix + ".queue"));
        shard_alpha_gauges_.push_back(reg->GetGauge(prefix + ".alpha"));
        shard_h_hat_gauges_.push_back(reg->GetGauge(prefix + ".h_hat"));
      }
    }
  }
  const auto stopping = [this] {
    return stop_.load(std::memory_order_acquire);
  };
  for (int k = 1; !stopping(); ++k) {
    const auto deadline =
        clock_->WallDeadline(static_cast<SimTime>(k) * options_.period);
    SleepUntilWall(deadline, stopping);
    if (stopping()) break;
    // Actuation jitter: how late past the period boundary this tick runs.
    const double lateness =
        std::max(0.0, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - deadline)
                          .count());
    ControlTick(clock_->Now(), lateness);
  }
}

void RtLoop::ControlTick(SimTime now, double lateness_wall) {
  ScopedSpan tick_span(trace_buf_, "control_tick");
  PeriodMeasurement m;
  {
    // The aggregation barrier: every shard is snapshotted at the same
    // trace instant, so the monitor folds a consistent cut of the
    // partitioned plant (per-shard skew stays bounded by one pump).
    ScopedSpan sample_span(trace_buf_, "sample");
    plant_->Snapshot(now, &samples_);
    m = monitor_.Sample(samples_,
                        target_delay_.load(std::memory_order_relaxed));
  }
  m.fin_forecast = predictor_->Observe(m.fin);
  PeriodRecord rec{.m = m, .lateness = lateness_wall};
  if (controller_ != nullptr) {
    ScopedSpan actuate_span(trace_buf_, "actuate");
    // One slice per shard. The shard's virtual queue is the backlog signal
    // that crossed the stats surface, and it is what clamps queue_target.
    // The workers own the queues, so the in-network budget only goes out
    // through the handshake.
    rec.v = controller_->DesiredRate(m);
    const ActuationFold fold = pipeline_.Actuate(
        &rec, monitor_.shard_fin(), monitor_.shard_queues(),
        [this](size_t i, const ActuationPlan& plan,
               const PeriodMeasurement& mi) {
          if (options_.queue_shed) plant_->PostPlan(i, plan);
          SliceActuation s;
          {
            std::lock_guard<std::mutex> lock(shedder_mutexes_[i]);
            s = ApplySlice(*plant_->shedder(i), plan, mi);
          }
          if (i < shard_alpha_gauges_.size()) {
            shard_queue_gauges_[i]->Set(mi.queue);
            shard_alpha_gauges_[i]->Set(s.alpha);
            const double h_hat_i = monitor_.shard_h_hat()[i];
            if (h_hat_i == h_hat_i) shard_h_hat_gauges_[i]->Set(h_hat_i);
          }
          return s;
        });
    controller_->NotifyActuation(fold.applied);
  }
  actuation_lateness_.Record(lateness_wall);
  if (lateness_metric_ != nullptr) lateness_metric_->Record(lateness_wall);
  rec.h_hat = monitor_.h_hat();
  if (plant_->size() > 1) rec.shard_q = monitor_.shard_queues();
  // Executed in-network drops this period, as of this tick's snapshot
  // (they lag the posted budget by up to one pump — the workers drain it
  // asynchronously).
  uint64_t queue_shed_total = 0;
  for (const RtSample& s : samples_) queue_shed_total += s.queue_shed;
  rec.queue_shed = static_cast<double>(queue_shed_total - prev_queue_shed_);
  prev_queue_shed_ = queue_shed_total;
  pipeline_.Publish(std::move(rec), options_.headroom);
}

QosSummary RtLoop::Summary() const {
  const RtShardSummary t = plant_->Totals();
  return qos_.Summarize(t.offered, t.entry_shed, t.ring_dropped, t.queue_shed);
}

}  // namespace ctrlshed
