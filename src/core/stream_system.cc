#include "core/stream_system.h"

#include <utility>

#include "common/macros.h"
#include "runner/experiment.h"
#include "shedding/semantic_shedder.h"
#include "shedding/weighted_shedder.h"

namespace ctrlshed {

StreamBuilder& StreamBuilder::Filter(double cost_ms, double selectivity) {
  Append(system_->net_.Add(std::make_unique<FilterOp>(
      "filter", Millis(cost_ms), selectivity)));
  return *this;
}

StreamBuilder& StreamBuilder::Map(double cost_ms, MapOp::MapFn fn) {
  Append(system_->net_.Add(
      std::make_unique<MapOp>("map", Millis(cost_ms), std::move(fn))));
  return *this;
}

StreamBuilder& StreamBuilder::Aggregate(double cost_ms, int window_size,
                                        WindowAggregateOp::Kind kind) {
  Append(system_->net_.Add(std::make_unique<WindowAggregateOp>(
      "aggregate", Millis(cost_ms), window_size, kind)));
  return *this;
}

StreamBuilder& StreamBuilder::JoinWith(StreamBuilder& other, double cost_ms,
                                       double window_seconds, double band,
                                       double expected_selectivity) {
  CS_CHECK_MSG(tail_ != nullptr && other.tail_ != nullptr,
               "both pipelines need at least one stage before a join");
  CS_CHECK_MSG(system_ == other.system_, "cannot join across systems");
  auto* join = system_->net_.Add(std::make_unique<SlidingJoinOp>(
      "join", Millis(cost_ms), window_seconds, band, expected_selectivity));
  tail_->ConnectTo(join, /*port=*/0);
  other.tail_->ConnectTo(join, /*port=*/1);
  tail_ = join;
  other.tail_ = join;
  return *this;
}

void StreamBuilder::Append(OperatorBase* op) {
  CS_CHECK_MSG(!system_->frozen_, "topology is frozen after Run");
  if (tail_ == nullptr) {
    system_->net_.AddEntry(source_, op);
  } else {
    tail_->ConnectTo(op, /*port=*/0);
  }
  tail_ = op;
}

StreamSystem::StreamSystem() : StreamSystem(Options{}) {}

StreamSystem::StreamSystem(Options options) : options_(options) {}

StreamSystem::~StreamSystem() = default;

StreamBuilder& StreamSystem::AddStream(std::string name) {
  CS_CHECK_MSG(!frozen_, "topology is frozen after Run");
  const int source = static_cast<int>(streams_.size());
  streams_.push_back(
      std::unique_ptr<StreamBuilder>(new StreamBuilder(this, source)));
  stream_names_.push_back(std::move(name));
  return *streams_.back();
}

void StreamSystem::SetWorkload(int source, RateTrace trace,
                               ArrivalSource::Spacing spacing) {
  CS_CHECK_MSG(!frozen_, "workloads must be attached before Run");
  CS_CHECK_MSG(source >= 0 && static_cast<size_t>(source) < streams_.size(),
               "unknown stream");
  pending_workloads_.push_back(
      PendingWorkload{source, std::move(trace), spacing});
}

void StreamSystem::ScheduleTargetDelay(SimTime when, double target) {
  CS_CHECK_MSG(!frozen_, "setpoint schedule must be set before Run");
  pending_setpoints_.emplace_back(when, target);
}

void StreamSystem::Freeze() {
  CS_CHECK_MSG(!streams_.empty(), "no streams declared");
  for (size_t s = 0; s < streams_.size(); ++s) {
    CS_CHECK_MSG(streams_[s]->tail_ != nullptr,
                 "a declared stream has an empty pipeline");
  }
  net_.Finalize();

  ExperimentConfig config;
  switch (options_.policy) {
    case Policy::kNone: config.method = Method::kNone; break;
    case Policy::kControl: config.method = Method::kCtrl; break;
    case Policy::kBaseline: config.method = Method::kBaseline; break;
    case Policy::kAurora: config.method = Method::kAurora; break;
  }
  config.use_queue_shedder = options_.actuator == Actuator::kQueue;
  config.headroom_true = options_.headroom;
  config.headroom_est = options_.headroom;
  config.period = options_.control_period;
  config.target_delay = options_.target_delay;
  config.predictor = options_.predictor;
  config.scheduler = options_.scheduler;
  config.seed = options_.seed;
  config.setpoint_schedule = pending_setpoints_;

  // The recipe's actuators are the entry and queue shedders; the semantic
  // and weighted ones are this facade's own (Aurora keeps its quota
  // shedder whatever the actuator).
  std::unique_ptr<Shedder> shedder;
  if (config.method != Method::kNone && config.method != Method::kAurora) {
    if (options_.actuator == Actuator::kSemantic) {
      shedder = std::make_unique<SemanticShedder>();
    } else if (options_.actuator == Actuator::kWeighted) {
      CS_CHECK_MSG(options_.stream_priorities.size() == streams_.size(),
                   "stream_priorities must match the declared streams");
      shedder = std::make_unique<WeightedEntryShedder>(
          options_.stream_priorities, options_.seed + 2);
    }
  }
  FeedbackLoopOptions loop_opts = SimLoopOptions(config);
  if (options_.track_per_stream) {
    loop_opts.track_sources = static_cast<int>(streams_.size());
  }
  loop_ = std::make_unique<SimLoop>(&sim_, &net_, config, loop_opts,
                                    std::move(shedder));

  FeedbackLoop* loop = &loop_->loop();
  for (PendingWorkload& w : pending_workloads_) {
    sources_.push_back(std::make_unique<ArrivalSource>(
        w.source, std::move(w.trace), w.spacing,
        options_.seed + 10 + static_cast<uint64_t>(w.source)));
    sources_.back()->Start(&sim_,
                           [loop](const Tuple& t) { loop->OnArrival(t); });
  }
  pending_workloads_.clear();
  frozen_ = true;
}

void StreamSystem::Run(SimTime end) {
  if (!frozen_) Freeze();
  sim_.Run(end);
}

QosSummary StreamSystem::Summary() const {
  CS_CHECK_MSG(frozen_, "Run first");
  return loop_->loop().Summary();
}

const Recorder& StreamSystem::recorder() const {
  CS_CHECK_MSG(frozen_, "Run first");
  return loop_->loop().recorder();
}

double StreamSystem::LossRatio() const {
  CS_CHECK_MSG(frozen_, "Run first");
  return loop_->loop().LossRatio();
}

double StreamSystem::NominalCost() const {
  CS_CHECK_MSG(frozen_, "Run first");
  return loop_->engine().NominalEntryCost();
}

const PerSourceStats* StreamSystem::per_stream() const {
  CS_CHECK_MSG(frozen_, "Run first");
  return loop_->loop().per_source();
}

const Engine& StreamSystem::engine() const {
  CS_CHECK_MSG(frozen_, "Run first");
  return loop_->engine();
}

}  // namespace ctrlshed
