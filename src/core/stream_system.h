#ifndef CTRLSHED_CORE_STREAM_SYSTEM_H_
#define CTRLSHED_CORE_STREAM_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "control/rate_predictor.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "engine/scheduler.h"
#include "metrics/qos_metrics.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"
#include "workload/rate_trace.h"

namespace ctrlshed {

class SimLoop;
class StreamSystem;

/// Fluent builder for one stream's processing pipeline. Obtained from
/// StreamSystem::AddStream; each call appends an operator and returns the
/// builder so stages chain:
///
///   sys.AddStream("trades")
///      .Filter(0.8, 0.9)
///      .Map(1.2)
///      .Aggregate(0.5, 16);
///
/// Costs are given in MILLISECONDS (the natural unit at this scale).
class StreamBuilder {
 public:
  /// Appends a fixed-selectivity filter.
  StreamBuilder& Filter(double cost_ms, double selectivity);

  /// Appends a map (optional payload transform).
  StreamBuilder& Map(double cost_ms, MapOp::MapFn fn = nullptr);

  /// Appends a tumbling window aggregate.
  StreamBuilder& Aggregate(double cost_ms, int window_size,
                           WindowAggregateOp::Kind kind =
                               WindowAggregateOp::Kind::kMean);

  /// Appends a sliding band-join whose other input is the current end of
  /// `other`'s pipeline. Both pipelines continue from the join's output;
  /// further stages may be added through either builder.
  StreamBuilder& JoinWith(StreamBuilder& other, double cost_ms,
                          double window_seconds, double band,
                          double expected_selectivity);

  /// Index of the underlying stream source.
  int source() const { return source_; }

 private:
  friend class StreamSystem;
  StreamBuilder(StreamSystem* system, int source) : system_(system), source_(source) {}

  void Append(OperatorBase* op);

  StreamSystem* system_;
  int source_;
  OperatorBase* tail_ = nullptr;
};

/// One-stop facade over the whole library: build a query network with
/// fluent pipelines, pick a shedding policy, attach workloads, run on the
/// virtual clock, read the QoS. See examples/quickstart.cpp. The loop is
/// the run recipe's SimLoop (runner/experiment.h) over the built network,
/// so a policy here runs exactly what `ctrlshed run method=...` runs.
class StreamSystem {
 public:
  enum class Policy {
    kNone,      ///< No shedding (observe the uncontrolled system).
    kControl,   ///< The paper's pole-placement feedback controller.
    kBaseline,  ///< Naive model-inverting feedback.
    kAurora,    ///< Open-loop Aurora shedding.
  };

  enum class Actuator {
    kEntry,     ///< Random drops before the network (Eq. 13).
    kQueue,     ///< In-network shedding from random queues.
    kSemantic,  ///< Utility-ordered entry drops.
    kWeighted,  ///< Priority-weighted drops (set `stream_priorities`).
  };

  struct Options {
    double headroom = 0.97;        ///< Fraction of CPU for query processing.
    SimTime control_period = 1.0;  ///< T.
    double target_delay = 2.0;     ///< yd, seconds.
    Policy policy = Policy::kControl;
    Actuator actuator = Actuator::kEntry;
    PredictorKind predictor = PredictorKind::kLastValue;
    SchedulerKind scheduler = SchedulerKind::kRoundRobin;
    /// Per-stream priorities for Actuator::kWeighted (higher survives
    /// longer); must match the number of declared streams.
    std::vector<double> stream_priorities;
    /// Keep per-stream offered/admitted/delay statistics.
    bool track_per_stream = false;
    uint64_t seed = 42;
  };

  StreamSystem();  // default options
  explicit StreamSystem(Options options);
  ~StreamSystem();

  StreamSystem(const StreamSystem&) = delete;
  StreamSystem& operator=(const StreamSystem&) = delete;

  /// Declares a new input stream and returns its pipeline builder. All
  /// streams must be declared (and their pipelines built) before Run.
  StreamBuilder& AddStream(std::string name);

  /// Attaches an arrival workload to a declared stream.
  void SetWorkload(int source, RateTrace trace,
                   ArrivalSource::Spacing spacing =
                       ArrivalSource::Spacing::kPoisson);

  /// Changes the delay target at virtual time `when`.
  void ScheduleTargetDelay(SimTime when, double target);

  /// Runs the system until virtual time `end`. May be called repeatedly
  /// with increasing horizons; the first call freezes the topology.
  void Run(SimTime end);

  // --- Results (valid after Run) ------------------------------------------

  QosSummary Summary() const;
  const Recorder& recorder() const;
  double LossRatio() const;

  /// Per-stream statistics (null unless `track_per_stream` was set).
  const PerSourceStats* per_stream() const;

  /// The model constant c: expected CPU cost of one tuple (seconds).
  double NominalCost() const;

  const Engine& engine() const;

 private:
  friend class StreamBuilder;

  void Freeze();  // finalizes the network and wires the loop

  Options options_;
  Simulation sim_;
  QueryNetwork net_;
  std::vector<std::unique_ptr<StreamBuilder>> streams_;
  std::vector<std::string> stream_names_;
  struct PendingWorkload {
    int source;
    RateTrace trace;
    ArrivalSource::Spacing spacing;
  };
  std::vector<PendingWorkload> pending_workloads_;
  std::vector<std::pair<SimTime, double>> pending_setpoints_;

  // Live after Freeze().
  std::unique_ptr<SimLoop> loop_;
  std::vector<std::unique_ptr<ArrivalSource>> sources_;
  bool frozen_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CORE_STREAM_SYSTEM_H_
