#ifndef CTRLSHED_SHEDDING_QUEUE_SHEDDER_H_
#define CTRLSHED_SHEDDING_QUEUE_SHEDDER_H_

#include "common/rng.h"
#include "engine/engine.h"
#include "shedding/shedder.h"

namespace ctrlshed {

/// The second load shedder of Section 4.5.2, matching what the paper's
/// evaluation actually used: "allows shedding from the queue and randomly
/// selects shedding locations".
///
/// At each period boundary the load to shed over the coming period is
/// Ls = (fin(k) - v(k)) T c. Unlike the entry shedder, this actuator can
/// realize a NEGATIVE desired rate v: the paper's point that "shedding
/// only intact tuples (outside the network) or partially processed tuples
/// (in the network) makes no difference: the same 'load' is being
/// discarded". The part of Ls beyond the total inflow is removed from
/// randomly chosen operator queues immediately; the rest becomes an entry
/// drop probability. This is what lets the controller cut queued work
/// instantly when the per-tuple cost jumps (Fig. 15's brief CTRL peaks).
class QueueShedder : public Shedder {
 public:
  /// `engine` must outlive the shedder. `cost_aware` switches victim
  /// selection from the paper's random locations to the LSRM-flavored
  /// most-load-per-tuple choice, minimizing tuples lost per load shed.
  QueueShedder(Engine* engine, uint64_t seed, bool cost_aware = false);

  /// Builds an in-network plan and applies it — one code path with
  /// ApplyPlan, bit-identical to the historical inline arithmetic.
  double Configure(double v, const PeriodMeasurement& m) override;

  /// Executes the plan's in-network budget against the engine's queues
  /// right now, then derives the entry alpha and anti-windup value from the
  /// load ACTUALLY removed (unlike detached executors, which must assume
  /// the budget is achieved).
  double ApplyPlan(const ActuationPlan& plan,
                   const PeriodMeasurement& m) override;

  bool Admit(const Tuple& t) override;
  void AdmitBatch(const Tuple* tuples, size_t n, uint8_t* admit) override;
  double drop_probability() const override { return alpha_; }
  std::string_view name() const override { return "queue"; }

 private:
  Engine* engine_;
  Rng rng_;
  ActuationPlanner planner_;
  double alpha_ = 0.0;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_SHEDDING_QUEUE_SHEDDER_H_
