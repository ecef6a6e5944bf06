#include "shedding/queue_shedder.h"

#include <algorithm>

#include "common/macros.h"

namespace ctrlshed {

QueueShedder::QueueShedder(Engine* engine, uint64_t seed, bool cost_aware)
    : engine_(engine),
      rng_(seed),
      planner_(ActuationPlannerOptions{
          engine != nullptr ? engine->NominalEntryCost() : 1.0,
          /*allow_in_network=*/true, cost_aware}) {
  CS_CHECK(engine_ != nullptr);
}

double QueueShedder::Configure(double v, const PeriodMeasurement& m) {
  return ApplyPlan(planner_.BuildPlan(v, m), m);
}

double QueueShedder::ApplyPlan(const ActuationPlan& plan,
                               const PeriodMeasurement& m) {
  if (!plan.in_network_enabled) return Configure(plan.v, m);
  const double T = m.period;
  // Load to shed over the coming period, in entry-tuple equivalents
  // (multiplying by c gives the paper's Ls; c cancels from the balance).
  // A negative desired rate v means "remove queued work beyond blocking
  // all arrivals" — the capability that distinguishes this actuator.
  if (plan.to_shed <= 0.0) {
    alpha_ = 0.0;
    return plan.v;
  }

  // The part that blocking the whole inflow cannot cover is taken from
  // locations inside the network, right now.
  double queue_removed = 0.0;
  if (plan.queue_target > 0.0) {
    const auto policy = plan.cost_aware
                            ? Engine::QueueVictimPolicy::kMostCostly
                            : Engine::QueueVictimPolicy::kRandom;
    queue_removed =
        engine_->ShedFromQueues(plan.queue_budget_load, rng_, policy) /
        engine_->NominalEntryCost();
  }

  // The rest becomes an entry drop probability for the coming period.
  const double remainder = plan.to_shed - queue_removed;
  alpha_ = (plan.incoming > 0.0)
               ? std::clamp(remainder / plan.incoming, 0.0, 1.0)
               : 0.0;

  const double unachieved = std::max(0.0, remainder - plan.incoming) +
                            (plan.queue_target - queue_removed);
  return plan.v + unachieved / T;
}

bool QueueShedder::Admit(const Tuple& /*t*/) { return !rng_.Bernoulli(alpha_); }

void QueueShedder::AdmitBatch(const Tuple* /*tuples*/, size_t n,
                              uint8_t* admit) {
  BatchCoinFlipAdmit(rng_, alpha_, n, admit);
}

}  // namespace ctrlshed
