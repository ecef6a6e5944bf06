// Adaptive-cost example: per-tuple processing cost is not a constant. The
// paper's Section 4.4 argues the closed loop absorbs slow cost drift and
// its evaluation drives the engine with the Fig. 14 cost trace (a smooth
// peak, a sudden jump, and a high terrace). This example reproduces that
// situation on the library's public API and reports how the controller
// rides through each cost event: the monitor's measured cost estimate
// follows the drift, and the shedding rate is re-planned every period.

#include <cstdio>
#include <memory>

#include "control/ctrl_controller.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "runner/networks.h"
#include "shedding/queue_shedder.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

using namespace ctrlshed;

int main() {
  constexpr double kDuration = 400.0;
  constexpr double kHeadroom = 0.97;
  constexpr double kCapacity = 190.0;  // at nominal cost

  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, kHeadroom / kCapacity);
  Engine engine(&net, kHeadroom);
  sim.AttachProcess(&engine);

  // The Fig. 14 cost circumstances: query re-planning at t~50 s (small
  // peak), an expensive new query deployed at t = 125 s (sudden jump that
  // relaxes), and a selectivity shift from t = 250 s (high terrace).
  CostTraceParams cost_params;
  RateTrace cost = MakeCostTrace(kDuration, cost_params, 71);
  engine.SetCostMultiplier(
      [&cost, &cost_params](SimTime t) { return cost.At(t) / cost_params.base_ms; });

  CtrlOptions ctrl_opts;
  ctrl_opts.headroom = kHeadroom;
  CtrlController controller(ctrl_opts);
  // The in-network shedder can discard partially processed tuples, so a
  // sudden cost jump does not leave the loop stuck draining a queue that
  // became several times more expensive overnight (Section 4.5.2).
  QueueShedder shedder(&engine, 81);

  FeedbackLoopOptions loop_opts;
  loop_opts.period = 1.0;
  loop_opts.target_delay = 2.0;
  loop_opts.headroom = kHeadroom;
  loop_opts.allow_in_network_shed = true;  // plans the shedder's queue cuts
  FeedbackLoop loop(&sim, &engine, &controller, &shedder, loop_opts);
  loop.Start();

  ArrivalSource source(0, MakeConstantTrace(kDuration, 210.0),
                       ArrivalSource::Spacing::kPoisson, 91);
  source.Start(&sim, [&loop](const Tuple& t) { loop.OnArrival(t); });

  sim.Run(kDuration);

  std::printf("Riding the Fig. 14 cost trace (yd = 2 s, steady 210 t/s "
              "offered)\n\n");
  std::printf("%8s %12s %12s %12s %10s\n", "t (s)", "true c (ms)",
              "est c (ms)", "y_meas (s)", "shed %");
  for (const PeriodRecord& row : loop.recorder().rows()) {
    const int t = static_cast<int>(row.m.t + 0.5);
    const bool interesting =
        (t % 40 == 0) || (t >= 48 && t <= 56 && t % 2 == 0) ||
        (t >= 124 && t <= 136 && t % 2 == 0) || (t >= 248 && t <= 260 && t % 4 == 0);
    if (!interesting) continue;
    std::printf("%8d %12.2f %12.2f %12.3f %9.1f%%\n", t,
                cost.At(row.m.t - 0.5) *
                    (1000.0 * engine.NominalEntryCost() / cost_params.base_ms),
                1000.0 * row.m.cost,
                row.m.has_y_measured ? row.m.y_measured : 0.0,
                100.0 * row.alpha);
  }

  const QosSummary s = loop.Summary();
  std::printf("\nTotals: %.1f tuple-seconds of violation across %llu "
              "departures, %.1f%% shed, worst overshoot %.2f s.\n",
              s.accumulated_violation,
              static_cast<unsigned long long>(s.departures),
              100.0 * s.loss_ratio, s.max_overshoot);
  std::printf("The estimated cost column tracks the true one a period "
              "behind; the shed percentage rises with the cost so the "
              "delay returns to 2 s after each event.\n");
  return 0;
}
