// Financial-ticks example: the firm-deadline use case from the paper's
// introduction (tracking of stock prices — results delivered after the
// deadline are worthless). Two tick streams (trades and quotes) are
// band-joined over a sliding window to detect price dislocations; the
// desk demands results within 500 ms, and relaxes the deadline to 2 s
// when the market closes volatile trading at t = 120 s.
//
// Demonstrates: a join-centric query network, a sub-second control period,
// the in-network QUEUE shedder (which can cut already-queued work the
// instant volatility makes tuples costlier), and a runtime setpoint
// change via FeedbackLoop::SetTargetDelay.

#include <cstdio>
#include <memory>

#include "control/ctrl_controller.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "shedding/queue_shedder.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

using namespace ctrlshed;

int main() {
  constexpr double kDuration = 240.0;
  constexpr double kHeadroom = 0.95;  // co-located risk checks eat 5% CPU

  Simulation sim;

  // trades -> f_trades --+
  //                      +-- band-join (2 s window) -> enrich -> alert sink
  // quotes -> f_quotes --+
  QueryNetwork net;
  auto* f_trades = net.Add(std::make_unique<FilterOp>(
      "odd_lot_filter", Millis(0.8), /*threshold=*/0.9));
  auto* f_quotes = net.Add(std::make_unique<FilterOp>(
      "stale_quote_filter", Millis(0.8), /*threshold=*/0.85));
  auto* join = net.Add(std::make_unique<SlidingJoinOp>(
      "dislocation_join", Millis(2.0), /*window_seconds=*/0.4,
      /*band=*/0.01, /*expected_selectivity=*/0.8));
  auto* enrich = net.Add(std::make_unique<MapOp>("enrich", Millis(1.2)));
  auto* alert = net.Add(std::make_unique<MapOp>("alert_fmt", Millis(0.5)));
  f_trades->ConnectTo(join, /*port=*/0);
  f_quotes->ConnectTo(join, /*port=*/1);
  join->ConnectTo(enrich);
  enrich->ConnectTo(alert);
  net.AddEntry(/*source=*/0, f_trades);
  net.AddEntry(/*source=*/1, f_quotes);
  net.Finalize();

  Engine engine(&net, kHeadroom);
  sim.AttachProcess(&engine);
  std::printf("Per-tick expected CPU cost: %.2f ms -> capacity ~%.0f "
              "ticks/s\n\n",
              1000.0 * net.MeanEntryCost(),
              kHeadroom / net.MeanEntryCost());

  CtrlOptions ctrl_opts;
  ctrl_opts.headroom = kHeadroom;
  CtrlController controller(ctrl_opts);
  QueueShedder shedder(&engine, /*seed=*/77);

  FeedbackLoopOptions loop_opts;
  loop_opts.period = 0.25;        // T = 250 ms for a 500 ms deadline
  loop_opts.target_delay = 0.5;   // the desk's firm deadline
  loop_opts.headroom = kHeadroom;
  loop_opts.allow_in_network_shed = true;  // plans the shedder's queue cuts
  FeedbackLoop loop(&sim, &engine, &controller, &shedder, loop_opts);
  loop.Start();

  // After the close (t = 120 s) the deadline relaxes to 2 s.
  sim.Schedule(120.0, [&loop] { loop.SetTargetDelay(2.0); });

  // Bursty tick arrivals: volatile open, calmer afternoon.
  ParetoTraceParams ticks;
  ticks.mean_rate = 150.0;  // per stream; the pair overloads the engine
  ticks.beta = 0.8;
  ArrivalSource trades(0, MakeParetoTrace(kDuration, ticks, 51),
                       ArrivalSource::Spacing::kPoisson, 61);
  ArrivalSource quotes(1, MakeParetoTrace(kDuration, ticks, 52),
                       ArrivalSource::Spacing::kPoisson, 62);
  trades.Start(&sim, [&loop](const Tuple& t) { loop.OnArrival(t); });
  quotes.Start(&sim, [&loop](const Tuple& t) { loop.OnArrival(t); });

  sim.Run(kDuration);

  const QosSummary s = loop.Summary();
  std::printf("Ticks offered            : %llu\n",
              static_cast<unsigned long long>(s.offered));
  std::printf("Ticks shed               : %llu (%.1f%%)\n",
              static_cast<unsigned long long>(s.shed), 100.0 * s.loss_ratio);
  std::printf("Mean result latency      : %.0f ms\n", 1000.0 * s.mean_delay);
  std::printf("Late results             : %llu\n",
              static_cast<unsigned long long>(s.delayed_tuples));
  std::printf("Worst miss (overshoot)   : %.0f ms\n",
              1000.0 * s.max_overshoot);

  // Mean latency per regime from the per-period trace.
  double fast = 0.0, slow = 0.0;
  int nf = 0, ns = 0;
  for (const PeriodRecord& row : loop.recorder().rows()) {
    if (!row.m.has_y_measured || row.m.t < 20.0) continue;
    if (row.m.t < 120.0) {
      fast += row.m.y_measured;
      ++nf;
    } else if (row.m.t > 140.0) {
      slow += row.m.y_measured;
      ++ns;
    }
  }
  std::printf("\nMean latency, market hours (target 500 ms) : %6.0f ms\n",
              nf ? 1000.0 * fast / nf : 0.0);
  std::printf("Mean latency, after close  (target 2 s)    : %6.0f ms\n",
              ns ? 1000.0 * slow / ns : 0.0);
  return 0;
}
