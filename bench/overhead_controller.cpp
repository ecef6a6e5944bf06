// Reproduces the computational-overhead measurement of Section 5.1: "the
// operation of our controller only involves several floating point
// calculations at each control period ... about 20 microseconds" (on 2004
// hardware). This google-benchmark binary times one control decision —
// controller arithmetic alone, the monitor sampling path, and the full
// per-period decision including the actuator reconfiguration.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "control/baseline_controller.h"
#include "control/ctrl_controller.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "rt/rt_monitor.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"

using namespace ctrlshed;

namespace {

PeriodMeasurement TypicalMeasurement() {
  PeriodMeasurement m;
  m.k = 100;
  m.period = 1.0;
  m.target_delay = 2.0;
  m.fin = 240.0;
  m.admitted = 190.0;
  m.fout = 185.0;
  m.queue = 350.0;
  m.cost = 0.0051;
  m.y_hat = 1.85;
  return m;
}

void BM_CtrlControllerDecision(benchmark::State& state) {
  CtrlController ctrl{CtrlOptions{}};
  PeriodMeasurement m = TypicalMeasurement();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.DesiredRate(m));
  }
}
BENCHMARK(BM_CtrlControllerDecision);

void BM_BaselineControllerDecision(benchmark::State& state) {
  BaselineController ctrl(0.97);
  PeriodMeasurement m = TypicalMeasurement();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.DesiredRate(m));
  }
}
BENCHMARK(BM_BaselineControllerDecision);

RtMonitorOptions SimMonitorOptions() {
  RtMonitorOptions mo;
  mo.period = 1.0;
  mo.headroom = 0.97;
  return mo;
}

// The sim's sampling path: FeedbackLoop's EngineSample into a one-shard
// RtMonitor.
void BM_MonitorSample(benchmark::State& state) {
  QueryNetwork net;
  BuildIdentificationNetwork(&net, 0.0051);
  Engine engine(&net, 0.97);
  RtMonitor monitor(engine.NominalEntryCost(), 1, SimMonitorOptions());
  std::vector<RtSample> sample(1);
  uint64_t offered = 0;
  SimTime now = 0.0;
  for (auto _ : state) {
    offered += 200;
    now += 1.0;
    sample[0] = EngineSample(engine, now, offered, 0.0, 0);
    benchmark::DoNotOptimize(monitor.Sample(sample, 2.0));
  }
}
BENCHMARK(BM_MonitorSample);

void BM_FullControlPeriod(benchmark::State& state) {
  QueryNetwork net;
  BuildIdentificationNetwork(&net, 0.0051);
  Engine engine(&net, 0.97);
  RtMonitor monitor(engine.NominalEntryCost(), 1, SimMonitorOptions());
  CtrlController ctrl{CtrlOptions{}};
  EntryShedder shedder(1);
  std::vector<RtSample> sample(1);
  uint64_t offered = 0;
  SimTime now = 0.0;
  for (auto _ : state) {
    offered += 200;
    now += 1.0;
    sample[0] = EngineSample(engine, now, offered, 0.0, 0);
    PeriodMeasurement m = monitor.Sample(sample, 2.0);
    m.fin = 240.0;  // pretend a loaded period
    const double v = ctrl.DesiredRate(m);
    const double applied = shedder.Configure(v, m);
    ctrl.NotifyActuation(applied);
    benchmark::DoNotOptimize(applied);
  }
}
BENCHMARK(BM_FullControlPeriod);

}  // namespace

BENCHMARK_MAIN();
