// Unit tests of the controller-side aggregation: per-node stats reports
// folded into one virtual plant (Σ N_i·H_i effective headroom, summed
// counter deltas), the stale-node exclusion/readmission policy, and the
// conservation property of the proportional v(k) fan-out (satellite: the
// per-node slices must reassemble the aggregate command to well under one
// tuple per period).

#include "cluster/cluster_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "control/period_math.h"

namespace ctrlshed {
namespace {

constexpr double kNominalCost = 0.97 / 190.0;

ClusterMonitorOptions Opts() {
  ClusterMonitorOptions o;
  o.period = 1.0;
  o.stale_periods = 3;
  return o;
}

NodeHello Hello(uint32_t id, uint32_t workers, double headroom = 0.97) {
  NodeHello h;
  h.node_id = id;
  h.workers = workers;
  h.headroom = headroom;
  h.nominal_cost = kNominalCost;
  h.period = 1.0;
  return h;
}

NodeStatsReport Report(uint32_t id, uint32_t seq, SimTime now,
                       uint64_t offered, uint64_t admitted, double busy,
                       double queue) {
  NodeStatsReport r;
  r.node_id = id;
  r.seq = seq;
  r.deltas.now = now;
  r.deltas.offered = offered;
  r.deltas.admitted = admitted;
  r.deltas.drained_base_load = busy;  // constant-cost plant: drained == busy
  r.deltas.busy_seconds = busy;
  r.deltas.queue = queue;
  return r;
}

TEST(ClusterMonitorTest, AggregatesTwoNodesLikeHandMath) {
  ClusterMonitor mon(kNominalCost, Opts());
  mon.OnHello(Hello(0, 2), 0.0);
  mon.OnHello(Hello(1, 1), 0.0);
  mon.OnReport(Report(0, 1, 1.0, 200, 150, 100 * kNominalCost, 30.0), 1.0);
  mon.OnReport(Report(1, 1, 1.0, 100, 80, 50 * kNominalCost, 10.0), 1.0);

  PeriodMeasurement m;
  ASSERT_TRUE(mon.Sample(1.0, 2.0, &m));
  EXPECT_EQ(mon.active_count(), 2);
  // Effective headroom is Σ N_i · H_i = 2·0.97 + 1·0.97.
  EXPECT_DOUBLE_EQ(mon.effective_headroom(), 3 * 0.97);
  EXPECT_DOUBLE_EQ(m.fin, 300.0);
  EXPECT_DOUBLE_EQ(m.admitted, 230.0);
  EXPECT_DOUBLE_EQ(m.fout, 150.0);
  EXPECT_DOUBLE_EQ(m.queue, 40.0);
  // Eq. (11) against the aggregate: y_hat = (q+1) c / (Σ N_i H_i).
  EXPECT_NEAR(m.y_hat, 41.0 * m.cost / (3 * 0.97), 1e-12);

  // The per-node decomposition feeding the fan-out.
  ASSERT_EQ(mon.node_fin().size(), 2u);
  EXPECT_DOUBLE_EQ(mon.node_fin()[0], 200.0);
  EXPECT_DOUBLE_EQ(mon.node_fin()[1], 100.0);
  EXPECT_DOUBLE_EQ(mon.node_queues()[0], 30.0);
  EXPECT_DOUBLE_EQ(mon.node_queues()[1], 10.0);
}

TEST(ClusterMonitorTest, SingleNodeMatchesPlainPeriodMathExactly) {
  // The identity contract at its smallest: one node's reported deltas
  // through the cluster monitor == the same deltas through a bare
  // PeriodMath with the node's own plant size. EXPECT_EQ, not NEAR.
  ClusterMonitor mon(kNominalCost, Opts());
  mon.OnHello(Hello(0, 1), 0.0);

  PeriodMathOptions po;
  po.period = 1.0;
  po.headroom = 0.97;
  po.max_headroom = 1.0;
  PeriodMath ref(kNominalCost, po);

  Rng rng(11);
  for (int k = 1; k <= 10; ++k) {
    const SimTime now = static_cast<SimTime>(k);
    const uint64_t offered = static_cast<uint64_t>(rng.UniformInt(50, 400));
    const uint64_t admitted = offered / 2;
    const double busy = static_cast<double>(admitted) * kNominalCost * 0.9;
    const double queue = rng.Uniform(0.0, 80.0);
    NodeStatsReport r = Report(0, static_cast<uint32_t>(k), now, offered,
                               admitted, busy, queue);
    mon.OnReport(r, now);

    PeriodMeasurement got;
    ASSERT_TRUE(mon.Sample(now, 2.0, &got));
    const PeriodMeasurement want = ref.SampleDeltas(r.deltas, 2.0, 1.0);
    EXPECT_EQ(got.fin, want.fin);
    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.fout, want.fout);
    EXPECT_EQ(got.queue, want.queue);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.y_hat, want.y_hat);
  }
}

TEST(ClusterMonitorTest, NodeWithoutHelloStaysOutOfAggregate) {
  // A report whose hello was lost registers the node but contributes
  // nothing until the hello supplies its plant size.
  ClusterMonitor mon(kNominalCost, Opts());
  mon.OnReport(Report(5, 1, 1.0, 100, 100, 0.1, 5.0), 1.0);
  PeriodMeasurement m;
  EXPECT_FALSE(mon.Sample(1.0, 2.0, &m));
  EXPECT_EQ(mon.known_count(), 1);
  EXPECT_EQ(mon.active_count(), 0);

  mon.OnHello(Hello(5, 1), 1.5);
  mon.OnReport(Report(5, 2, 2.0, 120, 110, 0.2, 6.0), 2.0);
  ASSERT_TRUE(mon.Sample(2.0, 2.0, &m));
  EXPECT_EQ(mon.active_count(), 1);
}

TEST(ClusterMonitorTest, StaleNodeIsExcludedAndHeadroomRetargets) {
  ClusterMonitor mon(kNominalCost, Opts());
  mon.OnHello(Hello(0, 2), 0.0);
  mon.OnHello(Hello(1, 2), 0.0);
  mon.OnReport(Report(0, 1, 1.0, 100, 90, 0.3, 10.0), 1.0);
  mon.OnReport(Report(1, 1, 1.0, 100, 90, 0.3, 10.0), 1.0);
  PeriodMeasurement m;
  ASSERT_TRUE(mon.Sample(1.0, 2.0, &m));
  EXPECT_DOUBLE_EQ(mon.effective_headroom(), 4 * 0.97);
  EXPECT_TRUE(mon.headroom_changed());

  // Node 1 goes silent; within the stale window it still counts (its
  // missing period contributes zero deltas, not exclusion)...
  for (int k = 2; k <= 4; ++k) {
    const SimTime now = static_cast<SimTime>(k);
    mon.OnReport(
        Report(0, static_cast<uint32_t>(k), now, 100, 90, 0.3, 10.0), now);
    ASSERT_TRUE(mon.Sample(now, 2.0, &m));
    EXPECT_EQ(mon.active_count(), 2) << "k=" << k;
    EXPECT_FALSE(mon.headroom_changed()) << "k=" << k;
  }

  // ...but past stale_periods = 3 the aggregate halves: the plant headroom
  // re-targets and the dead node's load disappears from fin.
  mon.OnReport(Report(0, 5, 5.0, 100, 90, 0.3, 10.0), 5.0);
  ASSERT_TRUE(mon.Sample(5.0, 2.0, &m));
  EXPECT_EQ(mon.active_count(), 1);
  EXPECT_TRUE(mon.headroom_changed());
  EXPECT_DOUBLE_EQ(mon.effective_headroom(), 2 * 0.97);
  EXPECT_DOUBLE_EQ(m.fin, 100.0);

  // Readmission: a fresh report brings it back with at most one period of
  // backlog (earlier buffered deltas were discarded at exclusion).
  mon.OnReport(Report(0, 6, 6.0, 100, 90, 0.3, 10.0), 6.0);
  mon.OnReport(Report(1, 2, 6.0, 400, 400, 1.2, 40.0), 6.0);
  ASSERT_TRUE(mon.Sample(6.0, 2.0, &m));
  EXPECT_EQ(mon.active_count(), 2);
  EXPECT_DOUBLE_EQ(mon.effective_headroom(), 4 * 0.97);
  EXPECT_DOUBLE_EQ(m.fin, 500.0);  // 100 + one period's 400, no spike
}

TEST(ClusterMonitorTest, DelayedReportsAccumulateAcrossBoundary) {
  // With network delay, two of a node's reports can land between two
  // controller boundaries; both periods' counters must enter the fold.
  ClusterMonitor mon(kNominalCost, Opts());
  mon.OnHello(Hello(0, 1), 0.0);
  mon.OnReport(Report(0, 1, 1.0, 100, 90, 0.3, 10.0), 1.0);
  PeriodMeasurement m;
  ASSERT_TRUE(mon.Sample(1.0, 2.0, &m));

  mon.OnReport(Report(0, 2, 2.0, 50, 40, 0.1, 12.0), 2.2);
  mon.OnReport(Report(0, 3, 3.0, 70, 60, 0.2, 14.0), 3.1);
  ASSERT_TRUE(mon.Sample(3.5, 2.0, &m));
  // 120 tuples over the 2.5 s since the last boundary; the queue is the
  // latest reported instantaneous value, not a sum.
  EXPECT_DOUBLE_EQ(m.fin, 120.0 / 2.5);
  EXPECT_DOUBLE_EQ(m.queue, 14.0);
}

TEST(ClusterMonitorTest, SampleAfterIdleTicksSpansSinceLastSample) {
  // Idle controller ticks (no active node) form no measurement, so the
  // next sample's period runs from the last one that did: now - prev, not
  // the nominal T.
  ClusterMonitor mon(kNominalCost, Opts());
  mon.OnHello(Hello(0, 1), 0.0);
  mon.OnReport(Report(0, 1, 1.0, 100, 90, 0.3, 10.0), 1.0);
  PeriodMeasurement m;
  ASSERT_TRUE(mon.Sample(1.0, 2.0, &m));

  // The node falls silent: it stays active through the stale window, and
  // past stale_periods = 3 the tick at 5 is idle.
  for (int k = 2; k <= 4; ++k) {
    ASSERT_TRUE(mon.Sample(static_cast<SimTime>(k), 2.0, &m)) << "k=" << k;
  }
  EXPECT_FALSE(mon.Sample(5.0, 2.0, &m));
  EXPECT_EQ(mon.active_count(), 0);

  mon.OnReport(Report(0, 2, 6.0, 250, 200, 0.5, 12.0), 6.0);
  ASSERT_TRUE(mon.Sample(6.0, 2.0, &m));
  EXPECT_DOUBLE_EQ(m.fin, 250.0 / 2.0);  // over 6 - 4, not T = 1
  EXPECT_DOUBLE_EQ(mon.node_fin()[0], 250.0 / 2.0);
}

// --- Fan-out conservation property (satellite c) ---------------------------

double SumOfSlices(double v, const std::vector<double>& loads) {
  const std::vector<double> shares = ProportionalShares(loads);
  double sum = 0.0;
  for (double s : shares) sum += v * s;
  return sum;
}

TEST(ProportionalSharesProperty, FanOutConservesAggregateCommand) {
  // Property: Σ_i v·share_i == v within far less than one tuple per
  // period, across skewed splits, zero-load plants, and single-hot-node
  // splits. One tuple per period at T = 1 s is an absolute error of 1.0;
  // we require twelve orders of magnitude better (relative 1e-12).
  Rng rng(20060807);
  for (int iter = 0; iter < 5000; ++iter) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<double> loads(static_cast<size_t>(n));
    const int shape = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < n; ++i) {
      switch (shape) {
        case 0:  // uniform-ish
          loads[static_cast<size_t>(i)] = rng.Uniform(0.0, 500.0);
          break;
        case 1:  // heavily skewed magnitudes
          loads[static_cast<size_t>(i)] =
              rng.Uniform(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-3, 5));
          break;
        case 2:  // single hot node
          loads[static_cast<size_t>(i)] = i == 0 ? 1e6 : rng.Uniform(0.0, 1.0);
          break;
        default:  // all idle
          loads[static_cast<size_t>(i)] = 0.0;
          break;
      }
    }
    const double v = rng.Uniform(0.0, 2000.0);
    const double reassembled = SumOfSlices(v, loads);
    EXPECT_NEAR(reassembled, v, 1e-12 * std::max(v, 1.0))
        << "iter " << iter << " shape " << shape << " n " << n;
  }
}

TEST(ProportionalSharesProperty, EdgeCases) {
  // All-zero loads: even split, still conserving.
  EXPECT_DOUBLE_EQ(SumOfSlices(300.0, {0.0, 0.0, 0.0}), 300.0);
  // One node: exactly share 1.0, v passes through bit-for-bit.
  const std::vector<double> one = ProportionalShares({123.456});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 1.0);
  // Hot node takes essentially everything.
  const std::vector<double> hot = ProportionalShares({1e9, 1.0});
  EXPECT_GT(hot[0], 0.999999);
  EXPECT_GT(hot[1], 0.0);
}

}  // namespace
}  // namespace ctrlshed
