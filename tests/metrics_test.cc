#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/qos_metrics.h"
#include "metrics/recorder.h"

namespace ctrlshed {
namespace {

Departure MakeDeparture(double arrival, double depart) {
  Departure d;
  d.arrival_time = arrival;
  d.depart_time = depart;
  return d;
}

TEST(QosAccumulatorTest, NoViolationsBelowTarget) {
  QosAccumulator q(2.0);
  q.OnDeparture(MakeDeparture(0.0, 1.5));
  q.OnDeparture(MakeDeparture(0.0, 2.0));
  EXPECT_DOUBLE_EQ(q.accumulated_violation(), 0.0);
  EXPECT_EQ(q.delayed_tuples(), 0u);
  EXPECT_DOUBLE_EQ(q.max_overshoot(), 0.0);
  EXPECT_EQ(q.departures(), 2u);
}

TEST(QosAccumulatorTest, AccumulatesViolations) {
  QosAccumulator q(2.0);
  q.OnDeparture(MakeDeparture(0.0, 3.0));   // +1.0
  q.OnDeparture(MakeDeparture(0.0, 2.5));   // +0.5
  q.OnDeparture(MakeDeparture(0.0, 1.0));   // ok
  EXPECT_DOUBLE_EQ(q.accumulated_violation(), 1.5);
  EXPECT_EQ(q.delayed_tuples(), 2u);
  EXPECT_DOUBLE_EQ(q.max_overshoot(), 1.0);
}

TEST(QosAccumulatorTest, MeanDelay) {
  QosAccumulator q(2.0);
  q.OnDeparture(MakeDeparture(0.0, 1.0));
  q.OnDeparture(MakeDeparture(1.0, 4.0));
  EXPECT_DOUBLE_EQ(q.mean_delay(), 2.0);
}

TEST(QosAccumulatorTest, EmptyMeanDelayIsZero) {
  QosAccumulator q(2.0);
  EXPECT_DOUBLE_EQ(q.mean_delay(), 0.0);
}

TEST(QosAccumulatorTest, SetpointChangeAppliesToLaterDepartures) {
  QosAccumulator q(2.0);
  q.OnDeparture(MakeDeparture(0.0, 2.5));  // +0.5 against yd = 2
  q.SetTargetDelay(5.0);
  q.OnDeparture(MakeDeparture(0.0, 4.0));  // ok against yd = 5
  EXPECT_DOUBLE_EQ(q.accumulated_violation(), 0.5);
  EXPECT_EQ(q.delayed_tuples(), 1u);
}

TEST(QosAccumulatorDeathTest, NonPositiveTargetAborts) {
  EXPECT_DEATH(QosAccumulator(0.0), "positive");
}

TEST(QosAccumulatorDeathTest, NegativeDelayAborts) {
  QosAccumulator q(2.0);
  EXPECT_DEATH(q.OnDeparture(MakeDeparture(5.0, 1.0)), "negative delay");
}

TEST(RecorderTest, StoresRowsInOrder) {
  Recorder r;
  PeriodMeasurement m;
  m.t = 1.0;
  m.fin = 100.0;
  r.Record(PeriodRecord{m, 90.0, 0.1});
  m.t = 2.0;
  r.Record(PeriodRecord{m, 80.0, 0.2});
  ASSERT_EQ(r.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows()[0].m.t, 1.0);
  EXPECT_DOUBLE_EQ(r.rows()[1].v, 80.0);
  EXPECT_DOUBLE_EQ(r.rows()[1].alpha, 0.2);
}

TEST(RecorderTest, EmptyRecorder) {
  Recorder r;
  EXPECT_TRUE(r.empty());
  std::ostringstream out;
  r.WriteCsv(out);
  // Header only: one line.
  EXPECT_FALSE(out.str().empty());
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);
}

/// A recorder of `n` periods k = 1..n, each with the given fin and y_hat.
Recorder GateRows(int n, double fin, double y_hat) {
  Recorder rec;
  for (int k = 1; k <= n; ++k) {
    PeriodRecord row;
    row.m.k = k;
    row.m.fin = fin;
    row.m.y_hat = y_hat;
    rec.Record(row);
  }
  return rec;
}

TEST(TrackingGateTest, OverloadedPeriodsTrackWithinTwentyPercent) {
  // 12 periods at fin = capacity: k <= 4 skipped, 8 overloaded remain.
  for (const auto& [y_hat, pass] :
       {std::pair{2.0, true}, {2.39, true}, {1.61, true}, {2.41, false},
        {1.59, false}}) {
    const TrackingVerdict v = TrackingGate(GateRows(12, 190.0, y_hat), 2.0,
                                           190.0);
    EXPECT_TRUE(v.tracked());
    EXPECT_EQ(v.overloaded, 8);
    EXPECT_EQ(v.converged, 8);
    EXPECT_DOUBLE_EQ(v.mean_overloaded, y_hat);
    EXPECT_EQ(v.pass, pass) << y_hat;
  }
}

TEST(TrackingGateTest, NeverOverloadedKeepsDelayUnderTheBand) {
  // fin below capacity: the run never overloaded.
  for (const auto& [y_hat, pass] :
       {std::pair{0.5, true}, {2.39, true}, {2.41, false}}) {
    const TrackingVerdict v = TrackingGate(GateRows(12, 100.0, y_hat), 2.0,
                                           190.0);
    EXPECT_FALSE(v.tracked());
    EXPECT_EQ(v.overloaded, 0);
    EXPECT_DOUBLE_EQ(v.mean_converged, y_hat);
    EXPECT_EQ(v.pass, pass) << y_hat;
  }
  // Seven converged periods are too few to judge.
  EXPECT_FALSE(TrackingGate(GateRows(11, 100.0, 0.5), 2.0, 190.0).pass);
}

TEST(TrackingGateTest, TransientPeriodsAreIgnored) {
  // Periods k <= 4 carry a wild delay; only k > 4 count.
  const std::vector<PeriodRecord> rows = GateRows(12, 190.0, 2.0).rows();
  Recorder mixed;
  for (PeriodRecord row : rows) {
    if (row.m.k <= 4) row.m.y_hat = 100.0;
    mixed.Record(row);
  }
  const TrackingVerdict v = TrackingGate(mixed, 2.0, 190.0);
  EXPECT_TRUE(v.pass);
  EXPECT_EQ(v.converged, 8);
  EXPECT_DOUBLE_EQ(v.mean_overloaded, 2.0);
  // With 7 overloaded periods the +/-20% branch does not judge the run.
  mixed = Recorder();
  for (PeriodRecord row : rows) {
    if (row.m.k == 12) row.m.fin = 100.0;
    mixed.Record(row);
  }
  EXPECT_FALSE(TrackingGate(mixed, 2.0, 190.0).tracked());
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

TEST(RecorderCsvTest, HeaderAndDerivedSignals) {
  Recorder r;
  PeriodMeasurement m;
  m.k = 1;
  m.t = 1.0;
  m.period = 1.0;
  m.target_delay = 2.0;
  m.fin = 100.0;
  m.fin_forecast = 105.0;
  m.admitted = 80.0;
  m.fout = 75.0;
  m.queue = 12.0;
  m.cost = 0.005;
  m.y_hat = 1.75;
  m.y_measured = 1.9;
  m.has_y_measured = true;
  r.Record(PeriodRecord{m, 85.0, 0.2, 0.0015});

  std::ostringstream out;
  r.WriteCsv(out);
  std::istringstream lines(out.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(header,
            "k,t,period,yd,fin,fin_forecast,admitted,fout,q,c,y_hat,y_meas,"
            "e,u,v,alpha,loss,lateness,site,queue_shed");

  const std::vector<std::string> cols = SplitCsvLine(header);
  const std::vector<std::string> vals = SplitCsvLine(row);
  ASSERT_EQ(cols.size(), vals.size());
  auto col = [&](const char* name) -> double {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == name) return std::strtod(vals[i].c_str(), nullptr);
    }
    ADD_FAILURE() << "no column " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(col("e"), 2.0 - 1.75);          // yd - y_hat
  EXPECT_DOUBLE_EQ(col("u"), 85.0 - 75.0);         // v - fout
  EXPECT_DOUBLE_EQ(col("loss"), 20.0 / 100.0);     // (fin - admitted)/fin
  EXPECT_DOUBLE_EQ(col("lateness"), 0.0015);
  EXPECT_DOUBLE_EQ(col("y_meas"), 1.9);
}

TEST(RecorderCsvTest, DoublesRoundTripExactly) {
  // %.17g must reproduce the stored doubles bit-for-bit through strtod,
  // independent of locale (no thousands separators, '.' decimal point).
  Recorder r;
  PeriodMeasurement m;
  m.k = 1;
  m.t = 1.0 / 3.0;
  m.period = 0.1;  // not representable in binary
  m.target_delay = 2.0;
  m.fin = 12345.6789012345678;
  m.y_hat = 1e-17;
  m.has_y_measured = false;
  r.Record(PeriodRecord{m, 1.0 / 7.0, 0.123456789012345678});

  std::ostringstream out;
  r.WriteCsv(out);
  std::istringstream lines(out.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  const std::vector<std::string> cols = SplitCsvLine(header);
  const std::vector<std::string> vals = SplitCsvLine(row);
  ASSERT_EQ(cols.size(), vals.size());
  auto raw = [&](const char* name) -> std::string {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == name) return vals[i];
    }
    ADD_FAILURE() << "no column " << name;
    return "";
  };
  EXPECT_EQ(std::strtod(raw("t").c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(std::strtod(raw("period").c_str(), nullptr), 0.1);
  EXPECT_EQ(std::strtod(raw("fin").c_str(), nullptr), 12345.6789012345678);
  EXPECT_EQ(std::strtod(raw("y_hat").c_str(), nullptr), 1e-17);
  EXPECT_EQ(std::strtod(raw("v").c_str(), nullptr), 1.0 / 7.0);
  EXPECT_EQ(std::strtod(raw("alpha").c_str(), nullptr), 0.123456789012345678);
  // Periods with no departures export y_meas as nan (strtod-parseable).
  EXPECT_TRUE(std::isnan(std::strtod(raw("y_meas").c_str(), nullptr)));
  // Locale independence: no comma can appear inside a number, so the
  // field count already proves it; also assert no spaces leak in.
  EXPECT_EQ(row.find(' '), std::string::npos);
}

}  // namespace
}  // namespace ctrlshed
