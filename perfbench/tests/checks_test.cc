// Unit tests of the benchmark's output checks and statistics, on
// hand-built inputs. Exit code 0 when every expectation holds.
//
//   .bench_build/perfbench_test

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

using perfbench::CheckConservation;
using perfbench::CheckPeriodInvariants;
using perfbench::DelayHistogram;
using perfbench::PeriodSignals;
using perfbench::TupleAccounting;

TupleAccounting Balanced() {
  TupleAccounting a;
  a.generated = 1000;
  a.offered = 990;
  a.never_offered = 10;
  a.departed = 600;
  a.entry_shed = 300;
  a.ring_dropped = 20;
  a.queue_shed = 30;
  a.in_flight_bound = 50;  // 40 tuples are still in flight
  return a;
}

void TestConservation() {
  EXPECT(CheckConservation(Balanced()).empty());

  TupleAccounting lost_at_generator = Balanced();
  lost_at_generator.never_offered = 9;  // one generated tuple vanished
  EXPECT(!CheckConservation(lost_at_generator).empty());

  TupleAccounting too_many_out = Balanced();
  too_many_out.departed = 700;  // departed + shed exceeds offered
  EXPECT(!CheckConservation(too_many_out).empty());

  TupleAccounting leak = Balanced();
  leak.in_flight_bound = 39;  // 40 unaccounted tuples but room for 39
  EXPECT(!CheckConservation(leak).empty());

  TupleAccounting exact = Balanced();
  exact.in_flight_bound = 40;
  EXPECT(CheckConservation(exact).empty());

  EXPECT(Near(perfbench::LossRatio(Balanced()), 350.0 / 990.0));
  EXPECT(perfbench::LossRatio(TupleAccounting{}) == 0.0);
}

void TestFailedRatio() {
  // Ring drops and never-offered tuples are involuntary; entry and queue
  // shedding are the controller's choice and do not count.
  EXPECT(perfbench::FailedTuples(Balanced()) == 30);
  EXPECT(Near(perfbench::FailedRatio(Balanced()), 30.0 / 1000.0));

  TupleAccounting clean = Balanced();
  clean.ring_dropped = 0;
  clean.never_offered = 0;
  clean.offered = 1000;
  EXPECT(perfbench::FailedRatio(clean) == 0.0);
  EXPECT(perfbench::FailedRatio(TupleAccounting{}) == 0.0);
}

void TestInvariants() {
  std::vector<PeriodSignals> ok = {{1, 0.0, 0.0, 0.01, 10.0},
                                   {2, 5.0, 1.0, 2.0, -3.0},
                                   {3, 1e6, 0.5, 40.0, 0.0},
                                   // 1 + 1 ulp: a rounded weighted sum
                                   {4, 0.0, 1.0000000000000002, 1.0, 1.0}};
  EXPECT(CheckPeriodInvariants(ok).empty());
  EXPECT(CheckPeriodInvariants({}).empty());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<PeriodSignals>> bad = {
      {{1, -0.5, 0.0, 1.0, 1.0}},   // negative virtual queue
      {{1, nan, 0.0, 1.0, 1.0}},    // non-finite queue
      {{1, 0.0, -0.01, 1.0, 1.0}},  // alpha below 0
      {{1, 0.0, 1.01, 1.0, 1.0}},   // alpha above 1
      {{1, 0.0, nan, 1.0, 1.0}},    // alpha NaN
      {{1, 0.0, 0.0, inf, 1.0}},    // y_hat not finite
      {{1, 0.0, 0.0, 1.0, nan}},    // v not finite
  };
  for (const auto& periods : bad) EXPECT(!CheckPeriodInvariants(periods).empty());

  std::vector<PeriodSignals> late = ok;
  late.push_back({5, 0.0, 2.0, 1.0, 1.0});
  const std::string msg = CheckPeriodInvariants(late);
  EXPECT(msg.find("period 5") != std::string::npos);
}

void TestQuantile() {
  // Type-7 linear interpolation, as numpy.quantile's default.
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT(Near(perfbench::Quantile(v, 0.0), 1.0));
  EXPECT(Near(perfbench::Quantile(v, 1.0), 4.0));
  EXPECT(Near(perfbench::Quantile(v, 0.5), 2.5));
  EXPECT(Near(perfbench::Quantile(v, 0.25), 1.75));
  EXPECT(Near(perfbench::Quantile(v, 0.99), 3.97));
  EXPECT(Near(perfbench::Median({7.0}), 7.0));
  EXPECT(Near(perfbench::Median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(perfbench::Quantile({}, 0.5) == 0.0);
}

void TestDelayHistogram() {
  // 1..1000 ms uniformly: p50 = 0.5 s, p99 = 0.99 s, to the 0.5 ms bin.
  DelayHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1e-3);
  EXPECT(h.count() == 1000);
  EXPECT(Near(h.Mean(), 0.5005, 1e-12));
  EXPECT(std::fabs(h.Quantile(0.5) - 0.5) <= 1e-3);  // one bin either way
  EXPECT(std::fabs(h.Quantile(0.99) - 0.99) <= 1e-3);
  EXPECT(h.Quantile(0.99) <= h.Quantile(0.999));

  // One delay far above the rest moves p99 only when it is in the top 1%.
  DelayHistogram tail;
  for (int i = 0; i < 99; ++i) tail.Record(2.0);
  tail.Record(30.0);
  EXPECT(std::fabs(tail.Quantile(0.5) - 2.0) <= 5e-4);
  EXPECT(tail.Quantile(1.0) >= 29.9995);

  // Overflow past the range, invalid values, and merging.
  DelayHistogram small(1e-3, 1.0);
  small.Record(5.0);
  small.Record(-1.0);
  small.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT(small.count() == 1 && small.overflow() == 1 && small.invalid() == 2);
  EXPECT(Near(small.Quantile(0.5), 5.0));  // reported as the max seen
  DelayHistogram a, b;
  a.Record(1.0);
  b.Record(3.0);
  a.Merge(b);
  EXPECT(a.count() == 2 && Near(a.Mean(), 2.0));
  EXPECT(DelayHistogram().Quantile(0.99) == 0.0);
}

}  // namespace

int main() {
  TestConservation();
  TestFailedRatio();
  TestInvariants();
  TestQuantile();
  TestDelayHistogram();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
