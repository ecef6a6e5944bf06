// Output checks and statistics of the end-to-end benchmark. Plain data in,
// verdicts out, so the unit tests can drive every rule with hand-built
// inputs (tests/checks_test.cc).

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Where every tuple of a run went. `generated` counts the tuples the
/// workload's generator produced inside the measured window; `offered`
/// counts the tuples the system under test saw at its entry gate.
struct TupleAccounting {
  uint64_t generated = 0;
  uint64_t offered = 0;
  /// Generated but never offered: tuples in rejected frames and tuples
  /// sent but never read before the node stopped.
  uint64_t never_offered = 0;
  uint64_t departed = 0;
  uint64_t entry_shed = 0;
  uint64_t ring_dropped = 0;
  uint64_t queue_shed = 0;
  /// Largest number of tuples that may still be inside the system when it
  /// stops (queued lineages plus ring contents); the residual offered -
  /// (departed + shed) must fall in [0, in_flight_bound].
  uint64_t in_flight_bound = 0;
};

/// Empty when the accounting balances:
///   generated == offered + never_offered, and
///   offered == departed + entry_shed + ring_dropped + queue_shed + in flight
/// with 0 <= in flight <= in_flight_bound. Otherwise a message naming the
/// broken identity.
std::string CheckConservation(const TupleAccounting& a);

/// The paper's data-loss ratio: (entry_shed + ring_dropped + queue_shed) /
/// offered (0 when nothing was offered).
double LossRatio(const TupleAccounting& a);

/// Involuntary loss over tuples generated: ring drops plus tuples generated
/// but never offered (rejected frames, sent but never read). 0 when nothing
/// was generated.
double FailedRatio(const TupleAccounting& a);
uint64_t FailedTuples(const TupleAccounting& a);

/// The control signals of one recorded period.
struct PeriodSignals {
  int k = 0;
  double q = 0.0;
  double alpha = 0.0;
  double y_hat = 0.0;
  double v = 0.0;
};

/// Empty when every period satisfies q >= 0, 0 <= alpha <= 1 (both up to
/// a rounding of 1e-9), and finite y_hat and v; otherwise a message naming
/// the first violation.
std::string CheckPeriodInvariants(const std::vector<PeriodSignals>& periods);

/// Linear-interpolation quantile (the "type 7" rule numpy and R use by
/// default) of `values`, q in [0, 1]. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Fixed-width delay histogram: `bin_seconds`-wide bins from 0 to
/// `max_seconds`, plus an overflow count. Quantiles interpolate linearly
/// inside the bin, so the resolution is the bin width — 0.5 ms by default,
/// far finer than any bound on a delay percentile of about a second. The
/// mean is exact. Record() does not allocate.
class DelayHistogram {
 public:
  explicit DelayHistogram(double bin_seconds = 5e-4, double max_seconds = 60.0);

  void Record(double seconds);
  void Merge(const DelayHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t overflow() const { return overflow_; }
  /// Negative or non-finite delays (a broken clock or accounting).
  uint64_t invalid() const { return invalid_; }
  double Mean() const;
  double Quantile(double q) const;

 private:
  double bin_seconds_;
  std::vector<uint64_t> bins_;
  uint64_t count_ = 0;
  uint64_t overflow_ = 0;
  uint64_t invalid_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
