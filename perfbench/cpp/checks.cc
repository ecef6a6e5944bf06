#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
std::string Format(const char* fmt, unsigned long long a, unsigned long long b,
                   unsigned long long c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}
}  // namespace

std::string CheckConservation(const TupleAccounting& a) {
  if (a.generated != a.offered + a.never_offered) {
    return Format("generated %llu != offered %llu + never offered %llu",
                  a.generated, a.offered, a.never_offered);
  }
  const uint64_t accounted =
      a.departed + a.entry_shed + a.ring_dropped + a.queue_shed;
  if (accounted > a.offered) {
    return Format(
        "departed + shed = %llu exceeds offered %llu (in-flight bound %llu)",
        accounted, a.offered, a.in_flight_bound);
  }
  if (a.offered - accounted > a.in_flight_bound) {
    return Format("%llu tuples unaccounted for (offered %llu, bound %llu)",
                  a.offered - accounted, a.offered, a.in_flight_bound);
  }
  return "";
}

double LossRatio(const TupleAccounting& a) {
  if (a.offered == 0) return 0.0;
  return static_cast<double>(a.entry_shed + a.ring_dropped + a.queue_shed) /
         static_cast<double>(a.offered);
}

uint64_t FailedTuples(const TupleAccounting& a) {
  return a.ring_dropped + a.never_offered;
}

double FailedRatio(const TupleAccounting& a) {
  if (a.generated == 0) return 0.0;
  return static_cast<double>(FailedTuples(a)) /
         static_cast<double>(a.generated);
}

std::string CheckPeriodInvariants(const std::vector<PeriodSignals>& periods) {
  // The threaded runtimes record alpha as a share-weighted sum of the
  // shards' drop probabilities, which rounds to 1 + 1 ulp when every shard
  // drops everything; rounding is not a broken invariant.
  constexpr double kRounding = 1e-9;
  char buf[256];
  for (const PeriodSignals& p : periods) {
    const char* broken = nullptr;
    if (!std::isfinite(p.q) || p.q < -kRounding) {
      broken = "q >= 0";
    } else if (!(p.alpha >= -kRounding && p.alpha <= 1.0 + kRounding)) {
      broken = "0 <= alpha <= 1";
    } else if (!std::isfinite(p.y_hat)) {
      broken = "finite y_hat";
    } else if (!std::isfinite(p.v)) {
      broken = "finite v";
    }
    if (broken != nullptr) {
      std::snprintf(buf, sizeof(buf),
                    "period %d breaks %s (q=%g alpha=%g y_hat=%g v=%g)", p.k,
                    broken, p.q, p.alpha, p.y_hat, p.v);
      return buf;
    }
  }
  return "";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

DelayHistogram::DelayHistogram(double bin_seconds, double max_seconds)
    : bin_seconds_(bin_seconds),
      bins_(static_cast<size_t>(std::ceil(max_seconds / bin_seconds)), 0) {}

void DelayHistogram::Record(double seconds) {
  if (!std::isfinite(seconds) || seconds < 0.0) {
    ++invalid_;
    return;
  }
  ++count_;
  sum_ += seconds;
  max_ = std::max(max_, seconds);
  const double pos = seconds / bin_seconds_;
  if (pos >= static_cast<double>(bins_.size())) {
    ++overflow_;
    return;
  }
  ++bins_[static_cast<size_t>(pos)];
}

void DelayHistogram::Merge(const DelayHistogram& other) {
  for (size_t i = 0; i < bins_.size() && i < other.bins_.size(); ++i) {
    bins_[i] += other.bins_[i];
  }
  count_ += other.count_;
  overflow_ += other.overflow_;
  invalid_ += other.invalid_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double DelayHistogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double DelayHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The rank of the q-th value among count_ sorted values, as a continuous
  // position; values inside a bin are taken as evenly spread over it.
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    const double n = static_cast<double>(bins_[i]);
    if (n > 0.0 && seen + n >= rank) {
      const double frac = (rank - seen) / n;
      return (static_cast<double>(i) + frac) * bin_seconds_;
    }
    seen += n;
  }
  return max_;  // the quantile lies in the overflow tail
}

}  // namespace perfbench
