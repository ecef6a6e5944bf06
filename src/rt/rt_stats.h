#ifndef CTRLSHED_RT_RT_STATS_H_
#define CTRLSHED_RT_RT_STATS_H_

#include <atomic>
#include <cstdint>

#include "common/sim_time.h"
#include "control/actuation_plan.h"

namespace ctrlshed {

/// One coherent-enough snapshot of the shared counters, taken by the
/// monitor thread at a period boundary. Plain values: everything the
/// RtMonitor needs to form one period's measurement (the sim fills the
/// same snapshot from its engine; see EngineSample).
struct RtSample {
  SimTime now = 0.0;  ///< Trace time the snapshot was taken at.

  // Ingress side (cumulative).
  uint64_t offered = 0;       ///< Tuples offered by the sources.
  uint64_t entry_shed = 0;    ///< Dropped by the entry shedder.
  uint64_t ring_dropped = 0;  ///< Rejected by a full ingress ring.

  // Engine side (cumulative mirrors of EngineCounters + queue state).
  uint64_t admitted = 0;
  uint64_t departed = 0;
  /// In-network drops: lineages removed from operator queues (mirror of the
  /// engine's shed_lineages counter). One scheme repo-wide: entry_shed /
  /// ring_dropped / queue_shed — see docs/architecture.md "Shed accounting".
  uint64_t queue_shed = 0;
  double queue_shed_load = 0.0;  ///< Same, in base-load seconds.
  double busy_seconds = 0.0;
  double drained_base_load = 0.0;
  uint64_t queued_tuples = 0;
  double outstanding_base_load = 0.0;

  // Departure-delay accumulation (cumulative; the monitor takes deltas).
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
};

/// The cross-thread observation surface of the real-time runtime: every
/// field is a monotonic cumulative counter in a std::atomic.
///
/// Writers: the ingress counters are bumped with relaxed fetch_add by the
/// source threads (there may be several); the engine counters are written
/// by the single RtEngine worker thread, which republishes them after
/// every pump. Readers (the monitor thread, tests) load with relaxed
/// order: each field is individually race-free, and the slight skew
/// *between* fields within one snapshot is bounded by one pump interval —
/// the same imprecision a real engine's profiler sampling has, and far
/// below the control period it feeds.
///
/// The doubles rely on std::atomic<double> loads/stores (lock-free on the
/// platforms we target); fetch_add on doubles is avoided so C++17-era
/// toolchains under sanitizers stay happy — the single-writer fields use
/// plain store, and multi-writer fields are integers.
struct RtSharedStats {
  // Ingress side: any source thread, fetch_add relaxed.
  std::atomic<uint64_t> offered{0};
  std::atomic<uint64_t> entry_shed{0};
  std::atomic<uint64_t> ring_dropped{0};

  // Engine side: single writer (the worker), store relaxed.
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> departed{0};
  std::atomic<uint64_t> queue_shed{0};
  std::atomic<double> queue_shed_load{0.0};
  std::atomic<double> busy_seconds{0.0};
  std::atomic<double> drained_base_load{0.0};
  std::atomic<uint64_t> queued_tuples{0};
  std::atomic<double> outstanding_base_load{0.0};
  std::atomic<double> delay_sum{0.0};
  std::atomic<uint64_t> delay_count{0};

  // --- Actuation-plan handshake (controller -> worker) ------------------
  //
  // The in-network shed budget crosses the period boundary here instead of
  // through any cross-thread queue access: the controller thread stores the
  // payload fields with relaxed order, then release-stores plan_seq; the
  // worker acquire-loads plan_seq inside its pump and, on a new sequence,
  // reads the payload and replaces its remaining budget (an unspent budget
  // expires at the next period boundary — it does not accumulate). The
  // worker alone touches operator queues.
  std::atomic<uint64_t> plan_seq{0};
  std::atomic<double> plan_queue_budget{0.0};  ///< Base-load seconds to shed.
  std::atomic<uint32_t> plan_cost_aware{0};    ///< Victim policy (bool).

  /// Posts `plan`'s in-network budget as handshake number `seq` (one
  /// controlling thread at a time; sequences must grow).
  void PostPlan(const ActuationPlan& plan, uint64_t seq) {
    plan_queue_budget.store(plan.queue_budget_load, std::memory_order_relaxed);
    plan_cost_aware.store(plan.cost_aware ? 1 : 0, std::memory_order_relaxed);
    plan_seq.store(seq, std::memory_order_release);
  }

  /// Takes a snapshot of all counters at `now`.
  ///
  /// Skew bound: the loads are not one atomic transaction, so a snapshot
  /// taken mid-pump can mix ingress counters that a source just bumped
  /// with engine mirrors from the previous Publish — the engine-side
  /// fields lag the ingress side by at most one pump interval (and each
  /// other by nothing: Publish writes them back-to-back between pumps).
  /// Two guarantees follow, and the telemetry exporter depends on them:
  ///
  ///  1. Every field is individually monotonic non-decreasing across
  ///     successive snapshots (each is a cumulative counter with relaxed
  ///     but per-field-ordered atomics), so per-period deltas of any one
  ///     field are never negative.
  ///  2. Cross-field invariants (e.g. admitted <= offered - entry_shed)
  ///     may be transiently violated within a snapshot, but only by the
  ///     tuples of a single in-flight pump — far below the control period
  ///     the samples feed.
  ///
  /// rt_stats_test.cc locks both in with a fake-clock sequence and a
  /// concurrent stress run.
  RtSample Snapshot(SimTime now) const {
    RtSample s;
    s.now = now;
    s.offered = offered.load(std::memory_order_relaxed);
    s.entry_shed = entry_shed.load(std::memory_order_relaxed);
    s.ring_dropped = ring_dropped.load(std::memory_order_relaxed);
    s.admitted = admitted.load(std::memory_order_relaxed);
    s.departed = departed.load(std::memory_order_relaxed);
    s.queue_shed = queue_shed.load(std::memory_order_relaxed);
    s.queue_shed_load = queue_shed_load.load(std::memory_order_relaxed);
    s.busy_seconds = busy_seconds.load(std::memory_order_relaxed);
    s.drained_base_load = drained_base_load.load(std::memory_order_relaxed);
    s.queued_tuples = queued_tuples.load(std::memory_order_relaxed);
    s.outstanding_base_load =
        outstanding_base_load.load(std::memory_order_relaxed);
    s.delay_sum = delay_sum.load(std::memory_order_relaxed);
    s.delay_count = delay_count.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_STATS_H_
