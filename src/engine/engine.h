#ifndef CTRLSHED_ENGINE_ENGINE_H_
#define CTRLSHED_ENGINE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include <memory>

#include "common/rng.h"
#include "common/sim_time.h"
#include "engine/lineage_table.h"
#include "engine/query_network.h"
#include "engine/scheduler.h"
#include "engine/tuple.h"
#include "engine/tuple_queue.h"
#include "sim/simulation.h"

namespace ctrlshed {

/// Time-varying multiplier applied to every operator's nominal cost. The
/// paper simulates per-tuple cost variations (Fig. 14) by changing the
/// effective processing cost over time; a multiplier of 1 keeps nominal
/// costs.
using CostMultiplierFn = std::function<double(SimTime)>;

/// How a tuple's lineage left the query network.
enum class DepartureKind {
  kOutput,    ///< Reached a sink (operator without downstream that emitted).
  kFiltered,  ///< Discarded by query semantics (filter predicate, absorbed
              ///< into a window, or no join match) — still a normal
              ///< departure in the paper's delay definition.
};

/// Per-departure record delivered to the departure callback.
struct Departure {
  SimTime arrival_time = 0.0;
  SimTime depart_time = 0.0;
  int source = 0;
  DepartureKind kind = DepartureKind::kOutput;
  bool derived = false;  ///< Lineage born inside the network (aggregate/join output).
};

using DepartureCallback = std::function<void(const Departure&)>;

/// Per-invocation observer hooks, the seam the telemetry layer plugs into
/// without the engine linking against it (telemetry already depends on the
/// engine). All callbacks run on the engine's thread, inline in the pump —
/// implementations must be cheap and must never block.
///
/// Calling convention: the engine emits OnInvocationStart once per *batch*
/// (a run of up to quantum back-to-back invocations of one operator; the
/// default quantum of 1 makes a batch a single invocation) followed by one
/// OnInvocationBatch when the run ends. Observers that only care about
/// per-invocation granularity can override OnInvocationEnd and rely on the
/// default OnInvocationBatch fan-out.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// A batch of invocations of `op` is about to run (front of its queue).
  virtual void OnInvocationStart(const OperatorBase& op) = 0;
  /// One invocation finished; `cost_seconds` is the effective CPU cost
  /// charged (nominal cost x multiplier). Only called via the default
  /// OnInvocationBatch fan-out.
  virtual void OnInvocationEnd(const OperatorBase& op, double cost_seconds) {
    (void)op;
    (void)cost_seconds;
  }
  /// A batch of `n` invocations of `op` finished, charging `cost_seconds`
  /// of total effective CPU cost. Default: fan out to OnInvocationEnd with
  /// the mean per-invocation cost (exact at n == 1, the seed path).
  virtual void OnInvocationBatch(const OperatorBase& op, uint64_t n,
                                 double cost_seconds) {
    for (uint64_t i = 0; i < n; ++i) {
      OnInvocationEnd(op, cost_seconds / static_cast<double>(n));
    }
  }
  /// In-network shedding dropped one queued tuple from `op`'s queue.
  virtual void OnQueueDrop(const OperatorBase& op) = 0;
};

/// Monotonic counters exposed to the monitor. All "lineage" counters count
/// source tuples (or derived tuples) once, however many copies branched
/// paths create.
struct EngineCounters {
  uint64_t admitted = 0;         ///< Source tuples accepted into the network.
  uint64_t departed = 0;         ///< Lineages fully departed (output or filtered).
  uint64_t shed_lineages = 0;    ///< Lineages removed by in-network shedding.
  uint64_t invocations = 0;      ///< Operator executions performed.
  double busy_seconds = 0.0;     ///< Cumulative CPU work (cost x multiplier).
  double drained_base_load = 0.0;  ///< Cumulative static load removed from queues.
  double shed_base_load = 0.0;     ///< Static load removed by in-network shedding.
};

/// The virtual queue length q of the paper's model (Eq. 2): outstanding
/// static load in entry-tuple equivalents. An empty queue reads exactly 0,
/// since the incremental +/- bookkeeping of the outstanding load can leave
/// ~1e-16 residue at empty. Engine::VirtualQueueLength and RtMonitor, which
/// rebuilds q from shard snapshots, share this one definition.
inline double VirtualQueueFromLoad(uint64_t queued_tuples,
                                   double outstanding_base_load,
                                   double nominal_entry_cost) {
  if (queued_tuples == 0) return 0.0;
  return std::max(0.0, outstanding_base_load / nominal_entry_cost);
}

/// The Borealis-like query engine: the *plant* of the control loop.
///
/// The engine runs on the simulation's virtual clock as an attached
/// Process. A fraction `headroom` of the CPU is available for query
/// processing (the paper's H); executing an operator with effective cost c
/// occupies c / H of virtual wall time. Scheduling is round-robin over
/// operators with non-empty queues, FIFO within each queue, no tuple
/// priorities — exactly the policy the paper models. With a scheduler
/// quantum > 1 the engine drains up to that many invocations per operator
/// visit (Aurora-style train scheduling) before re-selecting; the default
/// quantum of 1 reproduces the paper's policy bit-for-bit.
///
/// Service is non-preemptive: an invocation that starts before an event
/// timestamp may finish slightly after it, as on a real engine.
///
/// Allocation discipline: operator queues are pooled TupleQueues backed by
/// the engine's chunk pool and lineages live in a slab table, so steady
/// state (queue depths at or below their high-water mark) performs zero
/// heap allocations on the inject/execute path.
class Engine : public Process {
 public:
  /// `network` must be finalized and outlive the engine. `headroom` is the
  /// TRUE fraction of CPU the engine gets (controllers carry their own,
  /// possibly wrong, estimate of it). `scheduler` defaults to Borealis'
  /// round-robin policy when null. The constructor binds the network's
  /// operator queues to this engine's chunk pool; at most one live Engine
  /// per network.
  Engine(QueryNetwork* network, double headroom,
         std::unique_ptr<SchedulerPolicy> scheduler = nullptr);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs the time-varying cost multiplier (default: constant 1).
  void SetCostMultiplier(CostMultiplierFn fn) { cost_multiplier_ = std::move(fn); }

  /// Installs the per-departure observer.
  void SetDepartureCallback(DepartureCallback cb) { on_departure_ = std::move(cb); }

  /// Installs the per-invocation observer (null to remove). Not owned;
  /// must outlive the engine's use of it.
  void SetObserver(EngineObserver* observer) { observer_ = observer; }

  /// Enables/disables the columnar fast path (default on). The columnar
  /// executor is engaged per batch when the scheduler quantum is at least
  /// kColumnarMinQuantum and the operator is vectorizable; it replicates
  /// the row path's floating-point operation order exactly, so results
  /// (clocks, counters, departures) are bit-identical either way — the
  /// differential tests assert this by toggling the switch.
  void SetColumnarEnabled(bool enabled) { columnar_enabled_ = enabled; }
  bool columnar_enabled() const { return columnar_enabled_; }

  /// Quantum below which the columnar path stays off: mask/compaction
  /// setup only pays for itself on runs of a few tuples or more, and the
  /// seed's quantum-1 configuration must keep its row-path performance.
  static constexpr size_t kColumnarMinQuantum = 4;

  /// Admits one source tuple into the network at time `now` (>= the
  /// engine's current clock position is not required; arrival timestamps
  /// come from the simulation). `t.source` selects the entry operators.
  void Inject(Tuple t, SimTime now);

  /// Admits `n` tuples, advancing the engine to each tuple's arrival time
  /// before injecting it — the arrival-ordered replay loop the rt pump
  /// runs, as one call. `tuples` must be sorted by arrival_time.
  void InjectBatch(const Tuple* tuples, size_t n);

  /// Process (continuous work) interface: executes queued operator
  /// invocations until the virtual CPU reaches `t` or all queues are empty.
  void AdvanceTo(SimTime t) override;

  /// Victim-queue selection policy for in-network shedding.
  enum class QueueVictimPolicy {
    kRandom,      ///< The paper's shedder: random locations.
    kMostCostly,  ///< LSRM-flavored: drop where each tuple frees the most
                  ///< remaining load (fewest tuples lost per load shed).
  };

  /// Removes queued tuples from non-empty operator queues (newest first
  /// within the victim queue) until at least `target_base_load` seconds of
  /// static load have been removed or the network is empty. Returns the
  /// load actually removed. This is the in-network shedding actuator of
  /// Section 4.5.2.
  double ShedFromQueues(double target_base_load, Rng& rng,
                        QueueVictimPolicy policy = QueueVictimPolicy::kRandom);

  // --- Observation interface (the paper's monitor reads these) -----------

  const EngineCounters& counters() const { return counters_; }

  /// Total tuples currently sitting in operator queues.
  uint64_t QueuedTuples() const { return queued_tuples_; }

  /// Outstanding static load: sum over queued tuples of their expected
  /// remaining cost at nominal operator costs (seconds).
  double OutstandingBaseLoad() const { return outstanding_base_load_; }

  /// Outstanding load expressed in entry-tuple equivalents — the "virtual
  /// queue length" q of the paper's model (Eq. 2).
  double VirtualQueueLength() const;

  /// Expected per-tuple cost at nominal operator costs (model constant c).
  double NominalEntryCost() const { return nominal_entry_cost_; }

  /// Effective cost multiplier at time t.
  double CostMultiplierAt(SimTime t) const;

  /// Position of the engine's virtual CPU clock.
  SimTime cpu_clock() const { return clock_; }

  double headroom() const { return headroom_; }

  const QueryNetwork& network() const { return *network_; }
  const SchedulerPolicy& scheduler() const { return *scheduler_; }
  SchedulerPolicy& scheduler() { return *scheduler_; }

  /// The engine's chunk pool (benchmarks assert its high-water mark
  /// stabilizes — zero steady-state allocations).
  const TupleChunkPool& chunk_pool() const { return chunk_pool_; }

 private:
  /// Executes up to `quantum` back-to-back invocations of `op`, stopping
  /// early when its queue drains or the virtual clock reaches `limit`.
  /// At quantum == 1 this is exactly the seed's single-invocation step,
  /// including floating-point operation order.
  void ExecuteBatch(OperatorBase* op, size_t quantum, SimTime limit);

  /// True when `op` can run on the columnar executor at this quantum.
  bool CanRunColumnar(const OperatorBase& op, size_t quantum) const;

  /// Whole-run columnar twin of ExecuteBatch (engine/columnar.cc):
  /// vectorized predicate masks and lane compaction around a scalar
  /// bookkeeping loop that preserves the row path's FP operation order.
  void ExecuteBatchColumnar(OperatorBase* op, size_t quantum, SimTime limit);

  /// Decrements the lineage refcount; fires the departure callback when the
  /// lineage is gone (unless it was shed).
  void ReleaseLineage(const Tuple& t, SimTime depart_time, DepartureKind kind,
                      bool shed);

  QueryNetwork* network_;
  double headroom_;
  std::unique_ptr<SchedulerPolicy> scheduler_;
  CostMultiplierFn cost_multiplier_;
  DepartureCallback on_departure_;
  EngineObserver* observer_ = nullptr;

  SimTime clock_ = 0.0;

  uint64_t queued_tuples_ = 0;
  double outstanding_base_load_ = 0.0;
  double nominal_entry_cost_ = 0.0;
  LineageTable lineages_;
  TupleChunkPool chunk_pool_;

  EngineCounters counters_;

  // --- Columnar executor state (engine/columnar.cc) ----------------------
  bool columnar_enabled_ = true;
  /// Per-run predicate mask and survivor-compaction staging, sized to one
  /// chunk (a run never spans chunks). Engine-owned so the hot path never
  /// touches the stack red zone or the allocator.
  struct ColumnarScratch {
    alignas(64) uint8_t mask[TupleChunk::kTuples];
    alignas(64) double value[TupleChunk::kTuples];
    alignas(64) double aux[TupleChunk::kTuples];
    alignas(64) SimTime arrival_time[TupleChunk::kTuples];
    alignas(64) LineageId lineage[TupleChunk::kTuples];
    alignas(64) int32_t source[TupleChunk::kTuples];
  };
  ColumnarScratch scratch_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_ENGINE_ENGINE_H_
