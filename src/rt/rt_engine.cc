#include "rt/rt_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "rt/cpu_affinity.h"
#include "telemetry/op_telemetry.h"

namespace ctrlshed {

RtEngine::RtEngine(QueryNetwork* network, const RtClock* clock,
                   int num_sources, RtEngineOptions options)
    : clock_(clock),
      options_(options),
      engine_(network, options.headroom),
      nominal_entry_cost_(engine_.NominalEntryCost()),
      shed_rng_(options.queue_shed_seed) {
  CS_CHECK(clock_ != nullptr);
  CS_CHECK_MSG(num_sources >= 1, "need at least one source");
  CS_CHECK_MSG(options_.pacing_wall_seconds > 0.0,
               "pacing must be positive");
  CS_CHECK_MSG(options_.batch >= 1 && options_.batch <= 4096,
               "batch must be in [1, 4096]");
  engine_.scheduler().set_quantum(options_.batch);
  if (options_.cost_multiplier) {
    engine_.SetCostMultiplier(options_.cost_multiplier);
  }
  rings_.reserve(static_cast<size_t>(num_sources));
  for (int i = 0; i < num_sources; ++i) {
    rings_.push_back(std::make_unique<SpscRing<Tuple>>(options_.ring_capacity));
  }
  holdover_.resize(static_cast<size_t>(num_sources));
  run_bounds_.reserve(static_cast<size_t>(num_sources));
  run_cursor_.reserve(static_cast<size_t>(num_sources));
  scratch_.resize(options_.batch);
  engine_.SetDepartureCallback([this](const Departure& d) {
    delay_sum_local_ += d.depart_time - d.arrival_time;
    ++delay_count_local_;
    if (on_departure_) on_departure_(d);
  });
}

RtEngine::~RtEngine() { Stop(); }

void RtEngine::SetDepartureCallback(DepartureCallback cb) {
  CS_CHECK_MSG(!started_, "departure callback must be set before Start");
  on_departure_ = std::move(cb);
}

void RtEngine::Start() {
  CS_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void RtEngine::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (worker_.joinable()) worker_.join();
}

size_t RtEngine::OfferBatch(const Tuple* tuples, size_t n) {
  if (n == 0) return 0;
  const int source = tuples[0].source;
  CS_CHECK_MSG(source >= 0 && source < num_sources(),
               "tuple source out of range");
  const size_t pushed =
      rings_[static_cast<size_t>(source)]->TryPushBatch(tuples, n);
  if (pushed < n) {
    stats_.ring_dropped.fetch_add(n - pushed, std::memory_order_relaxed);
  }
  return pushed;
}

void RtEngine::Pump(SimTime now) {
  // Collect the due tuples (arrival <= now). Each ring is FIFO with
  // non-decreasing arrival times, so a not-yet-due tuple ends that ring's
  // drain; popped-but-not-due tuples park in the ring's holdover FIFO
  // until their time comes (sources can deliver a hair early through
  // wall-deadline truncation, and a batch pop can overshoot the due
  // prefix). The per-ring drain is bounded so a producer refilling
  // concurrently cannot pin us.
  pending_.clear();
  run_bounds_.clear();
  for (size_t i = 0; i < rings_.size(); ++i) {
    const size_t run_start = pending_.size();
    Holdover& held = holdover_[i];
    while (!held.empty() && held.buf[held.head].arrival_time <= now) {
      pending_.push_back(held.buf[held.head++]);
    }
    if (held.empty()) {
      held.buf.clear();
      held.head = 0;
      // Ring order is arrival order, so stop at the first not-due tuple.
      bool parked = false;
      size_t budget = rings_[i]->capacity();
      while (budget > 0 && !parked) {
        const size_t want = budget < options_.batch ? budget : options_.batch;
        const size_t got = rings_[i]->TryPopBatch(scratch_.data(), want);
        if (got == 0) break;
        budget -= got;
        for (size_t j = 0; j < got; ++j) {
          if (!parked && scratch_[j].arrival_time <= now) {
            pending_.push_back(scratch_[j]);
          } else {
            parked = true;
            held.buf.push_back(scratch_[j]);
          }
        }
      }
    }
    run_bounds_.emplace_back(run_start, pending_.size());
  }

  // Interleave injection with advancement in timestamp order, exactly as
  // the simulation's event queue does: the engine must never hold a tuple
  // whose arrival is in its virtual CPU's future, or a backlogged engine
  // could "process" it before it arrived (negative delay). Each per-ring
  // run is already arrival-sorted, so a K-way merge replaces the seed's
  // stable_sort (whose temporary buffer was a per-pump heap allocation).
  if (run_bounds_.size() <= 1) {
    engine_.InjectBatch(pending_.data(), pending_.size());
  } else {
    MergeRunsByArrival();
    engine_.InjectBatch(inject_order_.data(), inject_order_.size());
  }
  engine_.AdvanceTo(now);
  ConsumeShedBudget();
  Publish();
}

void RtEngine::ConsumeShedBudget() {
  // Worker half of the actuation-plan handshake (see RtSharedStats): on a
  // new plan the posted budget REPLACES whatever was left — an unspent
  // budget expires at the period boundary rather than accumulating. The
  // budget drains across this period's pumps as backlog becomes available.
  const uint64_t seq = stats_.plan_seq.load(std::memory_order_acquire);
  if (seq != plan_seq_seen_) {
    plan_seq_seen_ = seq;
    shed_budget_remaining_ =
        stats_.plan_queue_budget.load(std::memory_order_relaxed);
    shed_cost_aware_ =
        stats_.plan_cost_aware.load(std::memory_order_relaxed) != 0;
  }
  if (shed_budget_remaining_ <= 0.0 || engine_.QueuedTuples() == 0) return;
  const auto policy = shed_cost_aware_ ? Engine::QueueVictimPolicy::kMostCostly
                                       : Engine::QueueVictimPolicy::kRandom;
  const double removed =
      engine_.ShedFromQueues(shed_budget_remaining_, shed_rng_, policy);
  shed_budget_remaining_ -= removed;
  if (shed_budget_remaining_ < 1e-12) shed_budget_remaining_ = 0.0;
}

void RtEngine::MergeRunsByArrival() {
  inject_order_.clear();
  run_cursor_.clear();
  for (const auto& bounds : run_bounds_) run_cursor_.push_back(bounds.first);
  // K is the source count (small); a linear scan per pop beats a heap and,
  // by breaking ties toward the lowest ring index, reproduces exactly what
  // stable_sort over the concatenated runs produced in the seed.
  for (;;) {
    size_t best = run_bounds_.size();
    for (size_t k = 0; k < run_bounds_.size(); ++k) {
      if (run_cursor_[k] == run_bounds_[k].second) continue;
      if (best == run_bounds_.size() ||
          pending_[run_cursor_[k]].arrival_time <
              pending_[run_cursor_[best]].arrival_time) {
        best = k;
      }
    }
    if (best == run_bounds_.size()) break;
    inject_order_.push_back(pending_[run_cursor_[best]++]);
  }
}

void RtEngine::Publish() {
  const EngineCounters& c = engine_.counters();
  stats_.admitted.store(c.admitted, std::memory_order_relaxed);
  stats_.departed.store(c.departed, std::memory_order_relaxed);
  stats_.queue_shed.store(c.shed_lineages, std::memory_order_relaxed);
  stats_.queue_shed_load.store(c.shed_base_load, std::memory_order_relaxed);
  stats_.busy_seconds.store(c.busy_seconds, std::memory_order_relaxed);
  stats_.drained_base_load.store(c.drained_base_load,
                                 std::memory_order_relaxed);
  stats_.queued_tuples.store(engine_.QueuedTuples(),
                             std::memory_order_relaxed);
  stats_.outstanding_base_load.store(engine_.OutstandingBaseLoad(),
                                     std::memory_order_relaxed);
  stats_.delay_sum.store(delay_sum_local_, std::memory_order_relaxed);
  stats_.delay_count.store(delay_count_local_, std::memory_order_relaxed);
}

void RtEngine::WorkerLoop() {
  using Clock = std::chrono::steady_clock;
  if (options_.pin_cpu >= 0) PinCurrentThreadToCpu(options_.pin_cpu);
  if (options_.telemetry != nullptr) {
    trace_buf_ = options_.telemetry->RegisterThread(
        "rt.worker" + std::to_string(options_.shard_index));
    // Metric objects are shared across shards (the registry is
    // thread-safe and Counter/HistogramMetric updates are atomic or
    // internally locked), so these aggregate over all workers.
    pump_interval_metric_ =
        options_.telemetry->metrics()->GetHistogram("rt.pump_interval_s");
    if (options_.per_shard_pump_metric) {
      // Per-shard jitter next to the aggregate: the Prometheus exporter
      // folds rt.shard<i>.pump_interval_s into one summary family
      // rt_shard_pump_interval_s{shard="i"}.
      shard_pump_interval_metric_ = options_.telemetry->metrics()->GetHistogram(
          "rt.shard" + std::to_string(options_.shard_index) +
          ".pump_interval_s");
    }
    pump_counter_ = options_.telemetry->metrics()->GetCounter("rt.pumps");
    // Operator-granular spans/counters on this worker's engine. Counters
    // are registry-shared, so shards aggregate per operator name.
    op_telemetry_ = std::make_unique<OperatorTelemetry>(
        options_.telemetry, trace_buf_, engine_.network());
    engine_.SetObserver(op_telemetry_.get());
  }
  const auto pacing = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.pacing_wall_seconds));
  auto deadline = Clock::now() + pacing;
  auto last_pump = Clock::now();
  bool have_last_pump = false;

  while (!stop_.load(std::memory_order_acquire)) {
    const auto pump_start = Clock::now();
    if (have_last_pump) {
      const double interval =
          std::chrono::duration<double>(pump_start - last_pump).count();
      pump_intervals_.Record(interval);
      if (pump_interval_metric_ != nullptr) {
        pump_interval_metric_->Record(interval);
      }
      if (shard_pump_interval_metric_ != nullptr) {
        shard_pump_interval_metric_->Record(interval);
      }
    }
    have_last_pump = true;
    last_pump = pump_start;
    {
      ScopedSpan span(trace_buf_, "pump");
      Pump(clock_->Now());
    }
    if (pump_counter_ != nullptr) pump_counter_->Add();

    std::this_thread::sleep_until(deadline);
    const auto now = Clock::now();
    deadline += pacing;
    if (deadline < now) deadline = now + pacing;  // don't chase a lost past
  }

  // Final pump so end-of-run stats include everything that happened
  // before the stop signal.
  Pump(clock_->Now());
}

}  // namespace ctrlshed
