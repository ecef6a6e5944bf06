#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace ctrlshed {

Engine::Engine(QueryNetwork* network, double headroom,
               std::unique_ptr<SchedulerPolicy> scheduler)
    : network_(network),
      headroom_(headroom),
      scheduler_(scheduler ? std::move(scheduler)
                           : std::make_unique<RoundRobinScheduler>()) {
  CS_CHECK(network_ != nullptr);
  CS_CHECK_MSG(network_->finalized(), "network must be finalized");
  CS_CHECK_MSG(headroom_ > 0.0 && headroom_ <= 1.0, "headroom must be in (0,1]");
  nominal_entry_cost_ = network_->MeanEntryCost();
  CS_CHECK_MSG(nominal_entry_cost_ > 0.0, "network has zero per-tuple cost");
  const size_t n = network_->NumOperators();
  for (size_t i = 0; i < n; ++i) {
    network_->Operator(i)->queue().BindPool(&chunk_pool_);
  }
}

Engine::~Engine() {
  // Return all queued chunks to the pool (it frees them), then unbind so
  // the network can outlive this engine or serve a fresh one.
  const size_t n = network_->NumOperators();
  for (size_t i = 0; i < n; ++i) {
    TupleQueue& q = network_->Operator(i)->queue();
    q.clear();
    q.BindPool(nullptr);
  }
}

double Engine::CostMultiplierAt(SimTime t) const {
  if (!cost_multiplier_) return 1.0;
  double m = cost_multiplier_(t);
  CS_CHECK_MSG(m > 0.0, "cost multiplier must be positive");
  return m;
}

double Engine::VirtualQueueLength() const {
  return VirtualQueueFromLoad(queued_tuples_, outstanding_base_load_,
                              nominal_entry_cost_);
}

void Engine::Inject(Tuple t, SimTime now) {
  // If the CPU was idle and its clock lags the arrival, service of this
  // tuple can only start now.
  if (queued_tuples_ == 0 && now > clock_) clock_ = now;

  t.lineage = lineages_.Allocate(/*derived=*/false);
  for (OperatorBase* entry : network_->Entries(t.source)) {
    Tuple copy = t;
    lineages_.AddInstance(copy.lineage);
    copy.port = 0;
    entry->queue().push_back(copy);
    ++queued_tuples_;
    outstanding_base_load_ += network_->RemainingCost(entry);
  }
  ++counters_.admitted;
}

void Engine::InjectBatch(const Tuple* tuples, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    AdvanceTo(tuples[i].arrival_time);
    Inject(tuples[i], tuples[i].arrival_time);
  }
}

void Engine::ReleaseLineage(const Tuple& t, SimTime depart_time,
                            DepartureKind kind, bool shed) {
  const LineageTable::Released r = lineages_.Release(t.lineage, shed);
  if (!r.last) return;

  // A lineage any of whose branches was shed counts as lost, not departed.
  if (r.tainted) {
    if (!r.derived) ++counters_.shed_lineages;
    return;
  }
  if (!r.derived) ++counters_.departed;
  if (on_departure_) {
    on_departure_(Departure{t.arrival_time, depart_time, t.source, kind, r.derived});
  }
}

void Engine::ExecuteBatch(OperatorBase* op, size_t quantum, SimTime limit) {
  CS_CHECK(!op->queue().empty());
  if (CanRunColumnar(*op, quantum)) {
    ExecuteBatchColumnar(op, quantum, limit);
    return;
  }
  if (observer_ != nullptr) observer_->OnInvocationStart(*op);

  // Everything per-operator is hoisted out of the invocation loop; the
  // loop body keeps the seed's floating-point operation order exactly, so
  // quantum == 1 reproduces the per-tuple engine bit-for-bit.
  TupleQueue& queue = op->queue();
  const double r_in = network_->RemainingCost(op);
  const auto& downstream = op->downstream();
  const bool is_sink = downstream.empty();

  // Per-invocation emit context, rebound each iteration.
  SimTime completion = 0.0;
  double drained = 0.0;
  bool emitted_to_sink = false;

  const auto emit_impl = [&](const Tuple& out_in) {
    Tuple out = out_in;
    const bool derived = (out.lineage == kPendingLineage);
    if (is_sink) {
      // Sink: the emitted tuple departs the network right here.
      if (derived) {
        // A tuple born and departing in the same invocation (e.g. an
        // aggregate at the end of a path). Report it directly.
        if (on_departure_) {
          on_departure_(Departure{out.arrival_time, completion, out.source,
                                  DepartureKind::kOutput, /*derived=*/true});
        }
      } else {
        emitted_to_sink = true;
      }
      return;
    }
    if (derived) out.lineage = lineages_.Allocate(/*derived=*/true);
    for (const Downstream& d : downstream) {
      Tuple copy = out;
      lineages_.AddInstance(copy.lineage);
      copy.port = d.port;
      d.op->queue().push_back(copy);
      ++queued_tuples_;
      const double r = network_->RemainingCost(d.op);
      outstanding_base_load_ += r;
      drained -= r;
    }
  };
  const EmitFn emit(emit_impl);

  size_t ran = 0;
  double batch_cost = 0.0;
  for (;;) {
    const Tuple in = queue.front();
    queue.pop_front();
    --queued_tuples_;
    outstanding_base_load_ -= r_in;
    if (queued_tuples_ == 0) outstanding_base_load_ = 0.0;
    drained = r_in;

    const double cost = op->cost() * CostMultiplierAt(clock_);
    clock_ += cost / headroom_;
    counters_.busy_seconds += cost;
    ++counters_.invocations;
    batch_cost += cost;

    emitted_to_sink = false;
    completion = clock_;
    op->Process(in, completion, emit);
    counters_.drained_base_load += drained;

    const DepartureKind kind =
        emitted_to_sink ? DepartureKind::kOutput : DepartureKind::kFiltered;
    ReleaseLineage(in, completion, kind, /*shed=*/false);

    ++ran;
    if (ran >= quantum || queue.empty() || clock_ >= limit) break;
  }
  if (observer_ != nullptr) {
    observer_->OnInvocationBatch(*op, static_cast<uint64_t>(ran), batch_cost);
  }
}

void Engine::AdvanceTo(SimTime t) {
  while (clock_ < t) {
    OperatorBase* op = scheduler_->Next(network_);
    if (op == nullptr) {
      clock_ = t;
      return;
    }
    ExecuteBatch(op, scheduler_->GrantQuantum(*op), t);
  }
}

double Engine::ShedFromQueues(double target_base_load, Rng& rng,
                              QueueVictimPolicy policy) {
  double removed = 0.0;
  std::vector<OperatorBase*> nonempty;
  while (removed < target_base_load) {
    nonempty.clear();
    const size_t n = network_->NumOperators();
    for (size_t i = 0; i < n; ++i) {
      OperatorBase* op = network_->Operator(i);
      if (!op->queue().empty()) nonempty.push_back(op);
    }
    if (nonempty.empty()) break;
    OperatorBase* victim = nullptr;
    if (policy == QueueVictimPolicy::kMostCostly) {
      for (OperatorBase* op : nonempty) {
        if (victim == nullptr ||
            network_->RemainingCost(op) > network_->RemainingCost(victim)) {
          victim = op;
        }
      }
    } else {
      victim =
          nonempty[static_cast<size_t>(rng.UniformInt(0, nonempty.size() - 1))];
    }
    // Drop the newest tuple in the victim queue: it has absorbed the least
    // processing investment so far.
    Tuple t = victim->queue().back();
    victim->queue().pop_back();
    --queued_tuples_;
    const double r = network_->RemainingCost(victim);
    outstanding_base_load_ -= r;
    if (queued_tuples_ == 0) outstanding_base_load_ = 0.0;
    counters_.shed_base_load += r;
    removed += r;
    ReleaseLineage(t, clock_, DepartureKind::kFiltered, /*shed=*/true);
    if (observer_ != nullptr) observer_->OnQueueDrop(*victim);
  }
  return removed;
}

}  // namespace ctrlshed
