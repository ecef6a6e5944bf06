#include "cluster/wire.h"

#include <cmath>

namespace ctrlshed {

namespace {

std::string Framed(FrameType type, const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(type, payload, &frame);
  return frame;
}

bool AllFinite(std::initializer_list<double> vs) {
  for (double v : vs) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void PutName(const std::string& name, std::string* out) {
  PutU32(static_cast<uint32_t>(name.size()), out);
  out->append(name);
}

bool ReadName(WireReader* r, std::string* name) {
  uint32_t len = 0;
  if (!r->ReadU32(&len)) return false;
  if (len == 0 || len > kMaxFleetNameBytes) return false;
  return r->ReadBytes(len, name);
}

// Piggybacked metrics snapshot section of a stats report: three counted
// runs of (name, value) entries. Caps and finiteness are enforced here on
// decode and re-checked whole via ValidMetricsWireSnapshot.
void PutMetricsSnapshot(const MetricsWireSnapshot& m, std::string* out) {
  PutU32(static_cast<uint32_t>(m.counters.size()), out);
  for (const auto& [name, value] : m.counters) {
    PutName(name, out);
    PutU64(value, out);
  }
  PutU32(static_cast<uint32_t>(m.gauges.size()), out);
  for (const auto& [name, value] : m.gauges) {
    PutName(name, out);
    PutF64(value, out);
  }
  PutU32(static_cast<uint32_t>(m.histograms.size()), out);
  for (const auto& h : m.histograms) {
    PutName(h.name, out);
    PutU64(h.stats.count, out);
    PutF64(h.stats.sum, out);
    PutF64(h.stats.min, out);
    PutF64(h.stats.max, out);
    PutF64(h.stats.p50, out);
    PutF64(h.stats.p95, out);
    PutF64(h.stats.p99, out);
  }
}

bool ReadMetricsSnapshot(WireReader* r, MetricsWireSnapshot* m) {
  uint32_t n = 0;
  if (!r->ReadU32(&n) || n > kMaxFleetEntries) return false;
  m->counters.clear();
  m->counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!ReadName(r, &name) || !r->ReadU64(&value)) return false;
    m->counters.emplace_back(std::move(name), value);
  }
  if (!r->ReadU32(&n) || n > kMaxFleetEntries) return false;
  m->gauges.clear();
  m->gauges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    double value = 0.0;
    if (!ReadName(r, &name) || !r->ReadF64(&value)) return false;
    m->gauges.emplace_back(std::move(name), value);
  }
  if (!r->ReadU32(&n) || n > kMaxFleetEntries) return false;
  m->histograms.clear();
  m->histograms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MetricsWireSnapshot::Hist h;
    if (!ReadName(r, &h.name) || !r->ReadU64(&h.stats.count) ||
        !r->ReadF64(&h.stats.sum) || !r->ReadF64(&h.stats.min) ||
        !r->ReadF64(&h.stats.max) || !r->ReadF64(&h.stats.p50) ||
        !r->ReadF64(&h.stats.p95) || !r->ReadF64(&h.stats.p99)) {
      return false;
    }
    m->histograms.push_back(std::move(h));
  }
  return ValidMetricsWireSnapshot(*m);
}

}  // namespace

std::string EncodeHelloFrame(const NodeHello& h) {
  std::string p;
  PutU32(h.node_id, &p);
  PutU32(h.workers, &p);
  PutF64(h.headroom, &p);
  PutF64(h.nominal_cost, &p);
  PutF64(h.period, &p);
  PutU64(h.trace_clock_us, &p);
  return Framed(FrameType::kHello, p);
}

bool DecodeHello(const std::string& payload, NodeHello* out) {
  WireReader r(payload);
  if (!r.ReadU32(&out->node_id) || !r.ReadU32(&out->workers) ||
      !r.ReadF64(&out->headroom) || !r.ReadF64(&out->nominal_cost) ||
      !r.ReadF64(&out->period) || !r.ReadU64(&out->trace_clock_us) ||
      !r.AtEnd()) {
    return false;
  }
  // A hello that fails these invariants would seed an invalid plant.
  return out->workers >= 1 &&
         AllFinite({out->headroom, out->nominal_cost, out->period}) &&
         out->headroom > 0.0 && out->nominal_cost > 0.0 && out->period > 0.0;
}

std::string EncodeHelloAckFrame(const HelloAck& a) {
  std::string p;
  PutU32(a.node_id, &p);
  PutU64(a.echo_t0_us, &p);
  PutU64(a.ctrl_clock_us, &p);
  return Framed(FrameType::kHelloAck, p);
}

bool DecodeHelloAck(const std::string& payload, HelloAck* out) {
  WireReader r(payload);
  return r.ReadU32(&out->node_id) && r.ReadU64(&out->echo_t0_us) &&
         r.ReadU64(&out->ctrl_clock_us) && r.AtEnd();
}

std::string EncodeStatsReportFrame(const NodeStatsReport& r) {
  std::string p;
  PutU32(r.node_id, &p);
  PutU32(r.seq, &p);
  PutU32(r.ctrl_seq, &p);
  PutF64(r.deltas.now, &p);
  PutU64(r.deltas.offered, &p);
  PutU64(r.deltas.admitted, &p);
  PutF64(r.deltas.drained_base_load, &p);
  PutF64(r.deltas.busy_seconds, &p);
  PutF64(r.deltas.queue, &p);
  PutF64(r.deltas.delay_sum, &p);
  PutU64(r.deltas.delay_count, &p);
  PutF64(r.alpha, &p);
  PutU64(r.offered_total, &p);
  PutU64(r.entry_shed_total, &p);
  PutU64(r.ring_dropped_total, &p);
  PutU64(r.queue_shed_total, &p);
  PutU64(r.departed_total, &p);
  PutU32(r.has_metrics ? 1 : 0, &p);
  if (r.has_metrics) PutMetricsSnapshot(r.metrics, &p);
  return Framed(FrameType::kStatsReport, p);
}

bool DecodeStatsReport(const std::string& payload, NodeStatsReport* out) {
  WireReader r(payload);
  if (!r.ReadU32(&out->node_id) || !r.ReadU32(&out->seq) ||
      !r.ReadU32(&out->ctrl_seq) ||
      !r.ReadF64(&out->deltas.now) || !r.ReadU64(&out->deltas.offered) ||
      !r.ReadU64(&out->deltas.admitted) ||
      !r.ReadF64(&out->deltas.drained_base_load) ||
      !r.ReadF64(&out->deltas.busy_seconds) || !r.ReadF64(&out->deltas.queue) ||
      !r.ReadF64(&out->deltas.delay_sum) ||
      !r.ReadU64(&out->deltas.delay_count) || !r.ReadF64(&out->alpha) ||
      !r.ReadU64(&out->offered_total) || !r.ReadU64(&out->entry_shed_total) ||
      !r.ReadU64(&out->ring_dropped_total) ||
      !r.ReadU64(&out->queue_shed_total) ||
      !r.ReadU64(&out->departed_total)) {
    return false;
  }
  uint32_t has_metrics = 0;
  if (!r.ReadU32(&has_metrics) || has_metrics > 1) return false;
  out->has_metrics = has_metrics == 1;
  out->metrics = MetricsWireSnapshot();
  if (out->has_metrics && !ReadMetricsSnapshot(&r, &out->metrics)) {
    return false;
  }
  if (!r.AtEnd()) return false;
  return AllFinite({out->deltas.now, out->deltas.drained_base_load,
                    out->deltas.busy_seconds, out->deltas.queue,
                    out->deltas.delay_sum, out->alpha}) &&
         out->deltas.queue >= 0.0 && out->deltas.now >= 0.0;
}

std::string EncodeActuationFrame(const ClusterActuation& a) {
  std::string p;
  PutU32(a.seq, &p);
  PutF64(a.v, &p);
  PutF64(a.target_delay, &p);
  uint32_t flags = 0;
  if (a.queue_shed) flags |= 1u;
  if (a.cost_aware) flags |= 2u;
  PutU32(flags, &p);
  return Framed(FrameType::kActuation, p);
}

bool DecodeActuation(const std::string& payload, ClusterActuation* out) {
  WireReader r(payload);
  uint32_t flags = 0;
  if (!r.ReadU32(&out->seq) || !r.ReadF64(&out->v) ||
      !r.ReadF64(&out->target_delay) || !r.ReadU32(&flags) || !r.AtEnd()) {
    return false;
  }
  if (flags > 3) return false;  // unknown plan flag: reject, don't guess
  out->queue_shed = (flags & 1u) != 0;
  out->cost_aware = (flags & 2u) != 0;
  return AllFinite({out->v, out->target_delay}) && out->target_delay > 0.0;
}

std::string EncodeAckFrame(const ActuationAck& a) {
  std::string p;
  PutU32(a.node_id, &p);
  PutU32(a.seq, &p);
  PutF64(a.applied, &p);
  PutF64(a.alpha, &p);
  PutF64(a.queue_shed, &p);
  return Framed(FrameType::kAck, p);
}

bool DecodeAck(const std::string& payload, ActuationAck* out) {
  WireReader r(payload);
  if (!r.ReadU32(&out->node_id) || !r.ReadU32(&out->seq) ||
      !r.ReadF64(&out->applied) || !r.ReadF64(&out->alpha) ||
      !r.ReadF64(&out->queue_shed) || !r.AtEnd()) {
    return false;
  }
  return AllFinite({out->applied, out->alpha, out->queue_shed}) &&
         out->queue_shed >= 0.0;
}

}  // namespace ctrlshed
