#include "telemetry/prom_export.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace ctrlshed {

namespace {

// Locale-independent double formatting, same policy as the JSONL writers.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// One exposition sample: family name + optional label + value text.
struct Sample {
  std::string labels;  ///< e.g. `{shard="0"}`, empty for plain metrics.
  std::string suffix;  ///< e.g. "_sum"; appended to the family name.
  std::string value;
};

/// Family name + label split of one registry name (see header contract).
struct Mapped {
  std::string family;
  std::string labels;
};

Mapped MapName(const std::string& name);

/// "node<id>.<rest>" (a metric federated from cluster node <id>) peels the
/// node prefix, maps the remainder recursively, and merges `node="<id>"`
/// in front of whatever labels the inner mapping produced — so
/// "node0.rt.shard1.queue" becomes rt_shard_queue{node="0",shard="1"}.
bool MapNodeName(const std::string& name, Mapped* out) {
  const std::string node_prefix = "node";
  if (name.rfind(node_prefix, 0) != 0) return false;
  size_t digits = 0;
  while (node_prefix.size() + digits < name.size() &&
         std::isdigit(static_cast<unsigned char>(
             name[node_prefix.size() + digits]))) {
    ++digits;
  }
  const size_t dot = node_prefix.size() + digits;
  if (digits == 0 || dot >= name.size() || name[dot] != '.') return false;
  const std::string id = name.substr(node_prefix.size(), digits);
  Mapped inner = MapName(name.substr(dot + 1));
  const std::string label = "node=\"" + EscapeLabelValue(id) + "\"";
  if (inner.labels.empty()) {
    inner.labels = "{" + label + "}";
  } else {
    inner.labels = "{" + label + "," + inner.labels.substr(1);
  }
  *out = std::move(inner);
  return true;
}

/// "rt.shard<i>.<leaf>", "engine.op.<name>.<leaf>" and
/// "actuation.site.<site>" fold into labeled families, "node<id>.<rest>"
/// folds recursively into a node label; everything else sanitizes whole.
Mapped MapName(const std::string& name) {
  Mapped node_mapped;
  if (MapNodeName(name, &node_mapped)) return node_mapped;
  const std::string shard_prefix = "rt.shard";
  if (name.rfind(shard_prefix, 0) == 0) {
    size_t i = shard_prefix.size();
    size_t digits = 0;
    while (i + digits < name.size() && std::isdigit(static_cast<unsigned char>(
                                           name[i + digits]))) {
      ++digits;
    }
    if (digits > 0 && i + digits < name.size() && name[i + digits] == '.') {
      const std::string shard = name.substr(i, digits);
      const std::string leaf = name.substr(i + digits + 1);
      return {"rt_shard_" + PrometheusName(leaf),
              "{shard=\"" + EscapeLabelValue(shard) + "\"}"};
    }
  }
  const std::string site_prefix = "actuation.site.";
  if (name.rfind(site_prefix, 0) == 0 && name.size() > site_prefix.size()) {
    const std::string site = name.substr(site_prefix.size());
    return {"actuation_site_periods",
            "{site=\"" + EscapeLabelValue(site) + "\"}"};
  }
  const std::string op_prefix = "engine.op.";
  if (name.rfind(op_prefix, 0) == 0) {
    const size_t last_dot = name.rfind('.');
    if (last_dot > op_prefix.size()) {
      const std::string op =
          name.substr(op_prefix.size(), last_dot - op_prefix.size());
      const std::string leaf = name.substr(last_dot + 1);
      return {"engine_op_" + PrometheusName(leaf),
              "{op=\"" + EscapeLabelValue(op) + "\"}"};
    }
  }
  return {PrometheusName(name), ""};
}

/// HELP text per family. Curated strings for the principal families; a
/// deterministic generic fallback guarantees every family — including
/// dynamically named ones (per-operator, federated) — carries a # HELP
/// line, which the exposition-format test asserts.
std::string HelpText(const std::string& family) {
  static const std::map<std::string, std::string> kHelp = {
      {"rt_queue", "Virtual queue length q(k), entry-tuple equivalents."},
      {"rt_y_hat", "Eq. 11 delay estimate at the last control period, seconds."},
      {"rt_alpha", "Entry drop probability currently in force."},
      {"rt_h_hat",
       "Aggregate measured headroom H_hat (drained base load per busy second)."},
      {"rt_pumps_total", "Engine pump iterations completed."},
      {"rt_pump_interval_s", "Wall-clock spacing of engine pump starts, seconds."},
      {"rt_actuation_lateness_s",
       "Wall-clock overshoot of each control tick past its period deadline, seconds."},
      {"rt_shard_queue", "Per-shard virtual queue length at the last sample."},
      {"rt_shard_alpha", "Per-shard entry drop probability in force."},
      {"rt_shard_h_hat", "Per-shard measured headroom H_hat (drained base load per busy second)."},
      {"rt_shard_pump_interval_s", "Per-shard pump interval summary, seconds."},
      {"sim_queue", "Virtual queue length q(k) in the simulation loop."},
      {"sim_y_hat", "Eq. 11 delay estimate in the simulation loop, seconds."},
      {"sim_alpha", "Entry drop probability in the simulation loop."},
      {"engine_op_processed_total", "Operator invocations completed."},
      {"engine_op_dropped_total", "Queued tuples shed from the operator's input."},
      {"actuation_site_periods_total",
       "Control periods whose actuation plan placed the shed at this site."},
      {"telemetry_sse_rows_published_total", "Timeline rows fanned out to SSE subscribers."},
      {"telemetry_sse_rows_dropped_total", "Timeline rows dropped to slow SSE clients."},
      {"telemetry_trace_events_total", "Trace events accepted into tracer rings."},
      {"telemetry_trace_dropped_events_total", "Trace events dropped by full tracer rings."},
      {"telemetry_export_write_failures_total", "Metrics-exporter write errors."},
      {"net_ingress_rejected_total",
       "Malformed-but-well-framed tuple payloads rejected at TCP ingress."},
      {"net_ingress_wakeups_total",
       "TCP ingress reactor polls that delivered at least one frame."},
      {"ctrlshed_health_verdict",
       "Control-loop health verdict: 0 ok, 1 degraded, 2 critical."},
      {"ctrlshed_health_tracking_rms",
       "Tracking-error RMS |yd-y_hat|/yd over the health window, shedding periods only."},
      {"ctrlshed_health_alpha_sat_frac",
       "Fraction of the health window with alpha at or above the saturation level."},
      {"ctrlshed_health_oscillation",
       "Fraction of consecutive periods whose u command flipped sign above the noise floor."},
      {"ctrlshed_health_stale_nodes", "Cluster nodes currently aged out of the control fold."},
      {"ctrlshed_health_h_hat", "Measured headroom H_hat at the last control period."},
  };
  const auto it = kHelp.find(family);
  if (it != kHelp.end()) return it->second;
  return "ControlShed metric " + family + ".";
}

/// Families must appear once with one # TYPE line and all their samples
/// grouped, so collect into an ordered family map before writing.
using FamilyMap = std::map<std::string, std::pair<const char*, std::vector<Sample>>>;

void Collect(FamilyMap* fams, const std::string& family, const char* type,
             Sample sample) {
  auto& slot = (*fams)[family];
  slot.first = type;
  slot.second.push_back(std::move(sample));
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  // A leading digit is not a valid metric-name start; prefix it away.
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out += '_';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out += '_';
  return out;
}

void WritePrometheusText(const MetricsSnapshot& snapshot, std::ostream& out) {
  FamilyMap fams;
  for (const auto& [name, value] : snapshot.counters) {
    Mapped m = MapName(name);
    Collect(&fams, m.family + "_total", "counter",
            {m.labels, "", std::to_string(value)});
  }
  for (const auto& [name, value] : snapshot.gauges) {
    Mapped m = MapName(name);
    Collect(&fams, m.family, "gauge", {m.labels, "", Num(value)});
  }
  for (const auto& [name, h] : snapshot.histograms) {
    Mapped m = MapName(name);
    // Quantile samples merge the quantile label into the family's base
    // label set, so a labeled histogram (e.g. the per-shard pump-interval
    // instruments "rt.shard<i>.pump_interval_s") folds into ONE summary
    // family with samples like {shard="0",quantile="0.5"}. An unlabeled
    // histogram keeps the historical {quantile="..."} form byte for byte.
    const struct {
      const char* q;
      double v;
    } quantiles[] = {{"0.5", h.p50}, {"0.95", h.p95}, {"0.99", h.p99}};
    for (const auto& q : quantiles) {
      std::string labels;
      if (m.labels.empty()) {
        labels = std::string("{quantile=\"") + q.q + "\"}";
      } else {
        // `m.labels` is always a brace-wrapped label set; splice the
        // quantile in before the closing brace.
        labels = m.labels.substr(0, m.labels.size() - 1) + ",quantile=\"" +
                 q.q + "\"}";
      }
      Collect(&fams, m.family, "summary", {std::move(labels), "", Num(q.v)});
    }
    Collect(&fams, m.family, "summary", {m.labels, "_sum", Num(h.sum)});
    Collect(&fams, m.family, "summary",
            {m.labels, "_count", std::to_string(h.count)});
  }

  for (const auto& [family, entry] : fams) {
    out << "# HELP " << family << ' ' << HelpText(family) << '\n';
    out << "# TYPE " << family << ' ' << entry.first << '\n';
    for (const Sample& s : entry.second) {
      out << family << s.suffix << s.labels << ' ' << s.value << '\n';
    }
  }
}

}  // namespace ctrlshed
