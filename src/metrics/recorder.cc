#include "metrics/recorder.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace ctrlshed {

namespace {

/// Writes `v` as its CSV cell — the bare JSON token too, except that JSON
/// quotes a site — into `out` (kMaxValueChars + 1 bytes). Returns the length.
size_t FormatValue(FieldFormat format, double v, char* out) {
  if (format == FieldFormat::kSite) {
    const std::string_view name =
        ActuationSiteName(static_cast<ActuationSite>(static_cast<uint8_t>(v)));
    std::memcpy(out, name.data(), name.size());
    return name.size();
  }
  const int n = std::snprintf(out, kMaxValueChars + 1,
                              format == FieldFormat::kInt ? "%.0f" : "%.17g",
                              v);
  return std::min(static_cast<size_t>(n), kMaxValueChars);
}

}  // namespace

PeriodValues ValuesOf(const PeriodRecord& row) {
  PeriodValues values;
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = kPeriodFields[i].value(row);
  }
  return values;
}

std::string_view FormatPeriodJson(const PeriodValues& values,
                                  PeriodJsonBuffer* buf) {
  char* const begin = buf->data();
  char* p = begin;
  const auto put = [&p](std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  put("{");
  for (size_t i = 0; i < values.size(); ++i) {
    const PeriodField& f = kPeriodFields[i];
    const bool finite = std::isfinite(values[i]);
    if ((f.surfaces & kJson) == 0 || (!finite && f.nan == NanRule::kOmit)) {
      continue;
    }
    put(p == begin + 1 ? "\"" : ",\"");
    put(f.name);
    put("\":");
    if (!finite) {
      put("null");
    } else if (f.format == FieldFormat::kSite) {
      put("\"");
      p += FormatValue(f.format, values[i], p);
      put("\"");
    } else {
      p += FormatValue(f.format, values[i], p);
    }
  }
  put("}");
  return std::string_view(begin, static_cast<size_t>(p - begin));
}

void WritePeriodCsvHeader(std::ostream& out) {
  const char* sep = "";
  for (const PeriodField& f : kPeriodFields) {
    if ((f.surfaces & kCsv) == 0) continue;
    out << sep << f.name;
    sep = ",";
  }
  out << '\n';
}

void WritePeriodCsvRow(const PeriodValues& values, std::ostream& out) {
  char cell[kMaxValueChars + 1];
  const char* sep = "";
  for (size_t i = 0; i < values.size(); ++i) {
    if ((kPeriodFields[i].surfaces & kCsv) == 0) continue;
    out << sep;
    out.write(cell, static_cast<std::streamsize>(
                        FormatValue(kPeriodFields[i].format, values[i], cell)));
    sep = ",";
  }
  out << '\n';
}

void Recorder::WriteCsv(std::ostream& out) const {
  WritePeriodCsvHeader(out);
  for (const PeriodRecord& r : rows_) WritePeriodCsvRow(ValuesOf(r), out);
}

TrackingVerdict TrackingGate(const Recorder& recorder, double yd,
                             double capacity) {
  TrackingVerdict v;
  double sum_overloaded = 0.0, sum_converged = 0.0;
  for (const PeriodRecord& row : recorder.rows()) {
    if (row.m.k <= 4) continue;
    sum_converged += row.m.y_hat;
    ++v.converged;
    if (row.m.fin < capacity) continue;
    sum_overloaded += row.m.y_hat;
    ++v.overloaded;
  }
  if (v.overloaded > 0) v.mean_overloaded = sum_overloaded / v.overloaded;
  if (v.converged > 0) v.mean_converged = sum_converged / v.converged;
  v.error = std::abs(v.mean_overloaded - yd) / yd;
  v.pass = v.tracked() ? v.error <= 0.20
                       : v.converged >= 8 && v.mean_converged <= 1.2 * yd;
  return v;
}

}  // namespace ctrlshed
