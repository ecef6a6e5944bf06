#include "telemetry/trace_merge.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "telemetry/tracer.h"

namespace ctrlshed {

namespace {

// ---- Minimal JSON value + recursive-descent parser ----------------------
// Scoped to what Tracer::WriteChromeTrace emits (arrays of flat objects
// with string/number values and one level of "args" nesting), but written
// as a complete little parser so a hand-edited or foreign trace file fails
// cleanly instead of corrupting the merge.

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // insertion order

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type = JsonValue::kString;
        return ParseString(&out->str);
      case 't':
        out->type = JsonValue::kBool;
        out->b = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::kBool;
        out->b = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::kNull;
        return Literal("null");
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->arr.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Our writer only escapes control characters; anything in the
          // BMP round-trips as UTF-8 here.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
            s_[pos_] == '+')) {
      if (s_[pos_] >= '0' && s_[pos_] <= '9') digits = true;
      ++pos_;
    }
    if (!digits) return false;
    out->type = JsonValue::kNumber;
    try {
      out->num = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return std::isfinite(out->num);
  }

  const std::string& s_;
  size_t pos_ = 0;
};

void WriteJsonValue(std::ostream& out, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::kNull: out << "null"; break;
    case JsonValue::kBool: out << (v.b ? "true" : "false"); break;
    case JsonValue::kNumber: {
      // Timestamps and ids must stay integral for trace viewers; emit
      // whole numbers without an exponent or decimal point.
      if (v.num == std::floor(v.num) && std::abs(v.num) < 9.0e15) {
        out << static_cast<long long>(v.num);
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v.num);
        out << buf;
      }
      break;
    }
    case JsonValue::kString: WriteJsonString(out, v.str); break;
    case JsonValue::kArray: {
      out << '[';
      bool first = true;
      for (const JsonValue& e : v.arr) {
        if (!first) out << ',';
        first = false;
        WriteJsonValue(out, e);
      }
      out << ']';
      break;
    }
    case JsonValue::kObject: {
      out << '{';
      bool first = true;
      for (const auto& [k, e] : v.obj) {
        if (!first) out << ',';
        first = false;
        WriteJsonString(out, k);
        out << ':';
        WriteJsonValue(out, e);
      }
      out << '}';
      break;
    }
  }
}

/// Mutates a field's numeric value in place (no-op when absent).
void SetNumberField(JsonValue* obj, const std::string& key, double value) {
  for (auto& [k, v] : obj->obj) {
    if (k == key) {
      v.type = JsonValue::kNumber;
      v.num = value;
      return;
    }
  }
}

std::string StringField(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->type == JsonValue::kString) ? v->str : "";
}

bool NumberField(const JsonValue& obj, const std::string& key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::kNumber) return false;
  *out = v->num;
  return true;
}

}  // namespace

bool MergeTraceJson(
    const std::vector<std::pair<std::string, std::string>>& inputs,
    std::ostream& out, TraceMergeResult* result) {
  *result = TraceMergeResult();
  result->files = inputs.size();
  if (inputs.empty()) {
    result->error = "no input traces";
    return false;
  }

  std::vector<JsonValue> parsed(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    JsonParser parser(inputs[i].second);
    if (!parser.Parse(&parsed[i]) || parsed[i].type != JsonValue::kArray) {
      result->error =
          "input '" + inputs[i].first + "' is not a valid trace JSON array";
      return false;
    }
    result->labels.push_back(inputs[i].first);
  }

  // Pass 1 per file: clock offset + the set of period ids seen on spans.
  std::vector<std::set<int64_t>> period_sets(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    int64_t offset = 0;
    for (const JsonValue& ev : parsed[i].arr) {
      if (ev.type != JsonValue::kObject) {
        result->error = "input '" + inputs[i].first +
                        "' contains a non-object trace event";
        return false;
      }
      const JsonValue* args = ev.Find("args");
      if (args == nullptr || args->type != JsonValue::kObject) continue;
      if (StringField(ev, "name") == "clock_sync") {
        double off = 0.0;
        if (NumberField(*args, "offset_us", &off)) {
          offset = static_cast<int64_t>(off);
        }
        continue;
      }
      double period = 0.0;
      if (NumberField(*args, "period", &period)) {
        period_sets[i].insert(static_cast<int64_t>(period));
      }
    }
    result->offsets_us.push_back(offset);
  }

  std::set<int64_t> common = period_sets[0];
  for (size_t i = 1; i < inputs.size(); ++i) {
    std::set<int64_t> next;
    std::set_intersection(common.begin(), common.end(), period_sets[i].begin(),
                          period_sets[i].end(),
                          std::inserter(next, next.begin()));
    common = std::move(next);
  }
  result->common_periods.assign(common.begin(), common.end());

  // Pass 2: re-emit with per-file pids, shifted timestamps, and a
  // process_name metadata record fronting each track group.
  out << "[";
  bool first = true;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int pid = static_cast<int>(i) + 1;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":";
    WriteJsonString(out, inputs[i].first);
    out << "}}";
    size_t emitted = 0;
    for (JsonValue& ev : parsed[i].arr) {
      SetNumberField(&ev, "pid", pid);
      double ts = 0.0;
      if (NumberField(ev, "ts", &ts)) {
        SetNumberField(&ev, "ts",
                       ts + static_cast<double>(result->offsets_us[i]));
      }
      out << ",\n";
      WriteJsonValue(out, ev);
      if (StringField(ev, "ph") != "M") ++emitted;
    }
    result->events_per_file.push_back(emitted);
    result->events += emitted;
  }
  out << "]\n";
  return true;
}

bool MergeTraceFiles(const std::vector<std::string>& paths,
                     const std::string& out_path, TraceMergeResult* result) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in.good()) {
      *result = TraceMergeResult();
      result->error = "cannot read '" + path + "'";
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // <dir>/trace.json is the conventional layout; the directory name is
    // the informative part of the track label then.
    const std::filesystem::path p(path);
    std::string label = p.filename().string();
    if (label == "trace.json" && p.has_parent_path() &&
        p.parent_path().has_filename()) {
      label = p.parent_path().filename().string();
    }
    inputs.emplace_back(std::move(label), text.str());
  }
  std::ostringstream merged;
  if (!MergeTraceJson(inputs, merged, result)) return false;
  std::ofstream out(out_path);
  if (!out.good()) {
    result->error = "cannot write '" + out_path + "'";
    return false;
  }
  out << merged.str();
  out.close();
  if (!out.good()) {
    result->error = "short write to '" + out_path + "'";
    return false;
  }
  return true;
}

}  // namespace ctrlshed
