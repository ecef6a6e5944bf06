#include "common/knob.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/macros.h"

namespace ctrlshed {

namespace {

std::string Shown(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Knob Number(std::string name, double* field, std::string help, double lo,
            double hi) {
  std::string kind = "a number";
  if (lo == 0.0 && std::isinf(hi)) {
    kind += " > 0";
  } else if (!std::isinf(lo) || !std::isinf(hi)) {
    kind += " in (" + Shown(lo) + ", " + Shown(hi) + ")";
  }
  const auto set = [field, lo, hi](const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    const bool ok = end != text.c_str() && *end == '\0' && std::isfinite(v) &&
                    v > lo && v < hi;
    if (ok) *field = v;
    return ok;
  };
  return {std::move(name), kind, std::move(help), set,
          [field] { return Shown(*field); }};
}

Knob Text(std::string name, std::string* field, std::string help) {
  const auto set = [field](const std::string& text) {
    *field = text;
    return true;
  };
  return {std::move(name), "", std::move(help), set,
          [field] { return *field; }};
}

Knob Switch(std::string name, bool* field, std::string help) {
  return Choice<bool>(std::move(name), field, {{"0", false}, {"1", true}},
                      std::move(help));
}

bool ParseInteger(const std::string& text, uint64_t lo, uint64_t hi,
                  uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE && *out >= lo && *out <= hi;
}

Knob* FindKnob(Knobs& knobs, const std::string& name) {
  for (Knob& k : knobs) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

Knobs Pick(Knobs all, const std::string& names) {
  Knobs picked;
  std::istringstream in(names);
  for (std::string name; in >> name;) {
    const Knob* k = FindKnob(all, name);
    CS_CHECK_MSG(k != nullptr, "Pick names a knob the table lacks");
    picked.push_back(*k);
  }
  return picked;
}

std::string ParseKnobs(const std::string& command, Knobs& knobs, int argc,
                       char* const* argv,
                       std::vector<std::string>* positionals) {
  for (int i = 0; i < argc; ++i) {
    const std::string token = argv[i];
    const size_t eq = token.find('=');
    std::string key = token.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : token.substr(eq + 1);
    if (token.rfind("--", 0) == 0) {
      key = key.substr(2);
      std::replace(key.begin(), key.end(), '-', '_');
      if (eq == std::string::npos) {
        if (i + 1 == argc) return "option --" + key + " needs a value";
        value = argv[++i];
      }
    } else if (eq == std::string::npos && positionals != nullptr) {
      positionals->push_back(token);
      continue;
    } else if (eq == std::string::npos || eq == 0) {
      return "expected key=value, got '" + token + "'";
    }
    Knob* knob = FindKnob(knobs, key);
    if (knob == nullptr) {
      std::string keys;
      for (const Knob& k : knobs) keys += " " + k.name;
      return "unknown option '" + key + "'; " + command + " takes" + keys;
    }
    if (!knob->set(value)) {
      return key + " must be " + knob->kind + ", got '" + value + "'";
    }
    knob->given = true;
  }
  return "";
}

void PrintKnobs(const Knobs& knobs, std::FILE* out) {
  for (const Knob& k : knobs) {
    const std::string kind = k.kind.empty() ? "" : " (" + k.kind + ")";
    std::fprintf(out, "  %-24s %s%s\n", (k.name + "=" + k.get()).c_str(),
                 k.help.c_str(), kind.c_str());
  }
}

}  // namespace ctrlshed
