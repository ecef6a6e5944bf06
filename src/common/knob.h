#ifndef CTRLSHED_COMMON_KNOB_H_
#define CTRLSHED_COMMON_KNOB_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ctrlshed {

/// One command-line knob, a row of a command's table: its name, its parse
/// kind and range, a one-line help, and where its value lands (the field a
/// maker below binds). Its default is the value the field holds before the
/// walk, so the config structs stay the one home of every default.
struct Knob {
  std::string name;
  std::string kind;  ///< "a number > 0", "0|1": help and errors show it.
  std::string help;
  /// Stores a token in the field; false when the token is not `kind`.
  std::function<bool(const std::string&)> set{};
  std::function<std::string()> get{};  ///< The value; "" when unset.
  bool given = false;  ///< Set by ParseKnobs when the line sets it.
};
using Knobs = std::vector<Knob>;

/// A finite number in the open interval (lo, hi), the whole token.
Knob Number(std::string name, double* field, std::string help,
            double lo = -std::numeric_limits<double>::infinity(),
            double hi = std::numeric_limits<double>::infinity());
Knob Text(std::string name, std::string* field, std::string help);
/// Exactly 0 or 1.
Knob Switch(std::string name, bool* field, std::string help);

/// Whether `text` is digits only (no sign, no space) in [lo, hi].
bool ParseInteger(const std::string& text, uint64_t lo, uint64_t hi,
                  uint64_t* out);

/// An integer in [lo, hi]; a field outside it reads as unset.
template <class T>
Knob Integer(std::string name, T* field, uint64_t lo, uint64_t hi,
             std::string help) {
  const auto set = [field, lo, hi](const std::string& text) {
    uint64_t v = 0;
    const bool ok = ParseInteger(text, lo, hi, &v);
    if (ok) *field = static_cast<T>(v);
    return ok;
  };
  const auto get = [field, lo, hi] {
    return std::cmp_less(*field, lo) || std::cmp_greater(*field, hi)
               ? std::string()
               : std::to_string(*field);
  };
  return {std::move(name),
          "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
              "]",
          std::move(help), set, get};
}

/// One of `names`, each a token and the value it stands for.
template <class T>
Knob Choice(std::string name, T* field,
            std::vector<std::pair<const char*, T>> names, std::string help) {
  std::string kind;
  for (const auto& n : names) {
    kind += std::string(kind.empty() ? "" : "|") + n.first;
  }
  const auto set = [field, names](const std::string& text) {
    for (const auto& [token, value] : names) {
      if (text == token) {
        *field = value;
        return true;
      }
    }
    return false;
  };
  const auto get = [field, names] {
    for (const auto& [token, value] : names) {
      if (*field == value) return std::string(token);
    }
    return std::string();
  };
  return {std::move(name), kind, std::move(help), set, get};
}

/// The row named `name`, or null.
Knob* FindKnob(Knobs& knobs, const std::string& name);

/// The rows of `all` named in the space-separated `names`, in that order.
Knobs Pick(Knobs all, const std::string& names);

/// Walks `argc` tokens of `argv` against `knobs`: `key=value`, `--key
/// value` or `--key=value`, a `-` in a GNU key read as `_`, the last of a
/// repeated key winning. Bare tokens go to `positionals`, and are errors
/// when it is null. Returns "" or the message to exit 2 with, which names
/// the bad value's knob, or lists the keys `command` takes.
std::string ParseKnobs(const std::string& command, Knobs& knobs, int argc,
                       char* const* argv,
                       std::vector<std::string>* positionals = nullptr);

/// One line per knob at its current value: `name=value  help (kind)`.
void PrintKnobs(const Knobs& knobs, std::FILE* out);

}  // namespace ctrlshed

#endif  // CTRLSHED_COMMON_KNOB_H_
