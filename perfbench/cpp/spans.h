// In-memory span recorder of the traced replay. Each span has a name, a
// start, an end and a parent (the span open when it began); nothing is
// written until the replay ends. A layer's self time is its span time
// minus the time of its child spans.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  ///< Must be a string literal (stored, not copied).
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< Index of the enclosing span, -1 at top level.
  };

  struct Totals {
    uint64_t count = 0;
    double total_s = 0.0;  ///< Sum of span durations.
    double self_s = 0.0;   ///< total_s minus the durations of child spans.
  };

  SpanRecorder();

  /// Opens a span; spans nest strictly (close in reverse order).
  void Begin(const char* name);
  void End();

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name count, total and self time.
  std::map<std::string, Totals> Summarize() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, one
  /// track), which Perfetto and chrome://tracing load. Returns false when
  /// the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  int64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced twin).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name) : rec_(rec) {
    if (rec_ != nullptr) rec_->Begin(name);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
