#include "spans.h"

#include <time.h>

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_ns_(0) {
  epoch_ns_ = NowNs();
  spans_.reserve(1 << 16);
}

int64_t SpanRecorder::NowNs() const {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec - epoch_ns_;
}

void SpanRecorder::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back(Span{name, NowNs(), 0, parent});
}

void SpanRecorder::End() {
  spans_[static_cast<size_t>(open_.back())].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(dur);
    t.self_s += 1e-9 * static_cast<double>(dur - child_ns[i]);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"replay\"}}");
  for (const Span& s : spans_) {
    // Chrome trace timestamps are microseconds; keep the ns digits.
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 s.name, 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
