#include "telemetry/tracer.h"

#include <utility>

#include "common/macros.h"

namespace ctrlshed {

// Trace names are instrumentation-site literals, but escape defensively so
// the emitted JSON is well-formed for any name.
void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

TraceBuffer::TraceBuffer(Tracer* tracer, std::string thread_name, int tid,
                         size_t capacity)
    : tracer_(tracer),
      thread_name_(std::move(thread_name)),
      tid_(tid),
      ring_(capacity) {}

void TraceBuffer::Instant(const char* name) {
  Emit({name, NowUs(), -1});
}

void TraceBuffer::Instant(const char* name, const char* arg_name,
                          int64_t arg) {
  Emit({name, NowUs(), -1, arg_name, arg});
}

int64_t TraceBuffer::NowUs() const { return tracer_->NowUs(); }

size_t TraceBuffer::Drain() {
  TraceEvent ev;
  size_t n = 0;
  // Bounded like the engine's ring drain: a producer refilling concurrently
  // cannot pin the exporter in this loop.
  for (size_t budget = ring_.capacity(); budget > 0 && ring_.TryPop(&ev);
       --budget) {
    collected_.push_back(ev);
    ++n;
  }
  return n;
}

Tracer::Tracer(size_t buffer_capacity)
    : epoch_(std::chrono::steady_clock::now()),
      buffer_capacity_(buffer_capacity) {
  CS_CHECK_MSG(buffer_capacity_ >= 2, "trace buffer capacity too small");
}

TraceBuffer* Tracer::RegisterThread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = static_cast<int>(buffers_.size()) + 1;
  buffers_.push_back(
      std::make_unique<TraceBuffer>(this, name, tid, buffer_capacity_));
  return buffers_.back().get();
}

const char* Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = interned_[name];
  if (!slot) slot = std::make_unique<std::string>(name);
  return slot->c_str();
}

void Tracer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) buf->Drain();
}

uint64_t Tracer::collected_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->collected().size();
  return n;
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->dropped();
  return n;
}

void Tracer::WriteChromeTrace(std::ostream& out) {
  Drain();
  std::lock_guard<std::mutex> lock(mu_);
  out << "[";
  bool first = true;
  for (const auto& tb : buffers_) {
    // Thread-name metadata event so Perfetto labels the track.
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << tb->tid() << ",\"args\":{\"name\":";
    WriteJsonString(out, tb->thread_name());
    out << "}}";
    for (const TraceEvent& ev : tb->collected()) {
      out << ",\n";
      if (ev.dur_us < 0) {
        out << "{\"name\":";
        WriteJsonString(out, ev.name);
        out << ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << tb->tid()
            << ",\"ts\":" << ev.ts_us;
      } else {
        out << "{\"name\":";
        WriteJsonString(out, ev.name);
        out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tb->tid()
            << ",\"ts\":" << ev.ts_us << ",\"dur\":" << ev.dur_us;
      }
      if (ev.arg_name != nullptr) {
        out << ",\"args\":{";
        WriteJsonString(out, ev.arg_name);
        out << ":" << ev.arg << "}";
      }
      out << "}";
    }
    if (tb->dropped() > 0) {
      out << ",\n{\"name\":\"dropped_events\",\"ph\":\"C\",\"pid\":1,"
          << "\"tid\":" << tb->tid() << ",\"ts\":" << NowUs()
          << ",\"args\":{\"count\":" << tb->dropped() << "}}";
    }
  }
  out << "]\n";
}

}  // namespace ctrlshed
