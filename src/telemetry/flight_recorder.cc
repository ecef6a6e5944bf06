#include "telemetry/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/build_info.h"
#include "common/macros.h"

namespace ctrlshed {

namespace {

// Process-global recorder slots. Registration claims an empty slot with
// compare-exchange; the dump path reads them lock-free from signal
// context. A full table silently skips registration — the loop still
// records locally, it just stays out of dumps.
constexpr size_t kMaxRecorders = 16;
std::atomic<FlightRecorder*> g_recorders[kMaxRecorders];

char g_dump_path[PATH_MAX] = "ctrlshed.flightdump.json";

// Fatal paths (CS_CHECK, SIGSEGV, SIGABRT) dump at most once per
// process so a CS_CHECK-triggered abort does not overwrite its own dump
// from the SIGABRT handler. SIGUSR1 and /debug/dump bypass this.
std::atomic<bool> g_fatal_dumped{false};

/// Buffered write()-only emitter. Everything below runs in signal
/// context: no locks, no allocation, no stdio streams. snprintf for
/// numeric formatting is not formally async-signal-safe but performs no
/// allocation for %g/%llu on the libcs we target — the accepted
/// crash-handler trade-off.
class DumpWriter {
 public:
  explicit DumpWriter(int fd) : fd_(fd) {}
  ~DumpWriter() { Flush(); }

  void Str(std::string_view s) {
    for (const char c : s) Char(c);
  }

  void Char(char c) {
    if (len_ == sizeof(buf_)) Flush();
    buf_[len_++] = c;
  }

  /// Appends `s` JSON-escaped (quotes, backslash; control chars dropped).
  void Escaped(const char* s, size_t max_len) {
    for (size_t i = 0; i < max_len && s[i] != '\0'; ++i) {
      const char c = s[i];
      if (c == '"' || c == '\\') {
        Char('\\');
        Char(c);
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        Char(c);
      }
    }
  }

  void Num(double v) {
    char tmp[40];
    const int n = std::snprintf(tmp, sizeof(tmp), "%.17g", v);
    for (int i = 0; i < n; ++i) Char(tmp[i]);
  }

  void Num(uint64_t v) {
    char tmp[24];
    const int n = std::snprintf(tmp, sizeof(tmp), "%llu",
                                static_cast<unsigned long long>(v));
    for (int i = 0; i < n; ++i) Char(tmp[i]);
  }

  void Flush() {
    size_t off = 0;
    while (off < len_) {
      const ssize_t n = ::write(fd_, buf_ + off, len_ - off);
      if (n <= 0) {
        ok_ = false;
        break;
      }
      off += static_cast<size_t>(n);
    }
    len_ = 0;
  }

  bool ok() const { return ok_; }

 private:
  int fd_;
  char buf_[4096];
  size_t len_ = 0;
  bool ok_ = true;
};

void WriteEvent(DumpWriter& w, const FlightEvent& e) {
  w.Str("{\"t\":");
  w.Num(e.t);
  w.Str(",\"what\":\"");
  w.Escaped(e.what, sizeof(e.what));
  w.Str("\",\"detail\":\"");
  w.Escaped(e.detail, sizeof(e.detail));
  w.Str("\"}");
}

/// Writes a ring's last min(N, cursor) entries, oldest first.
template <typename T, size_t N, typename WriteOne>
void WriteRing(DumpWriter& w, const T (&ring)[N], uint64_t cursor,
               WriteOne write_one) {
  const uint64_t n = cursor < N ? cursor : N;
  for (uint64_t i = 0; i < n; ++i) {
    if (i > 0) w.Char(',');
    write_one(w, ring[(cursor - n + i) % N]);
  }
}

void FatalCheckHook(const char* expr, const char* file, int line,
                    const char* msg) {
  if (g_fatal_dumped.exchange(true, std::memory_order_acq_rel)) return;
  char detail[256];
  std::snprintf(detail, sizeof(detail), "%s at %s:%d%s%s", expr, file, line,
                msg[0] != '\0' ? " — " : "", msg);
  WriteFlightDump("cs_check", detail);
}

void FatalSignalHandler(int sig) {
  if (!g_fatal_dumped.exchange(true, std::memory_order_acq_rel)) {
    WriteFlightDump("signal", sig == SIGSEGV ? "SIGSEGV" : "SIGABRT");
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void Usr1Handler(int /*sig*/) { WriteFlightDump("sigusr1", "SIGUSR1"); }

void InstallFatalHookOnce() {
  static const bool installed = [] {
    internal::SetFatalHook(&FatalCheckHook);
    return true;
  }();
  (void)installed;
}

}  // namespace

FlightRecorder::FlightRecorder(const char* name) {
  std::snprintf(name_, sizeof(name_), "%s", name);
  InstallFatalHookOnce();
  for (size_t i = 0; i < kMaxRecorders; ++i) {
    FlightRecorder* expected = nullptr;
    if (g_recorders[i].compare_exchange_strong(expected, this,
                                               std::memory_order_acq_rel)) {
      break;
    }
  }
}

FlightRecorder::~FlightRecorder() {
  for (size_t i = 0; i < kMaxRecorders; ++i) {
    FlightRecorder* expected = this;
    if (g_recorders[i].compare_exchange_strong(expected, nullptr,
                                               std::memory_order_acq_rel)) {
      break;
    }
  }
}

void FlightRecorder::RecordPeriod(const PeriodRecord& row) {
  const uint64_t cursor = period_cursor_.load(std::memory_order_relaxed);
  periods_[cursor % kPeriodCapacity] = ValuesOf(row);
  period_cursor_.store(cursor + 1, std::memory_order_release);
}

void FlightRecorder::RecordEvent(const char* what, const char* detail,
                                 double t) {
  const uint64_t cursor =
      event_cursor_.fetch_add(1, std::memory_order_relaxed);
  FlightEvent& e = events_[cursor % kEventCapacity];
  e.t = t;
  std::snprintf(e.what, sizeof(e.what), "%s", what);
  std::snprintf(e.detail, sizeof(e.detail), "%s", detail);
}

bool SetFlightDumpPath(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(g_dump_path)) return false;
  std::memcpy(g_dump_path, path.c_str(), path.size() + 1);
  return true;
}

std::string FlightDumpPath() { return g_dump_path; }

void InstallFlightDumpHandlers() {
  InstallFatalHookOnce();
  static const bool installed = [] {
    struct sigaction fatal {};
    fatal.sa_handler = &FatalSignalHandler;
    sigemptyset(&fatal.sa_mask);
    ::sigaction(SIGSEGV, &fatal, nullptr);
    ::sigaction(SIGABRT, &fatal, nullptr);
    struct sigaction usr1 {};
    usr1.sa_handler = &Usr1Handler;
    sigemptyset(&usr1.sa_mask);
    usr1.sa_flags = SA_RESTART;
    ::sigaction(SIGUSR1, &usr1, nullptr);
    return true;
  }();
  (void)installed;
}

bool WriteFlightDump(const char* reason, const char* detail) {
  const int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpWriter w(fd);
  w.Str("{\"reason\":\"");
  w.Escaped(reason, 32);
  w.Str("\",\"detail\":\"");
  w.Escaped(detail, 256);
  const BuildInfo& b = GetBuildInfo();
  w.Str("\",\"build\":{\"git\":\"");
  w.Escaped(b.git_describe, 128);
  w.Str("\",\"compiler\":\"");
  w.Escaped(b.compiler, 128);
  w.Str("\",\"build_type\":\"");
  w.Escaped(b.build_type, 64);
  w.Str("\",\"sanitizer\":\"");
  w.Escaped(b.sanitizer, 32);
  w.Str("\"},\"recorders\":[");
  bool first = true;
  for (size_t i = 0; i < kMaxRecorders; ++i) {
    const FlightRecorder* r =
        g_recorders[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    if (!first) w.Char(',');
    first = false;
    const uint64_t periods = r->period_cursor_.load(std::memory_order_acquire);
    const uint64_t events = r->event_cursor_.load(std::memory_order_acquire);
    w.Str("{\"name\":\"");
    w.Escaped(r->name_, sizeof(r->name_));
    w.Str("\",\"periods_recorded\":");
    w.Num(periods);
    w.Str(",\"events_recorded\":");
    w.Num(events);
    w.Str(",\"periods\":[");
    WriteRing(w, r->periods_, periods,
              [](DumpWriter& out, const PeriodValues& period) {
                PeriodJsonBuffer buf;
                out.Str(FormatPeriodJson(period, &buf));
              });
    w.Str("],\"events\":[");
    WriteRing(w, r->events_, events, WriteEvent);
    w.Str("]}");
  }
  w.Str("]}\n");
  w.Flush();
  const bool ok = w.ok();
  ::close(fd);
  return ok;
}

}  // namespace ctrlshed
