#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/recorder.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"
#include "telemetry/tracer.h"

namespace ctrlshed {
namespace {

// Minimal JSON well-formedness checker: validates balanced structure,
// string escaping, and literal/number syntax. Enough to catch a malformed
// writer without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
            e != 'n' && e != 'r' && e != 't' && e != 'u') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    char* end = nullptr;
    std::strtod(s_.c_str() + start, &end);
    return end == s_.c_str() + pos_;
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string TempDir(const char* tag) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += "ctrlshed_telemetry_";
  dir += tag;
  dir += "_";
  dir += std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TracerTest, SpansRoundTripThroughTheRing) {
  Tracer tracer(/*buffer_capacity=*/64);
  TraceBuffer* buf = tracer.RegisterThread("main");
  ASSERT_NE(buf, nullptr);
  { ScopedSpan span(buf, "work"); }
  buf->Instant("marker");
  tracer.Drain();
  ASSERT_EQ(buf->collected().size(), 2u);
  EXPECT_STREQ(buf->collected()[0].name, "work");
  EXPECT_GE(buf->collected()[0].dur_us, 0);
  EXPECT_STREQ(buf->collected()[1].name, "marker");
  EXPECT_LT(buf->collected()[1].dur_us, 0);  // instant marker
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(TracerTest, NullBufferSpanIsANoOp) {
  // The disabled path: ScopedSpan on a null buffer must not touch anything.
  ScopedSpan span(nullptr, "ignored");
}

TEST(TracerTest, FullRingDropsAndCounts) {
  Tracer tracer(/*buffer_capacity=*/8);
  TraceBuffer* buf = tracer.RegisterThread("noisy");
  const int emitted = 100;
  for (int i = 0; i < emitted; ++i) buf->Emit({"e", i, 1});
  tracer.Drain();
  EXPECT_EQ(buf->collected().size() + buf->dropped(),
            static_cast<size_t>(emitted));
  EXPECT_GT(buf->dropped(), 0u);
}

TEST(TracerTest, TwoThreadStressAccountsForEveryEvent) {
  // Two producer threads hammer small rings while this thread drains
  // concurrently; at the end, collected + dropped == emitted, per thread.
  Tracer tracer(/*buffer_capacity=*/32);
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<TraceBuffer*> bufs(2, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      TraceBuffer* buf = tracer.RegisterThread("worker" + std::to_string(t));
      bufs[t] = buf;
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(buf, "stress");
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent drains exercise the SPSC consumer side against live
  // producers.
  for (int i = 0; i < 50; ++i) {
    tracer.Drain();
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();
  tracer.Drain();  // final drain after quiesce

  uint64_t collected = 0;
  uint64_t dropped = 0;
  for (TraceBuffer* buf : bufs) {
    ASSERT_NE(buf, nullptr);
    collected += buf->collected().size();
    dropped += buf->dropped();
  }
  EXPECT_EQ(collected + dropped, 2u * kPerThread);
  EXPECT_GT(collected, 0u);
  EXPECT_EQ(tracer.collected_events(), collected);
  EXPECT_EQ(tracer.dropped_events(), dropped);
}

TEST(TracerTest, ChromeTraceIsWellFormedJson) {
  Tracer tracer(/*buffer_capacity=*/16);
  TraceBuffer* buf = tracer.RegisterThread("na\"me\\with\nescapes");
  { ScopedSpan span(buf, "span_a"); }
  buf->Instant("instant_b");
  for (int i = 0; i < 40; ++i) buf->Emit({"overflow", i, 1});  // force drops
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // drop counter
  EXPECT_NE(json.find("span_a"), std::string::npos);
}

TEST(MetricsRegistryTest, GetIsIdempotentAndStable) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("events");
  EXPECT_EQ(reg.GetCounter("events"), c);
  c->Add(3);
  c->Add();
  EXPECT_EQ(c->Value(), 4u);

  Gauge* g = reg.GetGauge("level");
  EXPECT_EQ(reg.GetGauge("level"), g);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);

  HistogramMetric* h = reg.GetHistogram("lat");
  EXPECT_EQ(reg.GetHistogram("lat"), h);
  h->Record(0.5);
  h->Record(1.5);
  const LatencyHistogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), 2u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1.0);
}

TEST(MetricsRegistryTest, JsonLineIsWellFormedAndCarriesValues) {
  MetricsRegistry reg;
  reg.GetCounter("pumps")->Add(42);
  reg.GetGauge("alpha")->Set(0.25);
  reg.GetHistogram("lateness")->Record(0.001);
  std::ostringstream out;
  reg.WriteJsonLine(1.5, out);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  JsonChecker checker(line);
  EXPECT_TRUE(checker.Valid()) << line;
  EXPECT_NE(line.find("\"pumps\":42"), std::string::npos);
  EXPECT_NE(line.find("\"alpha\""), std::string::npos);
  EXPECT_NE(line.find("\"lateness\""), std::string::npos);
  EXPECT_NE(line.find("\"p99\""), std::string::npos);
}

TEST(TelemetryTest, DisabledWhenDirEmpty) {
  TelemetryOptions options;  // dir empty
  EXPECT_EQ(Telemetry::Open(options), nullptr);
}

TEST(TelemetryTest, SessionWritesTraceAndMetricsFiles) {
  TelemetryOptions options;
  options.dir = TempDir("session");
  options.export_period_wall = 0.01;
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(options);
  ASSERT_NE(telemetry, nullptr);

  TraceBuffer* buf = telemetry->RegisterThread("test_main");
  ASSERT_NE(buf, nullptr);
  { ScopedSpan span(buf, "unit_of_work"); }
  telemetry->metrics()->GetCounter("test.count")->Add(7);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  telemetry->Stop();
  telemetry->Stop();  // idempotent

  EXPECT_GE(telemetry->trace_events(), 1u);
  EXPECT_EQ(telemetry->trace_dropped(), 0u);

  const std::string trace = ReadFile(telemetry->trace_path());
  JsonChecker trace_checker(trace);
  EXPECT_TRUE(trace_checker.Valid());
  EXPECT_NE(trace.find("unit_of_work"), std::string::npos);
  EXPECT_NE(trace.find("test_main"), std::string::npos);

  const std::string metrics = ReadFile(telemetry->metrics_path());
  std::istringstream lines(metrics);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    JsonChecker line_checker(line);
    EXPECT_TRUE(line_checker.Valid()) << line;
    ++n;
  }
  EXPECT_GE(n, 1);
  EXPECT_NE(metrics.find("test.count"), std::string::npos);

  std::filesystem::remove_all(options.dir);
}

TEST(TelemetryTest, TraceOffStillExportsMetrics) {
  TelemetryOptions options;
  options.dir = TempDir("notrace");
  options.trace = false;
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(options);
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->RegisterThread("anything"), nullptr);
  EXPECT_EQ(telemetry->tracer(), nullptr);
  telemetry->metrics()->GetGauge("g")->Set(1.0);
  telemetry->Stop();
  EXPECT_EQ(telemetry->trace_events(), 0u);
  EXPECT_FALSE(ReadFile(telemetry->metrics_path()).empty());
  std::filesystem::remove_all(options.dir);
}

/// One blocking GET against the loopback server; the response up to EOF.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(static_cast<ssize_t>(req.size()),
            ::send(fd, req.data(), req.size(), 0));
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(TelemetryTest, StatusSourceSwapsWhileServing) {
  // Every runner installs its status source after Open, while the server
  // already serves /status; a swap must never race a request in flight
  // (the TSan legs run this).
  TelemetryOptions options;
  options.server_port = 0;
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(options);
  ASSERT_NE(telemetry, nullptr);
  const int port = telemetry->server()->port();

  std::atomic<bool> done{false};
  std::atomic<int> served{0};
  std::thread poller([&] {
    while (!done.load()) {
      const std::string r = HttpGet(port, "/status");
      if (r.find("200 OK") != std::string::npos &&
          r.find("\"run\":") != std::string::npos) {
        served.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    telemetry->SetStatusSource(
        [i] { return "{\"swap\":" + std::to_string(i) + "}"; });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  poller.join();

  EXPECT_GT(served.load(), 0);
  EXPECT_NE(HttpGet(port, "/status").find("\"run\":{\"swap\":49}"),
            std::string::npos);
  telemetry->Stop();
}

Recorder MakeRecorder() {
  Recorder r;
  PeriodMeasurement m;
  m.k = 1;
  m.t = 1.0;
  m.period = 1.0;
  m.target_delay = 2.0;
  m.fin = 100.0;
  m.fin_forecast = 110.0;
  m.admitted = 80.0;
  m.fout = 75.0;
  m.queue = 12.0;
  m.cost = 0.005;
  m.y_hat = 1.75;
  m.y_measured = 1.8;
  m.has_y_measured = true;
  r.Record(PeriodRecord{m, 85.0, 0.2, 0.001});
  m.k = 2;
  m.t = 2.0;
  m.has_y_measured = false;  // lull: y_meas should export as null/nan
  r.Record(PeriodRecord{m, 90.0, 0.1});
  return r;
}

TEST(TimelineTest, JsonlRowsAreWellFormedAndCarryControlSignals) {
  const Recorder r = MakeRecorder();
  std::string text;
  int n = 0;
  for (const PeriodRecord& row : r.rows()) {
    PeriodJsonBuffer buf;
    const std::string line(FormatPeriodJson(ValuesOf(row), &buf));
    JsonChecker checker(line);
    EXPECT_TRUE(checker.Valid()) << line;
    for (const char* key : {"\"k\"", "\"q\"", "\"y_hat\"", "\"e\"", "\"u\"",
                            "\"v\"", "\"alpha\"", "\"loss\"", "\"lateness\""}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
    text += line + "\n";
    ++n;
  }
  EXPECT_EQ(n, 2);
  // Derived signals of row 1: e = yd - y_hat = 0.25; u = v - fout = 10.
  EXPECT_NE(text.find("\"e\":0.25"), std::string::npos) << text;
  EXPECT_NE(text.find("\"u\":10"), std::string::npos) << text;
  // Row 2 has no departures: y_meas must be JSON null.
  EXPECT_NE(text.find("\"y_meas\":null"), std::string::npos) << text;
}

/// Publishes `rows` through a file-only Telemetry session in `dir`.
void PublishTimeline(const std::vector<PeriodRecord>& rows,
                     const std::string& dir) {
  TelemetryOptions options;
  options.dir = dir;
  options.trace = false;
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(options);
  ASSERT_NE(telemetry, nullptr);
  for (const PeriodRecord& row : rows) telemetry->PublishTimelineRow(row);
  telemetry->Stop();
  EXPECT_EQ(telemetry->timeline_rows(), rows.size());
}

TEST(TimelineTest, WriteControlTimelineProducesBothFiles) {
  const Recorder r = MakeRecorder();
  const std::string dir = TempDir("timeline");
  PublishTimeline(r.rows(), dir);
  const std::string csv = ReadFile(TimelineCsvPath(dir));
  EXPECT_NE(csv.find("k,t,"), std::string::npos);
  EXPECT_NE(csv.find("lateness"), std::string::npos);
  const std::string jsonl = ReadFile(TimelineJsonlPath(dir));
  EXPECT_NE(jsonl.find("\"y_hat\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TelemetryTest, FlightDumpLandsInALongTelemetryDir) {
  // About 600 bytes: past the 512-byte dump path the recorder once held,
  // well inside PATH_MAX.
  const std::string root = TempDir("longdir");
  std::string dir = root;
  while (dir.size() < 600) dir += "/" + std::string(100, 'd');
  TelemetryOptions options;
  options.dir = dir;
  options.trace = false;
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(options);
  ASSERT_NE(telemetry, nullptr);
  const std::string dump = dir + "/ctrlshed.flightdump.json";
  EXPECT_EQ(FlightDumpPath(), dump);
  ASSERT_TRUE(WriteFlightDump("request", "unit test"));
  EXPECT_TRUE(std::filesystem::exists(dump));
  telemetry->Stop();
  std::filesystem::remove_all(root);
}

// ---- The period schema (kPeriodFields) -----------------------------------

/// y_meas set, h_hat finite, split site, three shards.
PeriodRecord PinnedRecord() {
  PeriodRecord r;
  r.m.k = 7;
  r.m.t = 7.5;
  r.m.period = 0.5;
  r.m.target_delay = 2.0;
  r.m.fin = 310.5;
  r.m.fin_forecast = 320.25;
  r.m.admitted = 201.3;
  r.m.fout = 200.9;
  r.m.queue = 402.1;
  r.m.cost = 0.005;
  r.m.y_hat = 2.01;
  r.m.y_measured = 1.9;
  r.m.has_y_measured = true;
  r.v = 201.0;
  r.alpha = 0.35;
  r.lateness = 0.0001;
  r.site = ActuationSite::kSplit;
  r.queue_shed = 12.0;
  r.h_hat = 0.96;
  r.shard_q = {100.5, 150.25, 151.35};
  return r;
}

/// Every case the schema's optional rules tell apart: y_meas set and
/// unset, h_hat NaN and finite, no shards and three, each ActuationSite.
std::vector<PeriodRecord> SchemaRecords() {
  std::vector<PeriodRecord> rows;
  for (const bool has_y_meas : {true, false}) {
    for (const bool has_h_hat : {false, true}) {
      for (const bool sharded : {false, true}) {
        for (const ActuationSite site :
             {ActuationSite::kEntry, ActuationSite::kInNetwork,
              ActuationSite::kSplit}) {
          PeriodRecord r = PinnedRecord();
          r.m.k = static_cast<int>(rows.size()) + 1;
          r.m.has_y_measured = has_y_meas;
          if (!has_h_hat) r.h_hat = std::numeric_limits<double>::quiet_NaN();
          if (!sharded) r.shard_q.clear();
          r.site = site;
          rows.push_back(r);
        }
      }
    }
  }
  return rows;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells(1);
  for (const char c : line) {
    if (c == ',') {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

/// The members of a flat JSON object, in order, each value verbatim (a
/// number, null, a quoted string or an array).
std::vector<std::pair<std::string, std::string>> Members(
    const std::string& obj) {
  std::vector<std::pair<std::string, std::string>> members;
  size_t i = 1;  // past '{'
  while (i < obj.size() && obj[i] == '"') {
    const size_t key_end = obj.find('"', i + 1);
    const size_t value_begin = key_end + 2;  // past '":'
    size_t j = value_begin;
    int depth = 0;
    bool in_string = false;
    for (; j < obj.size(); ++j) {
      const char c = obj[j];
      if (in_string) {
        in_string = c != '"';
      } else if (c == '"') {
        in_string = true;
      } else if (c == '[') {
        ++depth;
      } else if (c == ']') {
        --depth;
      } else if ((c == ',' || c == '}') && depth == 0) {
        break;
      }
    }
    members.emplace_back(obj.substr(i + 1, key_end - i - 1),
                         obj.substr(value_begin, j - value_begin));
    i = j + 1;
  }
  return members;
}

/// The period objects of recorder `name` in a flight dump.
std::vector<std::string> DumpPeriods(const std::string& dump,
                                     const std::string& name) {
  std::vector<std::string> periods;
  const std::string open = "\"periods\":[";
  size_t pos = dump.find(open, dump.find("\"name\":\"" + name + "\""));
  if (pos == std::string::npos) return periods;
  for (pos += open.size(); dump[pos] == '{';) {
    const size_t end = dump.find('}', pos) + 1;
    periods.push_back(dump.substr(pos, end - pos));
    pos = dump[end] == ',' ? end + 1 : end;
  }
  return periods;
}

TEST(PeriodSchemaTest, BytesMatchThePinnedFormat) {
  const std::string dir = TempDir("pinned");
  PublishTimeline({PinnedRecord()}, dir);
  EXPECT_EQ(ReadFile(TimelineCsvPath(dir)),
            "k,t,period,yd,fin,fin_forecast,admitted,fout,q,c,y_hat,y_meas,"
            "e,u,v,alpha,loss,lateness,site,queue_shed\n"
            "7,7.5,0.5,2,310.5,320.25,201.30000000000001,200.90000000000001,"
            "402.10000000000002,0.0050000000000000001,2.0099999999999998,"
            "1.8999999999999999,-0.0099999999999997868,0.099999999999994316,"
            "201,0.34999999999999998,0.35169082125603862,0.0001,split,12\n");
  EXPECT_EQ(ReadFile(TimelineJsonlPath(dir)),
            "{\"k\":7,\"t\":7.5,\"yd\":2,\"fin\":310.5,\"fin_forecast\":320.25,"
            "\"admitted\":201.30000000000001,\"fout\":200.90000000000001,"
            "\"q\":402.10000000000002,\"c\":0.0050000000000000001,"
            "\"y_hat\":2.0099999999999998,\"y_meas\":1.8999999999999999,"
            "\"e\":-0.0099999999999997868,\"u\":0.099999999999994316,"
            "\"v\":201,\"alpha\":0.34999999999999998,"
            "\"loss\":0.35169082125603862,\"lateness\":0.0001,"
            "\"site\":\"split\",\"queue_shed\":12,"
            "\"h_hat\":0.95999999999999996,\"shards\":3,"
            "\"shard_q\":[100.5,150.25,151.34999999999999]}\n");
  std::filesystem::remove_all(dir);
}

// Walks kPeriodFields, so a new field needs no edit here.
TEST(PeriodSchemaTest, EverySurfaceAgreesWithTheTable) {
  const std::vector<PeriodRecord> rows = SchemaRecords();
  const std::string dir = TempDir("schema");
  PublishTimeline(rows, dir);
  FlightRecorder flight("schema");
  for (const PeriodRecord& row : rows) flight.RecordPeriod(row);
  ASSERT_TRUE(SetFlightDumpPath(dir + "/schema.flightdump.json"));
  ASSERT_TRUE(WriteFlightDump("request", "unit test"));

  const std::vector<std::string> csv = Lines(ReadFile(TimelineCsvPath(dir)));
  const std::vector<std::string> jsonl =
      Lines(ReadFile(TimelineJsonlPath(dir)));
  const std::vector<std::string> dumped =
      DumpPeriods(ReadFile(dir + "/schema.flightdump.json"), "schema");
  ASSERT_EQ(csv.size(), rows.size() + 1);
  ASSERT_EQ(jsonl.size(), rows.size());
  ASSERT_EQ(dumped.size(), rows.size());

  std::vector<std::string> csv_names;
  for (const PeriodField& f : kPeriodFields) {
    if ((f.surfaces & kCsv) != 0) csv_names.push_back(f.name);
  }
  EXPECT_EQ(SplitCsv(csv[0]), csv_names);

  for (size_t r = 0; r < rows.size(); ++r) {
    SCOPED_TRACE(jsonl[r]);
    JsonChecker checker(jsonl[r]);
    EXPECT_TRUE(checker.Valid());
    const PeriodValues values = ValuesOf(rows[r]);
    const std::vector<std::string> cells = SplitCsv(csv[r + 1]);
    ASSERT_EQ(cells.size(), csv_names.size());
    const auto members = Members(jsonl[r]);
    size_t cell = 0;
    size_t member = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      const PeriodField& f = kPeriodFields[i];
      SCOPED_TRACE(f.name);
      const bool finite = std::isfinite(values[i]);
      // The CSV cell: the value itself, `nan` when not finite.
      std::string csv_cell;
      if ((f.surfaces & kCsv) != 0) {
        csv_cell = cells[cell++];
        if (!finite) {
          EXPECT_EQ(csv_cell, "nan");
        } else if (f.format == FieldFormat::kSite) {
          EXPECT_EQ(csv_cell, ActuationSiteName(rows[r].site));
        } else {
          EXPECT_EQ(std::strtod(csv_cell.c_str(), nullptr), values[i]);
        }
      }
      if ((f.surfaces & kJson) == 0) {
        for (const auto& m : members) EXPECT_NE(m.first, f.name);
        continue;
      }
      if (!finite && f.nan == NanRule::kOmit) {
        for (const auto& m : members) EXPECT_NE(m.first, f.name);
        continue;
      }
      ASSERT_LT(member, members.size());
      EXPECT_EQ(members[member].first, f.name);
      const std::string& json = members[member++].second;
      if (!finite) {
        EXPECT_EQ(json, "null");
      } else if (f.format == FieldFormat::kSite) {
        // Built with += : GCC 12 reports a -Wrestrict false positive on the
        // chained operator+ at -O3.
        std::string quoted = "\"";
        quoted += ActuationSiteName(rows[r].site);
        quoted += '"';
        EXPECT_EQ(json, quoted);
      } else if ((f.surfaces & kCsv) != 0) {
        EXPECT_EQ(json, csv_cell);
      } else {
        EXPECT_EQ(std::strtod(json.c_str(), nullptr), values[i]);
      }
    }
    // Sharded rows end in the shard fields; the flight dump has none.
    std::string unsharded = jsonl[r];
    if (rows[r].shard_q.empty()) {
      EXPECT_EQ(member, members.size());
    } else {
      ASSERT_EQ(member + 2, members.size());
      EXPECT_EQ(members[member].first, "shards");
      EXPECT_EQ(members[member].second, "3");
      EXPECT_EQ(members[member + 1].first, "shard_q");
      EXPECT_EQ(members[member + 1].second,
                "[100.5,150.25,151.34999999999999]");
      unsharded = unsharded.substr(0, unsharded.find(",\"shards\":")) + "}";
    }
    EXPECT_EQ(dumped[r], unsharded);
  }
  std::filesystem::remove_all(dir);
}

TEST(PeriodSchemaTest, WorstWidthRowIsNotTruncated) {
  // %.17g of a negative subnormal: the widest number there is.
  const double worst = -1.2345678901234567e-308;
  PeriodValues values;
  values.fill(worst);
  for (size_t i = 0; i < values.size(); ++i) {
    if (kPeriodFields[i].format == FieldFormat::kInt) values[i] = INT_MIN;
    if (kPeriodFields[i].format == FieldFormat::kSite) {
      values[i] = static_cast<double>(ActuationSite::kInNetwork);
    }
  }
  char widest[40];
  std::snprintf(widest, sizeof(widest), "%.17g", worst);
  ASSERT_EQ(std::strlen(widest), kMaxValueChars);

  PeriodJsonBuffer buf;
  const std::string json(FormatPeriodJson(values, &buf));
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_LT(json.size(), buf.size());
  const auto members = Members(json);
  std::ostringstream csv;
  WritePeriodCsvRow(values, csv);
  const std::vector<std::string> cells =
      SplitCsv(csv.str().substr(0, csv.str().size() - 1));
  size_t cell = 0;
  size_t member = 0;
  for (const PeriodField& f : kPeriodFields) {
    const std::string expected = f.format == FieldFormat::kInt ? "-2147483648"
                                 : f.format == FieldFormat::kSite
                                     ? "in_network"
                                     : widest;
    if ((f.surfaces & kCsv) != 0) {
      ASSERT_LT(cell, cells.size());
      EXPECT_EQ(cells[cell++], expected) << f.name;
    }
    if ((f.surfaces & kJson) != 0) {
      ASSERT_LT(member, members.size());
      EXPECT_EQ(members[member].first, f.name);
      EXPECT_EQ(members[member++].second,
                f.format == FieldFormat::kSite ? "\"" + expected + "\""
                                               : expected);
    }
  }
  EXPECT_EQ(cell, cells.size());
  EXPECT_EQ(member, members.size());
}

}  // namespace
}  // namespace ctrlshed
