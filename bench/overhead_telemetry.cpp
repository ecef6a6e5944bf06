// overhead_telemetry — the observability tax on the rt pump loop.
//
// Replays the same overloaded constant-rate workload through the rt
// runtime three times: telemetry fully off, file sinks only (trace +
// metrics + timeline on disk), and file sinks plus the live HTTP server
// with an SSE /timeline subscriber attached for the whole run. The pump
// interval histogram (wall-clock spacing of engine pump iterations) is
// the overhead probe: everything telemetry adds — span emission,
// per-operator counters, timeline serialization, SSE fan-out — lands
// between pumps, so a telemetry implementation that blocks or contends
// widens the intervals.
//
// Knobs: OverheadArgs' rows in tools/cli/commands.h.
//
// Emits BENCH_telemetry.json (per-config pump stats and percent deltas
// vs. telemetry-off). Exit 0 iff the server-attached mean pump interval
// stays within 5% of telemetry-off (each config keeps its best of
// `reps` repetitions, so one scheduler hiccup does not fail the gate).
//
// The cluster cell (cluster=0 skips it) runs a controller plus two local
// nodes and two feeders in-process, twice: metrics-snapshot piggybacking
// on vs off, both with full node telemetry. The gate is the same probe
// one level up — the nodes' merged pump-interval mean with piggybacking
// must stay within 5% of the piggyback-off run. Emits
// BENCH_fleet_telemetry.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cli/commands.h"
#include "cluster/controller_runner.h"
#include "cluster/feeder.h"
#include "cluster/node_runner.h"
#include "rt/rt_runtime.h"

using namespace ctrlshed;

namespace {

/// A deliberately fast SSE subscriber: connects to /timeline and drains
/// everything the server sends until the run's teardown closes the
/// socket. Keeps one live client on the stream for the whole measured
/// window without ever becoming the bottleneck.
class SseDrain {
 public:
  void Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const char req[] =
        "GET /timeline HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    (void)::send(fd_, req, sizeof(req) - 1, 0);
    reader_ = std::thread([this] {
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) break;
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == '\n') ++lines_;
        }
      }
    });
  }

  /// Joins the reader (the server closing the stream ends it) and
  /// returns how many line terminators arrived — > 0 proves the
  /// subscription was live, not just accepted.
  uint64_t Finish() {
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    return lines_;
  }

  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  uint64_t lines_ = 0;
  std::thread reader_;
};

struct RunStats {
  double mean = 0.0;   // seconds
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  uint64_t pumps = 0;
  uint64_t timeline_rows = 0;
  uint64_t sse_rows = 0;
  uint64_t sse_dropped = 0;
  uint64_t client_lines = 0;
};

enum class Mode { kOff, kFile, kServer };

RunStats RunOnce(Mode mode, RtRunConfig cfg, const std::string& out_dir) {
  SseDrain drain;
  if (mode != Mode::kOff) cfg.base.telemetry.dir = out_dir;
  if (mode == Mode::kServer) {
    cfg.base.telemetry.server_port = 0;  // ephemeral
    cfg.base.telemetry.on_server_start = [&drain](int port) {
      drain.Connect(port);
    };
  }

  RtRunResult r = RunRtExperiment(cfg);

  RunStats s;
  s.mean = r.pump_intervals.Mean();
  s.p50 = r.pump_intervals.Quantile(0.50);
  s.p95 = r.pump_intervals.Quantile(0.95);
  s.max = r.pump_intervals.max();
  s.pumps = r.pump_intervals.count();
  s.timeline_rows = r.timeline_rows;
  s.sse_rows = r.sse_rows_published;
  s.sse_dropped = r.sse_rows_dropped;
  s.client_lines = drain.Finish();
  return s;
}

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kFile:
      return "file";
    case Mode::kServer:
      return "server";
  }
  return "?";
}

void PrintStats(const char* label, const RunStats& s) {
  std::printf("%-7s pump mean/p50/p95 %8.1f / %8.1f / %8.1f us  "
              "(%llu pumps, max %.2f ms)\n",
              label, s.mean * 1e6, s.p50 * 1e6, s.p95 * 1e6,
              static_cast<unsigned long long>(s.pumps), s.max * 1e3);
}

void WriteJson(const RunStats (&best)[3], double delta_file,
               double delta_server, bool pass) {
  FILE* f = std::fopen("BENCH_telemetry.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_telemetry.json");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"overhead_telemetry\",\n");
  std::fprintf(f, "  \"metric\": \"pump_interval_seconds\",\n");
  std::fprintf(f, "  \"configs\": {\n");
  const Mode modes[] = {Mode::kOff, Mode::kFile, Mode::kServer};
  for (int i = 0; i < 3; ++i) {
    const RunStats& s = best[i];
    std::fprintf(
        f,
        "    \"%s\": {\"mean\": %.9g, \"p50\": %.9g, \"p95\": %.9g, "
        "\"max\": %.9g, \"pumps\": %llu, \"timeline_rows\": %llu, "
        "\"sse_rows\": %llu, \"sse_dropped\": %llu, "
        "\"client_lines\": %llu}%s\n",
        ModeName(modes[i]), s.mean, s.p50, s.p95, s.max,
        static_cast<unsigned long long>(s.pumps),
        static_cast<unsigned long long>(s.timeline_rows),
        static_cast<unsigned long long>(s.sse_rows),
        static_cast<unsigned long long>(s.sse_dropped),
        static_cast<unsigned long long>(s.client_lines),
        i + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"mean_delta_pct\": {\"file\": %.3f, \"server\": %.3f},\n",
               delta_file, delta_server);
  std::fprintf(f, "  \"gate\": \"server mean within 5%% of off\",\n");
  std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
}

// --- Cluster cell -----------------------------------------------------------

struct FleetStats {
  double mean = 0.0;  // seconds, merged over both nodes' workers
  double p95 = 0.0;
  uint64_t pumps = 0;
  uint64_t reports = 0;
};

/// One in-process fleet: controller + two single-worker nodes + one web
/// feeder per node at ~2x capacity, all on threads over loopback TCP.
/// Both cells run with full node telemetry (registry + trace); the only
/// difference is whether each kStatsReport carries a metrics snapshot.
FleetStats RunFleetOnce(bool piggyback, double duration, double compress,
                        const std::string& out_dir) {
  ExperimentConfig control;
  control.method = Method::kCtrl;
  control.duration = duration;
  control.period = 1.0;
  control.target_delay = 2.0;

  std::promise<int> ctl_port_promise;
  auto ctl_port_future = ctl_port_promise.get_future();
  ClusterControllerResult ctl_result;
  std::thread ctl_thread([&] {
    ClusterControllerConfig cfg;
    cfg.base = control;
    cfg.base.telemetry.dir = out_dir + "/ctl";
    cfg.port = 0;
    cfg.min_nodes = 2;
    cfg.time_compression = compress;
    cfg.on_ready = [&ctl_port_promise](int port) {
      ctl_port_promise.set_value(port);
    };
    ctl_result = RunClusterController(cfg);
  });
  const int ctl_port = ctl_port_future.get();

  std::promise<int> node_port_promise[2];
  ClusterNodeResult node_result[2];
  std::vector<std::thread> node_threads;
  for (uint32_t id = 0; id < 2; ++id) {
    node_threads.emplace_back([&, id] {
      ClusterNodeConfig cfg;
      cfg.base = control;
      cfg.base.telemetry.dir =
          out_dir + "/node" + std::to_string(id);
      cfg.node_id = id;
      cfg.workers = 1;
      cfg.ingress_port = 0;
      cfg.controller_port = ctl_port;
      cfg.time_compression = compress;
      cfg.piggyback_metrics = piggyback;
      cfg.on_ready = [&, id](int port) {
        node_port_promise[id].set_value(port);
      };
      node_result[id] = RunClusterNode(cfg);
    });
  }
  const int ingress[2] = {node_port_promise[0].get_future().get(),
                          node_port_promise[1].get_future().get()};

  std::vector<std::thread> feed_threads;
  for (int i = 0; i < 2; ++i) {
    feed_threads.emplace_back([&, i] {
      ClusterFeedConfig cfg;
      cfg.base = control;
      cfg.base.workload = WorkloadKind::kWeb;
      cfg.base.web.mean_rate = 380.0;
      cfg.base.seed = 42 + static_cast<uint64_t>(i);
      cfg.port = ingress[i];
      cfg.source_id = static_cast<uint32_t>(i);
      cfg.time_compression = compress;
      (void)RunClusterFeeder(cfg);
    });
  }

  for (auto& t : feed_threads) t.join();
  for (auto& t : node_threads) t.join();
  ctl_thread.join();

  LatencyHistogram merged{1e-6, 1e3, 1.08};
  FleetStats s;
  for (int i = 0; i < 2; ++i) {
    merged.Merge(node_result[i].pump_intervals);
    s.reports += node_result[i].reports_sent;
  }
  s.mean = merged.Mean();
  s.p95 = merged.Quantile(0.95);
  s.pumps = merged.count();
  return s;
}

void WriteFleetJson(const FleetStats& off, const FleetStats& on,
                    double delta, bool pass) {
  FILE* f = std::fopen("BENCH_fleet_telemetry.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_fleet_telemetry.json");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"overhead_telemetry/fleet\",\n");
  std::fprintf(f, "  \"metric\": \"node_pump_interval_seconds\",\n");
  std::fprintf(f, "  \"configs\": {\n");
  const FleetStats* cells[] = {&off, &on};
  const char* names[] = {"piggyback_off", "piggyback_on"};
  for (int i = 0; i < 2; ++i) {
    std::fprintf(f,
                 "    \"%s\": {\"mean\": %.9g, \"p95\": %.9g, "
                 "\"pumps\": %llu, \"reports\": %llu}%s\n",
                 names[i], cells[i]->mean, cells[i]->p95,
                 static_cast<unsigned long long>(cells[i]->pumps),
                 static_cast<unsigned long long>(cells[i]->reports),
                 i == 0 ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"mean_delta_pct\": %.3f,\n", delta);
  std::fprintf(f,
               "  \"gate\": \"piggyback-on node pump mean within 5%% of "
               "piggyback-off\",\n");
  std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
}

/// Runs both fleet cells (best of `reps`) and gates the piggybacking
/// overhead. Returns true iff the gate holds.
bool RunClusterCell(double duration, double compress, int reps,
                    const std::string& out) {
  std::printf("\ncluster cell: controller + 2 nodes + 2 feeders, "
              "snapshot piggybacking off vs on\n");
  FleetStats best[2];
  for (int cell = 0; cell < 2; ++cell) {
    const bool piggyback = cell == 1;
    for (int rep = 0; rep < reps; ++rep) {
      const std::string dir = out + "/fleet_" +
                              (piggyback ? "on" : "off") + "_rep" +
                              std::to_string(rep);
      const FleetStats s = RunFleetOnce(piggyback, duration, compress, dir);
      if (rep == 0 || s.mean < best[cell].mean) best[cell] = s;
    }
    std::printf("piggyback %-3s node pump mean/p95 %8.1f / %8.1f us  "
                "(%llu pumps, %llu reports)\n",
                piggyback ? "on" : "off", best[cell].mean * 1e6,
                best[cell].p95 * 1e6,
                static_cast<unsigned long long>(best[cell].pumps),
                static_cast<unsigned long long>(best[cell].reports));
  }
  const double delta =
      100.0 * (best[1].mean - best[0].mean) / best[0].mean;
  const bool pass = delta <= 5.0;
  std::printf("node pump mean delta with piggybacking: %+.2f%%\n", delta);
  WriteFleetJson(best[0], best[1], delta, pass);
  std::printf("%s: piggybacking pump overhead %s 5%% "
              "(BENCH_fleet_telemetry.json written)\n",
              pass ? "PASS" : "FAIL", pass ? "within" : "exceeds");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("overhead_telemetry",
                "pump-loop overhead of file telemetry and the live server");

  OverheadArgs args;
  if (const std::string error = Parse(argc - 1, argv + 1, &args);
      !error.empty()) {
    std::fprintf(stderr, "overhead_telemetry: %s\n", error.c_str());
    return 2;
  }
  const double duration = args.cfg.base.duration;
  const double compress = args.cfg.time_compression;
  const double rate = args.cfg.base.constant_rate;
  const int reps = args.reps;
  const std::string& out = args.out;

  std::printf("constant %.0f t/s vs ~190 t/s capacity, %.0f trace s at "
              "%gx compression, best of %d reps per config\n\n",
              rate, duration, compress, reps);

  const Mode modes[] = {Mode::kOff, Mode::kFile, Mode::kServer};
  RunStats best[3];
  for (int m = 0; m < 3; ++m) {
    for (int rep = 0; rep < reps; ++rep) {
      const std::string dir =
          out + "/" + ModeName(modes[m]) + "_rep" + std::to_string(rep);
      const RunStats s = RunOnce(modes[m], args.cfg, dir);
      if (rep == 0 || s.mean < best[m].mean) best[m] = s;
    }
    PrintStats(ModeName(modes[m]), best[m]);
  }

  // Sanity: the server run must actually have streamed to a live client,
  // otherwise the "server" column quietly measures the file config.
  if (best[2].client_lines == 0 || best[2].sse_rows == 0) {
    std::printf("\nFAIL: the SSE subscriber saw no data — the server "
                "config did not exercise the live stream\n");
    WriteJson(best, 0.0, 0.0, false);
    return 1;
  }

  const double delta_file =
      100.0 * (best[1].mean - best[0].mean) / best[0].mean;
  const double delta_server =
      100.0 * (best[2].mean - best[0].mean) / best[0].mean;
  std::printf("\nmean pump interval delta vs off: file %+.2f%%, "
              "server+SSE %+.2f%%\n",
              delta_file, delta_server);
  std::printf("server streamed %llu rows (%llu dropped) to the drain "
              "client (%llu lines received)\n",
              static_cast<unsigned long long>(best[2].sse_rows),
              static_cast<unsigned long long>(best[2].sse_dropped),
              static_cast<unsigned long long>(best[2].client_lines));

  const bool pass = delta_server <= 5.0;
  WriteJson(best, delta_file, delta_server, pass);
  std::printf("%s: server-attached pump overhead %s 5%% of telemetry-off "
              "(BENCH_telemetry.json written)\n",
              pass ? "PASS" : "FAIL", pass ? "within" : "exceeds");

  bool fleet_pass = true;
  if (args.cluster) {
    fleet_pass = RunClusterCell(duration, compress, reps, out);
  }
  return pass && fleet_pass ? 0 : 1;
}
