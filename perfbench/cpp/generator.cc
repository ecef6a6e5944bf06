#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "inputs.h"
#include "net/frame.h"
#include "proc_stats.h"

extern char** environ;

namespace perfbench {

namespace {

// The generator stops this many wall seconds before the node does, so
// every frame it sends reaches the node's entry gate before the node's
// ingress closes, even when a shared host held the generator back.
constexpr double kStopMarginWall = 0.25;
// Encoding lead and step, trace seconds, and how many written frames may
// pile up before the buffer front is dropped.
constexpr double kLead = 1.0;
constexpr double kChunk = 0.005;
constexpr size_t kCompactFrames = 8192;
constexpr int kChildIn = 3;
constexpr int kChildOut = 4;

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Reads one '\n'-terminated line from a blocking fd.
bool ReadLineBlocking(int fd, std::string* line) {
  line->clear();
  char c = 0;
  for (;;) {
    const ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

}  // namespace

// --- Child ------------------------------------------------------------------

int GeneratorMain(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double duration = 0.0;
  int cpu = -1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") workload = v;
    if (key == "--seed") seed = std::strtoull(v, nullptr, 10);
    if (key == "--duration") duration = std::strtod(v, nullptr);
    if (key == "--cpu") cpu = std::atoi(v);
  }
  if (workload.empty()) return 2;
  // Frames are encoded ahead of their due time, kLead trace seconds at a
  // time, in small chunks done only while waiting for the next due frame,
  // so memory stays bounded however long the run is.
  const Plant plant = PlantOf(workload, seed, duration);
  const double compression = plant.compression;
  const double end = duration - kStopMarginWall * compression;
  if (end <= 0.0) return 2;
  signal(SIGPIPE, SIG_IGN);  // a node that hangs up ends the feed, not us
  if (cpu >= 0) RestrictToCpus({cpu});

  FrameStream stream;
  FrameSlicer slicer(plant.workers, kTuplesPerFrame, &stream);
  ArrivalStreams arrivals(plant.base, plant.workers,
                          [&slicer](const ctrlshed::Tuple& t) { slicer.Add(t); });
  double horizon = 0.0;
  auto encode_chunk = [&] {
    horizon = std::min(horizon + kChunk, end);
    arrivals.RunUntil(horizon);
  };
  const double t_prep = WallSeconds();
  while (horizon < std::min(kLead, end)) encode_chunk();
  const double prepare_s = WallSeconds() - t_prep;

  const std::string ready = "ready\n";
  if (!WriteAll(kChildOut, ready.data(), ready.size())) return 3;
  std::string go;
  if (!ReadLineBlocking(kChildIn, &go) || go.rfind("go ", 0) != 0) return 4;
  // Trace time zero: the node's on_ready, which is when the parent wrote
  // "go". Tuples carry the arrival stamps of this clock.
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const int port = std::atoi(go.c_str() + 3);
  const int fd = ConnectLoopback(port);
  if (fd < 0) return 5;

  std::vector<double> lateness;
  lateness.reserve(1 << 20);
  GeneratorReport rep;
  rep.prepare_s = prepare_s;
  size_t next = 0;  // next frame to write
  for (;;) {
    if (next == stream.frames.size()) {
      if (horizon >= end) break;
      encode_chunk();
      continue;
    }
    const FrameRef f = stream.frames[next];
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(f.due / compression));
    auto now = Clock::now();
    // Open loop: wait for the due time, encoding ahead meanwhile.
    while (now < due) {
      const double trace_now =
          std::chrono::duration<double>(now - t0).count() * compression;
      if (horizon < end && horizon < trace_now + kLead) {
        encode_chunk();
      } else if (next >= kCompactFrames) {
        const size_t drop = f.offset - stream.erased;
        stream.bytes.erase(0, drop);
        stream.erased += drop;
        stream.frames.erase(stream.frames.begin(),
                            stream.frames.begin() + static_cast<long>(next));
        next = 0;
      }
      now = Clock::now();
    }
    lateness.push_back(std::chrono::duration<double>(now - due).count());
    if (!WriteAll(fd, stream.bytes.data() + (f.offset - stream.erased), f.bytes)) {
      break;
    }
    ++next;
    ++rep.sent_frames;
    rep.sent_tuples += f.tuples;
  }
  close(fd);
  // After a normal end every frame due inside the window was encoded and
  // written; after a failed write the unsent frames count as generated.
  rep.generated = stream.tuples;
  rep.frames = rep.sent_frames + (stream.frames.size() - next);
  rep.lateness_p50_ms = 1e3 * Quantile(lateness, 0.5);
  rep.lateness_p99_ms = 1e3 * Quantile(lateness, 0.99);
  rep.lateness_max_ms = 1e3 * Quantile(lateness, 1.0);

  char line[256];
  std::snprintf(line, sizeof(line),
                "done %llu %llu %llu %llu %.17g %.17g %.17g %.17g\n",
                static_cast<unsigned long long>(rep.generated),
                static_cast<unsigned long long>(rep.frames),
                static_cast<unsigned long long>(rep.sent_tuples),
                static_cast<unsigned long long>(rep.sent_frames),
                rep.lateness_p50_ms, rep.lateness_p99_ms, rep.lateness_max_ms,
                rep.prepare_s);
  return WriteAll(kChildOut, line, std::strlen(line)) ? 0 : 6;
}

// --- Parent -----------------------------------------------------------------

GeneratorProcess::~GeneratorProcess() { Kill(); }

bool GeneratorProcess::Spawn(const std::string& workload, uint64_t seed,
                             double duration, int cpu, std::string* error) {
  const std::string self = "/proc/self/exe";
  int down[2], up[2];
  if (pipe2(down, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  if (pipe2(up, O_CLOEXEC) != 0) {
    close(down[0]);
    close(down[1]);
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, down[0], kChildIn);
  posix_spawn_file_actions_adddup2(&fa, up[1], kChildOut);
  const std::vector<std::string> args = {
      self,         "--generator",
      "--workload", workload,
      "--seed",     std::to_string(seed),
      "--duration", std::to_string(duration),
      "--cpu",      std::to_string(cpu)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc =
      posix_spawn(&pid_, self.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(down[0]);
  close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
  if (rc != 0) {
    pid_ = -1;
    *error = std::string("posix_spawn failed: ") + std::strerror(rc);
    return false;
  }
  return true;
}

bool GeneratorProcess::ReadLine(std::string* line, double timeout_s) {
  const double deadline = WallSeconds() + timeout_s;
  for (;;) {
    const size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      *line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    const double left = deadline - WallSeconds();
    if (left <= 0.0) return false;
    pollfd p{from_child_, POLLIN, 0};
    const int r = poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char buf[512];
    const ssize_t n = read(from_child_, buf, sizeof(buf));
    if (n <= 0) return false;  // the generator exited
    pending_.append(buf, static_cast<size_t>(n));
  }
}

bool GeneratorProcess::WaitReady(std::string* error) {
  std::string line;
  if (!ReadLine(&line, 120.0) || line != "ready") {
    *error = "generator did not get ready";
    return false;
  }
  return true;
}

bool GeneratorProcess::Go(int port) {
  const std::string line = "go " + std::to_string(port) + "\n";
  return WriteAll(to_child_, line.data(), line.size());
}

bool GeneratorProcess::Finish(GeneratorReport* report, std::string* error) {
  std::string line;
  const bool got = ReadLine(&line, 60.0);
  int status = 0;
  if (pid_ > 0) {
    if (!got) kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  close(to_child_);
  close(from_child_);
  to_child_ = from_child_ = -1;
  unsigned long long g = 0, f = 0, st = 0, sf = 0;
  if (!got || std::sscanf(line.c_str(), "done %llu %llu %llu %llu %lf %lf %lf %lf",
                          &g, &f, &st, &sf, &report->lateness_p50_ms,
                          &report->lateness_p99_ms, &report->lateness_max_ms,
                          &report->prepare_s) != 8) {
    *error = "generator gave no report (exit status " +
             std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1) + ")";
    return false;
  }
  report->generated = g;
  report->frames = f;
  report->sent_tuples = st;
  report->sent_frames = sf;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void GeneratorProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
  to_child_ = from_child_ = -1;
}

}  // namespace perfbench
