#include "cluster/feeder.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "net/frame.h"
#include "net/frame_client.h"
#include "net/socket_util.h"
#include "rt/rt_clock.h"
#include "rt/rt_source.h"

namespace ctrlshed {

ClusterFeedResult RunClusterFeeder(const ClusterFeedConfig& config) {
  const ExperimentConfig& base = config.base;
  CS_CHECK_MSG(config.port > 0, "feed needs a node ingress port");
  CS_CHECK_MSG(config.sources >= 1 && config.sources <= 64,
               "sources must be in [1, 64]");
  CS_CHECK_MSG(config.rate_scale > 0.0, "rate_scale must be positive");
  IgnoreSigPipe();

  ClusterFeedResult result;
  FrameClient client;  // send-only: no OnFrame handler
  result.connected =
      client.Connect(config.host, config.port, config.connect_timeout_wall);
  if (!result.connected) return result;

  RtClock clock(config.time_compression);

  std::atomic<uint64_t> tuples_sent{0};
  std::atomic<uint64_t> frames_sent{0};
  std::vector<std::unique_ptr<RtArrivalSource>> streams;
  for (ArrivalSource& stream :
       ArrivalSourcesFor(base, config.sources,
                         static_cast<int>(config.source_id),
                         config.rate_scale)) {
    streams.push_back(std::make_unique<RtArrivalSource>(std::move(stream),
                                                        kRtPacingWallSeconds));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  clock.Start();
  for (int i = 0; i < config.sources; ++i) {
    const uint32_t wire_source = config.source_id + static_cast<uint32_t>(i);
    // The sink runs on this stream's replay thread; FrameClient::Send is
    // mutex-serialized, so the streams can share one connection.
    streams[static_cast<size_t>(i)]->Start(
        &clock, [&client, &tuples_sent, &frames_sent, wire_source](
                    const Tuple* tuples, size_t n) {
          if (client.Send(EncodeTupleBatchFrame(wire_source, tuples, n))) {
            tuples_sent.fetch_add(n, std::memory_order_relaxed);
            frames_sent.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }

  // A dropped node connection also ends the feed: nothing left to feed.
  SleepUntilWall(clock.WallDeadline(base.duration), [&config, &client] {
    return StopRequested(config.stop) || !client.connected();
  });
  result.interrupted = StopRequested(config.stop);

  for (auto& stream : streams) stream->Stop();
  client.Close();
  const auto wall_end = std::chrono::steady_clock::now();

  result.tuples_sent = tuples_sent.load(std::memory_order_relaxed);
  result.frames_sent = frames_sent.load(std::memory_order_relaxed);
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

}  // namespace ctrlshed
