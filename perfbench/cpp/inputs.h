// The benchmark's generated inputs: arrival streams drawn from the seed,
// and the same tuples sliced into pre-encoded kTupleBatch frames.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/tuple.h"
#include "runner/experiment.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"

namespace perfbench {

/// The arrivals of `streams` sources, delivered to a sink in arrival
/// order, generated incrementally. Source i replays the arrival trace of
/// `base` scaled by 1/streams with seed base.seed + 3 + i — the layout
/// RunRtExperiment and `ctrlshed feed` use, and at streams = 1 the sim's
/// own source.
class ArrivalStreams {
 public:
  using Sink = std::function<void(const ctrlshed::Tuple&)>;
  ArrivalStreams(const ctrlshed::ExperimentConfig& base, int streams,
                 Sink sink);
  ArrivalStreams(const ArrivalStreams&) = delete;
  ArrivalStreams& operator=(const ArrivalStreams&) = delete;

  /// Delivers every arrival up to trace time `t` not delivered yet.
  void RunUntil(double t);
  /// Simulation events dispatched so far (one per arrival).
  uint64_t events() const { return events_; }

 private:
  ctrlshed::Simulation sim_;
  std::vector<std::unique_ptr<ctrlshed::ArrivalSource>> sources_;
  Sink sink_;
  uint64_t events_ = 0;
};

/// One encoded frame inside a FrameStream's byte buffer.
struct FrameRef {
  double due = 0.0;  ///< Trace time of the frame's last tuple.
  size_t offset = 0;
  uint32_t bytes = 0;
  uint32_t tuples = 0;
};

/// Frames in due order, back to back in one buffer. A consumer may drop
/// written bytes from the front; `erased` counts them, so frame offsets
/// stay absolute (frame bytes start at bytes[offset - erased]).
struct FrameStream {
  std::string bytes;
  size_t erased = 0;
  std::vector<FrameRef> frames;
  uint64_t tuples = 0;
};

/// Slices each source's tuples into frames of exactly `per_frame`
/// consecutive tuples (fixed boundaries, so the same seed gives the same
/// bytes) and appends each frame when its last tuple arrives. A source's
/// trailing partial frame is never emitted.
class FrameSlicer {
 public:
  FrameSlicer(int streams, size_t per_frame, FrameStream* out);
  void Add(const ctrlshed::Tuple& t);

 private:
  size_t per_frame_;
  FrameStream* out_;
  std::vector<std::vector<ctrlshed::Tuple>> staging_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
