#include "inputs.h"

#include <utility>

#include "net/frame.h"

namespace perfbench {

ArrivalStreams::ArrivalStreams(const ctrlshed::ExperimentConfig& base,
                               int streams, Sink sink)
    : sink_(std::move(sink)) {
  const ctrlshed::RateTrace full = ctrlshed::BuildArrivalTrace(base);
  for (int i = 0; i < streams; ++i) {
    sources_.push_back(std::make_unique<ctrlshed::ArrivalSource>(
        i, streams == 1 ? full : full.Scaled(1.0 / streams), base.spacing,
        base.seed + 3 + static_cast<uint64_t>(i)));
    sources_.back()->Start(&sim_, [this](const ctrlshed::Tuple& t) {
      ++events_;
      sink_(t);
    });
  }
}

void ArrivalStreams::RunUntil(double t) { sim_.Run(t); }

FrameSlicer::FrameSlicer(int streams, size_t per_frame, FrameStream* out)
    : per_frame_(per_frame), out_(out), staging_(static_cast<size_t>(streams)) {
  for (auto& s : staging_) s.reserve(per_frame);
}

void FrameSlicer::Add(const ctrlshed::Tuple& t) {
  std::vector<ctrlshed::Tuple>& s = staging_[static_cast<size_t>(t.source)];
  s.push_back(t);
  if (s.size() < per_frame_) return;
  const std::string frame = ctrlshed::EncodeTupleBatchFrame(
      static_cast<uint32_t>(t.source), s.data(), s.size());
  out_->frames.push_back(FrameRef{t.arrival_time,
                                  out_->erased + out_->bytes.size(),
                                  static_cast<uint32_t>(frame.size()),
                                  static_cast<uint32_t>(s.size())});
  out_->bytes += frame;
  out_->tuples += s.size();
  s.clear();
}

}  // namespace perfbench
