#ifndef CTRLSHED_TELEMETRY_TIMELINE_H_
#define CTRLSHED_TELEMETRY_TIMELINE_H_

#include <filesystem>
#include <string>

namespace ctrlshed {

/// Paths of the control-loop timeline inside a telemetry `dir`. Telemetry
/// writes both files, a row per period (Telemetry::PublishTimelineRow).
inline std::string TimelineCsvPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "timeline.csv").string();
}
inline std::string TimelineJsonlPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "timeline.jsonl").string();
}

}  // namespace ctrlshed

#endif  // CTRLSHED_TELEMETRY_TIMELINE_H_
