#include "telemetry/flight_recorder.h"

#include <climits>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/macros.h"

namespace ctrlshed {
namespace {

PeriodRecord MakeRow(uint64_t k) {
  PeriodRecord row;
  row.m.k = static_cast<int>(k);
  row.m.t = static_cast<double>(k);
  row.m.target_delay = 2.0;
  row.m.fin = 100.0 + static_cast<double>(k);
  row.m.y_hat = 1.5;
  row.v = 90.0;
  row.alpha = 0.25;
  row.h_hat = 0.5;  // exactly representable: %.17g prints the short form
  return row;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

size_t CountOccurrences(const std::string& s, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Structural JSON sanity: balanced braces/brackets outside strings, no
/// bare NaN/Infinity tokens. Not a full parser, but catches every way the
/// write()-based emitter could produce a torn or invalid document.
void ExpectWellFormedJson(const std::string& s) {
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(s.find("nan"), std::string::npos);
  EXPECT_EQ(s.find("inf"), std::string::npos);
}

std::string TempDumpPath(const char* tag) {
  return testing::TempDir() + "/flight_" + tag + ".flightdump.json";
}

TEST(FlightRecorderTest, RingKeepsLastPeriodsAfterWrap) {
  FlightRecorder rec("wrap");
  for (uint64_t k = 1; k <= 300; ++k) rec.RecordPeriod(MakeRow(k));
  EXPECT_EQ(rec.periods_recorded(), 300u);

  const std::string path = TempDumpPath("wrap");
  ASSERT_TRUE(SetFlightDumpPath(path));
  ASSERT_TRUE(WriteFlightDump("request", "unit test"));
  const std::string dump = ReadFile(path);
  ExpectWellFormedJson(dump);

  // The ring holds exactly the last kPeriodCapacity periods, oldest
  // first: 300 - 256 + 1 = 45 through 300.
  const size_t start = dump.find("\"name\":\"wrap\"");
  ASSERT_NE(start, std::string::npos);
  const std::string ours = dump.substr(start);
  EXPECT_EQ(CountOccurrences(ours, "{\"k\":"),
            FlightRecorder::kPeriodCapacity);
  EXPECT_NE(ours.find("\"k\":45,"), std::string::npos);
  EXPECT_NE(ours.find("\"k\":300,"), std::string::npos);
  EXPECT_EQ(ours.find("\"k\":44,"), std::string::npos);
  EXPECT_NE(ours.find("\"h_hat\":0.5"), std::string::npos);
}

TEST(FlightRecorderTest, EventsAreRecordedAndEscaped) {
  FlightRecorder rec("events");
  rec.RecordEvent("site_switch", "entry -> split", 12.5);
  rec.RecordEvent("decode_reject", "quote \" and back\\slash");
  EXPECT_EQ(rec.events_recorded(), 2u);

  const std::string path = TempDumpPath("events");
  ASSERT_TRUE(SetFlightDumpPath(path));
  ASSERT_TRUE(WriteFlightDump("request", "unit test"));
  const std::string dump = ReadFile(path);
  ExpectWellFormedJson(dump);
  EXPECT_NE(dump.find("\"what\":\"site_switch\""), std::string::npos);
  EXPECT_NE(dump.find("entry -> split"), std::string::npos);
  EXPECT_NE(dump.find("quote \\\" and back\\\\slash"), std::string::npos);
}

TEST(FlightRecorderTest, DumpCarriesReasonDetailAndBuild) {
  FlightRecorder rec("meta");
  const std::string path = TempDumpPath("meta");
  ASSERT_TRUE(SetFlightDumpPath(path));
  ASSERT_TRUE(WriteFlightDump("request", "POST /debug/dump"));
  const std::string dump = ReadFile(path);
  ExpectWellFormedJson(dump);
  EXPECT_NE(dump.find("\"reason\":\"request\""), std::string::npos);
  EXPECT_NE(dump.find("\"detail\":\"POST /debug/dump\""), std::string::npos);
  EXPECT_NE(dump.find("\"build\":{\"git\":"), std::string::npos);
  EXPECT_NE(dump.find("\"compiler\":"), std::string::npos);
}

TEST(FlightRecorderTest, RejectsOverlongDumpPath) {
  EXPECT_FALSE(SetFlightDumpPath(std::string(PATH_MAX, 'x')));
  EXPECT_FALSE(SetFlightDumpPath(""));
}

TEST(FlightRecorderTest, Sigusr1WritesDumpAndContinues) {
  InstallFlightDumpHandlers();
  FlightRecorder rec("usr1");
  for (uint64_t k = 1; k <= 100; ++k) rec.RecordPeriod(MakeRow(k));
  const std::string path = TempDumpPath("usr1");
  ASSERT_TRUE(SetFlightDumpPath(path));
  std::remove(path.c_str());

  ASSERT_EQ(::raise(SIGUSR1), 0);

  const std::string dump = ReadFile(path);
  ExpectWellFormedJson(dump);
  EXPECT_NE(dump.find("\"reason\":\"sigusr1\""), std::string::npos);
  const size_t start = dump.find("\"name\":\"usr1\"");
  ASSERT_NE(start, std::string::npos);
  // Acceptance floor: the dump must carry at least the last 64 periods.
  EXPECT_GE(CountOccurrences(dump.substr(start), "{\"k\":"), 64u);
}

TEST(FlightRecorderDeathTest, CsCheckFailureWritesWellFormedDump) {
  const std::string path = TempDumpPath("cscheck");
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder rec("doomed");
        for (uint64_t k = 1; k <= 80; ++k) rec.RecordPeriod(MakeRow(k));
        SetFlightDumpPath(path);
        CS_CHECK_MSG(1 == 2, "forced for the death test");
      },
      "forced for the death test");

  const std::string dump = ReadFile(path);
  ExpectWellFormedJson(dump);
  EXPECT_NE(dump.find("\"reason\":\"cs_check\""), std::string::npos);
  EXPECT_NE(dump.find("forced for the death test"), std::string::npos);
  const size_t start = dump.find("\"name\":\"doomed\"");
  ASSERT_NE(start, std::string::npos);
  EXPECT_GE(CountOccurrences(dump.substr(start), "{\"k\":"), 64u);
}

}  // namespace
}  // namespace ctrlshed
