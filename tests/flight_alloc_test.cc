// The flight recorder's crash path must not touch the heap: after one
// warm-up dump, RecordPeriod and WriteFlightDump allocate nothing. A
// counting global operator new (the net_alloc_test idiom) counts every
// allocation in the process while armed, so this is its own binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "telemetry/flight_recorder.h"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ctrlshed {
namespace {

/// Counts allocations from construction until Stop().
class AllocWindow {
 public:
  AllocWindow() {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
  }
  ~AllocWindow() { Stop(); }
  uint64_t Stop() {
    g_count_allocs.store(false);
    return g_alloc_count.load();
  }
};

TEST(FlightAllocTest, RecordPeriodAndDumpAllocateNothing) {
  FlightRecorder rec("alloc");
  PeriodRecord row;
  row.m.target_delay = 2.0;
  row.m.fin = 300.0;
  row.m.admitted = 200.0;
  row.m.y_hat = 1.9;
  row.v = 210.0;
  row.alpha = 0.3;
  row.h_hat = 0.95;
  row.shard_q = {100.0, 100.0};
  const std::string path =
      testing::TempDir() + "/flight_alloc.flightdump.json";
  ASSERT_TRUE(SetFlightDumpPath(path));
  rec.RecordPeriod(row);
  ASSERT_TRUE(WriteFlightDump("request", "warm-up"));

  uint64_t allocs = 0;
  bool dumped = false;
  {
    AllocWindow window;
    // Past the ring's capacity, so the dump walks a wrapped ring; every
    // other period has no departures (y_meas null).
    for (int k = 1; k <= 300; ++k) {
      row.m.k = k;
      row.m.has_y_measured = k % 2 == 0;
      row.m.y_measured = 1.8;
      rec.RecordPeriod(row);
    }
    rec.RecordEvent("site_switch", "entry -> split", 300.0);
    dumped = WriteFlightDump("request", "allocation gate");
    allocs = window.Stop();
  }
  EXPECT_TRUE(dumped);
  EXPECT_EQ(allocs, 0u);

  std::ifstream in(path);
  std::stringstream dump;
  dump << in.rdbuf();
  EXPECT_NE(dump.str().find("{\"k\":300,"), std::string::npos);
  EXPECT_NE(dump.str().find("\"y_meas\":null"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctrlshed
