// Allocation check of the simulator's hot path: once the sources are
// started, dispatching arrival events and a periodic tick must not touch
// the heap. A counting global operator new (the engine_throughput
// --check-allocs idiom) counts every allocation in the process while
// armed, so this is its own binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/simulation.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

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

TEST(SimAllocTest, ArrivalsAndTicksAllocateNothing) {
  Simulation sim;
  ArrivalSource poisson(0, MakeConstantTrace(100.0, 500.0),
                        ArrivalSource::Spacing::kPoisson, 1);
  ArrivalSource paced(1, MakeConstantTrace(100.0, 300.0),
                      ArrivalSource::Spacing::kDeterministic, 2);
  uint64_t arrivals[2] = {0, 0};
  int ticks = 0;
  poisson.Start(&sim, [&arrivals](const Tuple& t) { ++arrivals[t.source]; });
  paced.Start(&sim, [&arrivals](const Tuple& t) { ++arrivals[t.source]; });
  sim.ScheduleEvery(1.0, 1.0, [&ticks](SimTime) {
    ++ticks;
    return true;
  });

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  sim.Run(100.0);
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u);
  // The window covered real work: ~50k Poisson and ~30k paced arrivals.
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 50000.0, 1000.0);
  EXPECT_NEAR(static_cast<double>(arrivals[1]), 30000.0, 2.0);
  EXPECT_EQ(ticks, 100);
}

}  // namespace
}  // namespace ctrlshed
