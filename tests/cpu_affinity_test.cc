#include "rt/cpu_affinity.h"

#include <gtest/gtest.h>

#include <string>

namespace ctrlshed {
namespace {

TEST(CpuAffinityTest, ParsePinCpusDisabledForms) {
  std::string err;
  for (const char* v : {"", "0", "off"}) {
    const PinPlan plan = ParsePinCpus(v, &err);
    EXPECT_FALSE(plan.enabled) << v;
    EXPECT_TRUE(err.empty()) << v;
    EXPECT_EQ(plan.CpuForShard(0), -1) << v;
  }
}

TEST(CpuAffinityTest, ParsePinCpusAutoRoundRobins) {
  std::string err;
  for (const char* v : {"auto", "1"}) {
    const PinPlan plan = ParsePinCpus(v, &err);
    ASSERT_TRUE(plan.enabled) << v;
    EXPECT_TRUE(err.empty()) << v;
    EXPECT_TRUE(plan.cpus.empty()) << v;
    const int n = NumCpus();
    EXPECT_EQ(plan.CpuForShard(0), 0);
    EXPECT_EQ(plan.CpuForShard(n), 0);
    EXPECT_EQ(plan.CpuForShard(n + 1), 1 % n);
  }
}

TEST(CpuAffinityTest, ParsePinCpusExplicitList) {
  std::string err;
  const PinPlan plan = ParsePinCpus("0,2,4", &err);
  ASSERT_TRUE(plan.enabled);
  EXPECT_TRUE(err.empty());
  ASSERT_EQ(plan.cpus.size(), 3u);
  EXPECT_EQ(plan.CpuForShard(0), 0);
  EXPECT_EQ(plan.CpuForShard(1), 2);
  EXPECT_EQ(plan.CpuForShard(2), 4);
  EXPECT_EQ(plan.CpuForShard(3), 0);  // wraps
}

TEST(CpuAffinityTest, ParsePinCpusRejectsMalformed) {
  for (const char* v : {"a", "1,x", "-1", "1,,2", "1,"}) {
    std::string err;
    const PinPlan plan = ParsePinCpus(v, &err);
    EXPECT_FALSE(plan.enabled) << v;
    EXPECT_FALSE(err.empty()) << v;
  }
}

TEST(CpuAffinityTest, NumCpusIsPositive) { EXPECT_GE(NumCpus(), 1); }

TEST(CpuAffinityTest, PinToCurrentCpuSucceedsOnLinux) {
#ifdef __linux__
  EXPECT_TRUE(PinCurrentThreadToCpu(0));
#endif
  // Out-of-range pins report failure instead of aborting.
  EXPECT_FALSE(PinCurrentThreadToCpu(-1));
  EXPECT_FALSE(PinCurrentThreadToCpu(1 << 20));
}

}  // namespace
}  // namespace ctrlshed
