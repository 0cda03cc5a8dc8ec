#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "linalg/policy.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Cli, EnvIntFallsBackWhenUnset) {
  ::unsetenv("QKMPS_TEST_UNSET");
  EXPECT_EQ(env_int("QKMPS_TEST_UNSET", 7), 7);
}

TEST(Cli, EnvIntParsesValue) {
  EnvGuard g("QKMPS_TEST_INT", "42");
  EXPECT_EQ(env_int("QKMPS_TEST_INT", 0), 42);
}

TEST(Cli, EnvIntRejectsGarbage) {
  EnvGuard g("QKMPS_TEST_INT", "12abc");
  EXPECT_EQ(env_int("QKMPS_TEST_INT", 5), 5);
}

TEST(Cli, EnvIntNegative) {
  EnvGuard g("QKMPS_TEST_INT", "-3");
  EXPECT_EQ(env_int("QKMPS_TEST_INT", 0), -3);
}

TEST(Cli, EnvDoubleParsesValue) {
  EnvGuard g("QKMPS_TEST_DBL", "2.5");
  EXPECT_DOUBLE_EQ(env_double("QKMPS_TEST_DBL", 0.0), 2.5);
}

TEST(Cli, EnvDoubleRejectsGarbage) {
  EnvGuard g("QKMPS_TEST_DBL", "x");
  EXPECT_DOUBLE_EQ(env_double("QKMPS_TEST_DBL", 1.5), 1.5);
}

TEST(Cli, FullScaleFlag) {
  {
    EnvGuard g("QKMPS_FULL", "1");
    EXPECT_TRUE(full_scale_requested());
  }
  {
    EnvGuard g("QKMPS_FULL", "0");
    EXPECT_FALSE(full_scale_requested());
  }
}

TEST(Timer, MeasuresElapsedWallTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(ThreadCpuTimer, DoesNotAdvanceWhileSleeping) {
  ThreadCpuTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Sleeping burns no CPU; allow generous scheduling noise.
  EXPECT_LT(t.seconds(), 0.02);
}

TEST(ThreadCpuTimer, AdvancesUnderCompute) {
  ThreadCpuTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 20'000'000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  EXPECT_GT(t.seconds(), 0.001);
}

TEST(Error, ChecksThrowWithContext) {
  try {
    QKMPS_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(Policy, NamesAreStable) {
  EXPECT_EQ(linalg::to_string(linalg::ExecPolicy::Reference), "reference");
  EXPECT_EQ(linalg::to_string(linalg::ExecPolicy::Accelerated), "accelerated");
}

}  // namespace
}  // namespace qkmps
