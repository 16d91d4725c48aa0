// Unit tests for util/: deterministic RNG, distribution sanity, CSV
// rendering, check macros, timers, the boolean env-switch grammar.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stgraph {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), StgError);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(19);
  for (uint64_t n : {10u, 100u, 1000u}) {
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, n / 2, n}) {
      auto s = rng.sample_without_replacement(n, k);
      EXPECT_EQ(s.size(), k);
      std::set<uint64_t> uniq(s.begin(), s.end());
      EXPECT_EQ(uniq.size(), k);
      for (uint64_t v : s) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(23);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), StgError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(EnvFlag, UnsetOrEmptyGivesTheDefault) {
  for (bool dflt : {false, true}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(env_flag("STGRAPH_X", nullptr, dflt), dflt);
    EXPECT_EQ(env_flag("STGRAPH_X", "", dflt), dflt);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  }
}

TEST(EnvFlag, WordsInAnyCase) {
  testing::internal::CaptureStderr();
  for (const char* on : {"1", "on", "On", "ON", "true", "TRUE", "yes", "Yes"})
    EXPECT_TRUE(env_flag("STGRAPH_X", on, false)) << on;
  for (const char* off : {"0", "off", "Off", "OFF", "false", "FALSE", "no", "NO"})
    EXPECT_FALSE(env_flag("STGRAPH_X", off, true)) << off;
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(EnvFlag, AnythingElseWarnsOnceAndGivesTheDefault) {
  for (const char* bad : {"2", "of", "disable", " 1", "on ", "y", "-1"}) {
    for (bool dflt : {false, true}) {
      testing::internal::CaptureStderr();
      EXPECT_EQ(env_flag("STGRAPH_DEADLOCK", bad, dflt), dflt) << bad;
      const std::string err = testing::internal::GetCapturedStderr();
      EXPECT_NE(err.find("STGRAPH_DEADLOCK"), std::string::npos) << err;
      EXPECT_EQ(err.find('\n'), err.size() - 1) << "one line: " << err;
    }
  }
}

TEST(Check, ThrowsWithMessage) {
  try {
    STG_CHECK(false, "value was ", 42);
    FAIL() << "expected throw";
  } catch (const StgError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { STG_CHECK(1 + 1 == 2, "never shown"); }

TEST(Csv, TableAndCsvRendering) {
  CsvWriter w({"name", "value"});
  w.add_row({"alpha", "1.5"});
  w.add_row({"beta", "2"});
  const std::string csv = w.to_csv();
  EXPECT_EQ(csv, "name,value\nalpha,1.5\nbeta,2\n");
  const std::string table = w.to_table();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("-----"), std::string::npos);
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"only one"}), StgError);
}

TEST(Csv, FmtPrecision) {
  EXPECT_EQ(CsvWriter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(CsvWriter::fmt(2.0, 0), "2");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait until the steady clock visibly advances, then check units.
  while (t.seconds() <= 0.0) {
    volatile double x = 0;
    for (int i = 0; i < 1000; ++i) x = x + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.seconds(), 0.0);
  const double s = t.seconds();
  EXPECT_GE(t.millis(), s * 1e3);
}

TEST(PhaseTimer, AccumulatesIntervals) {
  PhaseTimer pt;
  for (int i = 0; i < 3; ++i) {
    PhaseScope scope(pt);
    volatile double x = 0;
    for (int j = 0; j < 10000; ++j) x = x + j;
  }
  EXPECT_EQ(pt.intervals(), 3u);
  EXPECT_GT(pt.total_seconds(), 0.0);
  pt.reset();
  EXPECT_EQ(pt.intervals(), 0u);
  EXPECT_EQ(pt.total_seconds(), 0.0);
}

}  // namespace
}  // namespace stgraph
