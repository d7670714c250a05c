#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/timer.h"

namespace slp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Infeasible("lp has no solution");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.message(), "lp has no solution");
  EXPECT_NE(s.ToString().find("INFEASIBLE"), std::string::npos);
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(Status::InvalidArgument("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, BernoulliMatchesProbabilityRoughly) {
  Rng rng(3);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.Fork();
  // The fork consumed state; streams should diverge but stay deterministic.
  Rng a2(5);
  Rng b2 = a2.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(b.UniformInt(0, 1 << 30), b2.UniformInt(0, 1 << 30));
  }
}

TEST(ZipfTest, PmfSumsToOneAndDecreases) {
  ZipfSampler z(100, 0.8);
  double total = 0;
  for (int k = 0; k < 100; ++k) {
    total += z.Pmf(k);
    if (k > 0) {
      EXPECT_LE(z.Pmf(k), z.Pmf(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfTest, EmpiricalFrequenciesTrackPmf) {
  ZipfSampler z(10, 1.0);
  Rng rng(6);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (int k = 0; k < 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), z.Pmf(k), 0.01)
        << "rank " << k;
  }
}

TEST(ZipfTest, ExponentZeroIsUniform) {
  ZipfSampler z(7, 0.0);
  for (int k = 0; k < 7; ++k) EXPECT_NEAR(z.Pmf(k), 1.0 / 7, 1e-12);
}

TEST(WeightedSampleTest, ReturnsAllWhenKExceedsN) {
  Rng rng(7);
  std::vector<double> w = {1, 2, 3};
  auto s = WeightedSampleWithoutReplacement(w, 10, rng);
  EXPECT_EQ(s, (std::vector<int>{0, 1, 2}));
}

TEST(WeightedSampleTest, DistinctAndSorted) {
  Rng rng(8);
  std::vector<double> w(50, 1.0);
  auto s = WeightedSampleWithoutReplacement(w, 20, rng);
  ASSERT_EQ(s.size(), 20u);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
}

TEST(WeightedSampleTest, ZeroWeightNeverChosen) {
  Rng rng(9);
  std::vector<double> w = {1, 0, 1, 0, 1, 0, 1, 0};
  for (int trial = 0; trial < 50; ++trial) {
    auto s = WeightedSampleWithoutReplacement(w, 4, rng);
    for (int idx : s) EXPECT_EQ(idx % 2, 0) << "picked zero-weight index";
  }
}

TEST(WeightedSampleTest, HeavyWeightDominates) {
  Rng rng(10);
  std::vector<double> w = {1000, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  int contains0 = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto s = WeightedSampleWithoutReplacement(w, 1, rng);
    contains0 += (s[0] == 0);
  }
  EXPECT_GT(contains0, 180);
}

TEST(WeightedSampleTest, DoubledWeightRoughlyDoublesInclusion) {
  Rng rng(11);
  std::vector<double> w(100, 1.0);
  w[42] = 2.0;
  int hit42 = 0, hit7 = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    auto s = WeightedSampleWithoutReplacement(w, 10, rng);
    hit42 += std::binary_search(s.begin(), s.end(), 42);
    hit7 += std::binary_search(s.begin(), s.end(), 7);
  }
  EXPECT_GT(hit42, static_cast<int>(hit7 * 1.5));
}

TEST(UniformSampleTest, DistinctSortedExactK) {
  Rng rng(12);
  auto s = UniformSampleWithoutReplacement(100, 30, rng);
  ASSERT_EQ(s.size(), 30u);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  for (int idx : s) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 100);
  }
}

TEST(UniformSampleTest, UnbiasedInclusion) {
  Rng rng(13);
  std::vector<int> counts(20, 0);
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    for (int idx : UniformSampleWithoutReplacement(20, 5, rng)) ++counts[idx];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.25, 0.03);
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 1000000; ++i) x = x + i;
  EXPECT_GE(t.Seconds(), 0.0);
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);
}

}  // namespace
}  // namespace slp
