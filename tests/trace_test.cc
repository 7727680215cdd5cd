#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "trace/generator.h"

namespace rpas::trace {
namespace {

constexpr size_t kWeek = 6 * 24 * 7;  // steps per week at 10-minute interval
constexpr size_t kDay = 6 * 24;

double LagAutocorrelation(const std::vector<double>& x, size_t lag) {
  const size_t n = x.size();
  double mean = 0.0;
  for (double v : x) {
    mean += v;
  }
  mean /= static_cast<double>(n);
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < n; ++i) {
    den += (x[i] - mean) * (x[i] - mean);
    if (i + lag < n) {
      num += (x[i] - mean) * (x[i + lag] - mean);
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

double CoefficientOfVariation(const ts::TimeSeries& s) {
  return s.Stddev() / s.Mean();
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  SyntheticTraceGenerator a(AlibabaProfile(), 42);
  SyntheticTraceGenerator b(AlibabaProfile(), 42);
  auto ta = a.GenerateCpu(200);
  auto tb = b.GenerateCpu(200);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i], tb[i]);
  }
}

/// FNV-1a over the raw bytes of every value.
uint64_t HashValues(const std::vector<double>& values) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) {
      hash = (hash ^ b) * 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(GeneratorTest, OutputPinnedToParent) {
  // Every fleet tenant, bench and test trace comes from this generator, so
  // a rewrite of its loops must reproduce the exact bytes. 1200 steps span
  // more than a week, crossing a weekend. The hashes were taken before the
  // per-step terms were hoisted out of the machine loop.
  struct Case {
    bool google;
    uint64_t seed;
    uint64_t hash;
  };
  for (const Case& c : {Case{false, 7, 0xc623aeb837739a25ull},
                        Case{false, 0x51AE, 0xc2752ee1a8f9f474ull},
                        Case{false, 2024, 0x0d9853abad344dcfull},
                        Case{true, 7, 0x5ab7d6a42dee274eull},
                        Case{true, 0x51AE, 0xa1494c1c868a058aull},
                        Case{true, 2024, 0x836d8d90df7c814full}}) {
    SyntheticTraceGenerator gen(c.google ? GoogleProfile() : AlibabaProfile(),
                                c.seed);
    EXPECT_EQ(HashValues(gen.GenerateCpu(1200).values), c.hash)
        << (c.google ? "google" : "alibaba") << " seed " << c.seed;
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  SyntheticTraceGenerator a(AlibabaProfile(), 1);
  SyntheticTraceGenerator b(AlibabaProfile(), 2);
  auto ta = a.GenerateCpu(100);
  auto tb = b.GenerateCpu(100);
  double diff = 0.0;
  for (size_t i = 0; i < ta.size(); ++i) {
    diff += std::fabs(ta[i] - tb[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(GeneratorTest, RequestedLengthAndMetadata) {
  SyntheticTraceGenerator gen(AlibabaProfile(), 3);
  auto trace = gen.Generate(500);
  EXPECT_EQ(trace.cpu.size(), 500u);
  EXPECT_EQ(trace.memory.size(), 500u);
  EXPECT_EQ(trace.disk.size(), 500u);
  EXPECT_DOUBLE_EQ(trace.cpu.step_minutes, 10.0);
  EXPECT_EQ(trace.cpu.name, "alibaba-cpu");
}

TEST(GeneratorTest, LoadsAreNonNegativeAndBounded) {
  SyntheticTraceGenerator gen(GoogleProfile(), 4);
  auto cpu = gen.GenerateCpu(kWeek);
  const TraceProfile& p = gen.profile();
  const double cap =
      p.machine_capacity * static_cast<double>(p.num_machines);
  for (size_t i = 0; i < cpu.size(); ++i) {
    EXPECT_GE(cpu[i], 0.0);
    EXPECT_LE(cpu[i], cap);
  }
}

TEST(GeneratorTest, AlibabaHasStrongDailyCycle) {
  SyntheticTraceGenerator gen(AlibabaProfile(), 5);
  auto cpu = gen.GenerateCpu(2 * kWeek);
  // Autocorrelation at one-day lag should be strongly positive.
  EXPECT_GT(LagAutocorrelation(cpu.values, kDay), 0.5);
}

TEST(GeneratorTest, GoogleCycleWeakerThanAlibaba) {
  SyntheticTraceGenerator ali(AlibabaProfile(), 6);
  SyntheticTraceGenerator goo(GoogleProfile(), 6);
  auto a = ali.GenerateCpu(2 * kWeek);
  auto g = goo.GenerateCpu(2 * kWeek);
  EXPECT_GT(LagAutocorrelation(a.values, kDay),
            LagAutocorrelation(g.values, kDay));
}

TEST(GeneratorTest, GoogleIsNoisierThanAlibaba) {
  // The paper's Table I shows an order-of-magnitude accuracy gap between
  // the two traces; our stand-ins must preserve the dispersion ordering.
  SyntheticTraceGenerator ali(AlibabaProfile(), 7);
  SyntheticTraceGenerator goo(GoogleProfile(), 7);
  auto a = ali.GenerateCpu(2 * kWeek);
  auto g = goo.GenerateCpu(2 * kWeek);
  // Remove the daily cycle by first-differencing, then compare residual
  // variability relative to the mean level.
  auto residual_cv = [](const ts::TimeSeries& s) {
    double ss = 0.0;
    for (size_t i = 1; i < s.size(); ++i) {
      const double d = s.values[i] - s.values[i - 1];
      ss += d * d;
    }
    return std::sqrt(ss / static_cast<double>(s.size() - 1)) / s.Mean();
  };
  EXPECT_GT(residual_cv(g), residual_cv(a));
}

TEST(GeneratorTest, WeekendLoadLowerForAlibaba) {
  SyntheticTraceGenerator gen(AlibabaProfile(), 8);
  auto cpu = gen.GenerateCpu(4 * kWeek);
  double weekday_sum = 0.0;
  size_t weekday_n = 0;
  double weekend_sum = 0.0;
  size_t weekend_n = 0;
  for (size_t i = 0; i < cpu.size(); ++i) {
    const double week_pos =
        std::fmod(static_cast<double>(i) / kWeek, 1.0);
    if (week_pos >= 5.0 / 7.0) {
      weekend_sum += cpu[i];
      ++weekend_n;
    } else {
      weekday_sum += cpu[i];
      ++weekday_n;
    }
  }
  EXPECT_LT(weekend_sum / weekend_n, 0.9 * weekday_sum / weekday_n);
}

TEST(GeneratorTest, BurstsCreateHeavyTailedIncrements) {
  // Pareto bursts make the distribution of step-to-step increments heavy
  // tailed; excess kurtosis of first differences separates the two regimes
  // robustly (unlike variance, which noise realizations can dominate).
  auto diff_kurtosis = [](const ts::TimeSeries& s) {
    std::vector<double> d;
    for (size_t i = 1; i < s.size(); ++i) {
      d.push_back(s.values[i] - s.values[i - 1]);
    }
    double mean = 0.0;
    for (double v : d) {
      mean += v;
    }
    mean /= static_cast<double>(d.size());
    double m2 = 0.0;
    double m4 = 0.0;
    for (double v : d) {
      const double z = v - mean;
      m2 += z * z;
      m4 += z * z * z * z;
    }
    m2 /= static_cast<double>(d.size());
    m4 /= static_cast<double>(d.size());
    return m4 / (m2 * m2) - 3.0;
  };
  TraceProfile bursty = GoogleProfile();
  bursty.cluster_burst_rate = 0.05;
  bursty.cluster_burst_magnitude = 0.4;
  TraceProfile calm = GoogleProfile();
  calm.burst_rate = 0.0;
  calm.cluster_burst_rate = 0.0;
  auto with = SyntheticTraceGenerator(bursty, 9).GenerateCpu(4 * kWeek);
  auto without = SyntheticTraceGenerator(calm, 9).GenerateCpu(4 * kWeek);
  EXPECT_GT(diff_kurtosis(with), diff_kurtosis(without) + 1.0);
}

TEST(GeneratorTest, MemoryIsSmootherThanCpu) {
  SyntheticTraceGenerator gen(AlibabaProfile(), 10);
  auto trace = gen.Generate(kWeek);
  auto roughness = [](const ts::TimeSeries& s) {
    double ss = 0.0;
    for (size_t i = 1; i < s.size(); ++i) {
      const double d = s.values[i] - s.values[i - 1];
      ss += d * d;
    }
    return std::sqrt(ss / static_cast<double>(s.size() - 1)) / s.Mean();
  };
  EXPECT_LT(roughness(trace.memory), roughness(trace.cpu));
}

TEST(GeneratorTest, TrendIncreasesLoadOverTime) {
  TraceProfile p = AlibabaProfile();
  p.trend_per_day = 0.5;
  p.burst_rate = 0.0;
  SyntheticTraceGenerator gen(p, 11);
  auto cpu = gen.GenerateCpu(4 * kWeek);
  const size_t half = cpu.size() / 2;
  double first = 0.0;
  double second = 0.0;
  for (size_t i = 0; i < half; ++i) {
    first += cpu[i];
    second += cpu[half + i];
  }
  EXPECT_GT(second, first);
}

TEST(GeneratorTest, MoreMachinesMoreLoad) {
  TraceProfile small = AlibabaProfile();
  small.num_machines = 8;
  TraceProfile large = AlibabaProfile();
  large.num_machines = 32;
  auto s = SyntheticTraceGenerator(small, 12).GenerateCpu(kDay);
  auto l = SyntheticTraceGenerator(large, 12).GenerateCpu(kDay);
  EXPECT_GT(l.Mean(), 2.0 * s.Mean());
}

}  // namespace
}  // namespace rpas::trace
