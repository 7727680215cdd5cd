// Tests for the deterministic parallel execution layer: ThreadPool /
// ParallelFor semantics, its one level of parallelism, and the
// bit-determinism guarantee that RPAS_NUM_THREADS=1 and RPAS_NUM_THREADS=4
// produce identical results for MatMul, the rolling-origin backtest, the
// online loop and the trace generator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "forecast/backtest.h"
#include "forecast/mlp.h"
#include "forecast/seasonal_naive.h"
#include "simdb/faults.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "trace/generator.h"

namespace rpas {
namespace {

// Restores the default thread count even when a test fails mid-way.
class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

// ------------------------------------------------------- thread config ---

TEST(ThreadConfigTest, ParseThreadCountAcceptsOnlyWholeValidTokens) {
  // Valid counts parse.
  EXPECT_EQ(1, ParseThreadCount("1", -1));
  EXPECT_EQ(8, ParseThreadCount("8", -1));
  EXPECT_EQ(kMaxRpasThreads, ParseThreadCount("256", -1));
  // Regression: "8x" used to silently parse as 8 because the endptr was
  // never checked. Any trailing garbage must reject the whole token.
  EXPECT_EQ(-1, ParseThreadCount("8x", -1));
  EXPECT_EQ(-1, ParseThreadCount("2,4", -1));
  EXPECT_EQ(-1, ParseThreadCount("8 threads", -1));
  EXPECT_EQ(-1, ParseThreadCount("threads", -1));
  EXPECT_EQ(-1, ParseThreadCount("", -1));
  EXPECT_EQ(-1, ParseThreadCount(nullptr, -1));
  // Non-positive counts are meaningless for a pool size.
  EXPECT_EQ(-1, ParseThreadCount("0", -1));
  EXPECT_EQ(-1, ParseThreadCount("-3", -1));
  // Regression: values above INT_MAX used to be truncated by the cast.
  // Overflow of strtol itself rejects; merely-huge values clamp (the
  // intent — as many threads as possible — is clear).
  EXPECT_EQ(-1, ParseThreadCount("99999999999999999999999", -1));
  EXPECT_EQ(kMaxRpasThreads, ParseThreadCount("4096", -1));
  EXPECT_EQ(kMaxRpasThreads, ParseThreadCount("2147483647", -1));
  // The fallback is caller-chosen.
  EXPECT_EQ(7, ParseThreadCount("garbage", 7));
}

TEST(ThreadConfigTest, SetRpasThreadsClampsToMax) {
  // Only RpasThreads() is read while the override is set: any parallel
  // construct would grow the shared pool to kMaxRpasThreads - 1 workers.
  ThreadOverrideGuard guard;
  SetRpasThreads(kMaxRpasThreads + 1);
  EXPECT_EQ(kMaxRpasThreads, RpasThreads());
  SetRpasThreads(std::numeric_limits<int>::max());
  EXPECT_EQ(kMaxRpasThreads, RpasThreads());
  SetRpasThreads(3);
  EXPECT_EQ(3, RpasThreads());
}

// ------------------------------------------------------------- ThreadPool ---

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after what its tasks touch, so it joins its workers before
  // the mutex and condition variable are destroyed: the last task may
  // still be notifying when the wait below returns.
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return done.load() == kTasks; }));
}

TEST(ThreadPoolTest, EnsureThreadsGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.EnsureThreads(4);
  EXPECT_EQ(pool.num_threads(), 4);
  pool.EnsureThreads(2);
  EXPECT_EQ(pool.num_threads(), 4);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drained
  EXPECT_EQ(done.load(), 32);
}

// ------------------------------------------------------------ ParallelFor ---

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 2, [&](size_t, size_t) { calls.fetch_add(1); });
  ParallelFor(7, 3, 2, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  std::vector<std::pair<size_t, size_t>> chunks;
  std::mutex mu;
  ParallelFor(2, 9, 100, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 9u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  constexpr size_t kN = 1003;  // deliberately not a multiple of the grain
  std::vector<int> hits(kN, 0);
  ParallelFor(0, kN, 17, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];  // chunks are disjoint, so no synchronization needed
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroGrainTreatedAsOne) {
  ThreadOverrideGuard guard;
  SetRpasThreads(2);
  std::atomic<size_t> total{0};
  ParallelFor(0, 10, 0, [&](size_t begin, size_t end) {
    EXPECT_EQ(end, begin + 1);
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](size_t begin, size_t) {
                    if (begin == 37) {
                      throw std::runtime_error("chunk 37 failed");
                    }
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionPropagatesOnSerialPathToo) {
  ThreadOverrideGuard guard;
  SetRpasThreads(1);
  EXPECT_THROW(ParallelFor(0, 4, 1,
                           [&](size_t, size_t) {
                             throw std::runtime_error("serial failure");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedCallsRunWithoutDeadlock) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    // The inner call lands on a pool worker (or the caller) and must fall
    // back to serial execution instead of blocking on pool capacity.
    ParallelFor(0, 8, 1, [&](size_t, size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, NestedCallsSubmitNoPoolTask) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  std::atomic<int> total{0};
  const uint64_t before = ThreadPool::Shared().GetStats().tasks_submitted;
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    ParallelFor(0, 8, 1, [&](size_t, size_t) { total.fetch_add(1); });
  });
  // The outer call submits its three helpers. Every inner call runs
  // serially, on a pool worker and on the calling thread alike.
  EXPECT_EQ(before + 3, ThreadPool::Shared().GetStats().tasks_submitted);
  EXPECT_EQ(total.load(), 64);
}

// ------------------------------------------------------------ Determinism ---

TEST(DeterminismTest, MatMulBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(123);
  tensor::Matrix a(200, 150);
  tensor::Matrix b(150, 170);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal();
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = rng.Normal();
  }
  SetRpasThreads(1);
  tensor::Matrix serial = tensor::MatMul(a, b);
  SetRpasThreads(4);
  tensor::Matrix parallel = tensor::MatMul(a, b);
  ASSERT_TRUE(serial.SameShape(parallel));
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "flat index " << i;
  }
}

forecast::SeededForecasterFactory SmallMlpFactory() {
  return [](size_t, uint64_t seed) {
    forecast::MlpForecaster::Options options;
    options.context_length = 24;
    options.horizon = 6;
    options.hidden_dim = 8;
    options.num_hidden_layers = 1;
    options.batch_size = 8;
    options.train.steps = 30;
    options.train.lr = 1e-3;
    options.use_time_features = false;
    options.seed = seed;
    return std::make_unique<forecast::MlpForecaster>(options);
  };
}

TEST(DeterminismTest, BacktestSerialEqualsParallelBitwise) {
  ThreadOverrideGuard guard;
  trace::SyntheticTraceGenerator gen(trace::AlibabaProfile(), 77);
  const ts::TimeSeries series = gen.GenerateCpu(5 * 144);

  forecast::BacktestOptions options;
  options.folds = 3;
  options.fold_steps = 48;
  options.base_seed = 2024;

  SetRpasThreads(1);
  auto serial = forecast::Backtest(SmallMlpFactory(), series, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  SetRpasThreads(4);
  auto parallel = forecast::Backtest(SmallMlpFactory(), series, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial->fold_reports.size(), parallel->fold_reports.size());
  for (size_t fold = 0; fold < serial->fold_reports.size(); ++fold) {
    const auto& sr = serial->fold_reports[fold];
    const auto& pr = parallel->fold_reports[fold];
    EXPECT_EQ(sr.mean_wql, pr.mean_wql) << "fold " << fold;
    EXPECT_EQ(sr.mse, pr.mse) << "fold " << fold;
    EXPECT_EQ(sr.mae, pr.mae) << "fold " << fold;
    ASSERT_EQ(sr.coverage.size(), pr.coverage.size());
    for (const auto& [tau, cov] : sr.coverage) {
      EXPECT_EQ(cov, pr.coverage.at(tau)) << "fold " << fold << " tau "
                                          << tau;
    }
  }
  EXPECT_EQ(serial->mean_wql.mean, parallel->mean_wql.mean);
  EXPECT_EQ(serial->mean_wql.stddev, parallel->mean_wql.stddev);
  EXPECT_EQ(serial->mse.mean, parallel->mse.mean);
  EXPECT_EQ(serial->mae.mean, parallel->mae.mean);
}

TEST(DeterminismTest, FaultedOnlineLoopBitIdenticalAcrossThreadCounts) {
  // The fault schedule is a pure function of (plan.seed, step), so a fixed
  // FaultPlan must drive the online loop to bit-identical outputs whether
  // the process-wide pool runs 1 thread or 4.
  ThreadOverrideGuard guard;
  constexpr size_t kDay = 144;
  trace::SyntheticTraceGenerator gen(trace::AlibabaProfile(), 31);
  const ts::TimeSeries series = gen.GenerateCpu(8 * kDay);

  forecast::SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(series.Slice(0, 6 * kDay)).ok());
  core::ScalingConfig config;
  config.theta = 2.0;
  config.min_nodes = 1;
  core::RobustAutoScalingManager manager(
      &model, std::make_unique<core::RobustQuantileAllocator>(0.9), config);

  core::OnlineLoopOptions loop;
  loop.cluster.node_capacity = config.theta;
  loop.cluster.initial_nodes = 5;
  loop.faults = simdb::FaultPlan::Uniform(0.15, 2024);

  SetRpasThreads(1);
  auto serial = core::RunOnlineLoop(manager, series, 6 * kDay, kDay, loop);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  SetRpasThreads(4);
  auto parallel = core::RunOnlineLoop(manager, series, 6 * kDay, kDay, loop);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->allocation, parallel->allocation);
  ASSERT_EQ(serial->steps.size(), parallel->steps.size());
  for (size_t i = 0; i < serial->steps.size(); ++i) {
    ASSERT_EQ(serial->steps[i].workload, parallel->steps[i].workload)
        << "step " << i;
    ASSERT_EQ(serial->steps[i].effective_nodes,
              parallel->steps[i].effective_nodes)
        << "step " << i;
    ASSERT_EQ(serial->steps[i].avg_utilization,
              parallel->steps[i].avg_utilization)
        << "step " << i;
    ASSERT_EQ(serial->steps[i].nodes_failed, parallel->steps[i].nodes_failed)
        << "step " << i;
  }
  ASSERT_EQ(serial->fault_events.size(), parallel->fault_events.size());
  for (size_t i = 0; i < serial->fault_events.size(); ++i) {
    EXPECT_EQ(serial->fault_events[i].step, parallel->fault_events[i].step);
    EXPECT_EQ(serial->fault_events[i].type, parallel->fault_events[i].type);
    EXPECT_EQ(serial->fault_events[i].action,
              parallel->fault_events[i].action);
    EXPECT_EQ(serial->fault_events[i].magnitude,
              parallel->fault_events[i].magnitude);
  }
  EXPECT_EQ(serial->fallback_plans, parallel->fallback_plans);
  EXPECT_EQ(serial->retried_plans, parallel->retried_plans);
  EXPECT_EQ(serial->stale_plans, parallel->stale_plans);
  EXPECT_EQ(serial->faulted_steps, parallel->faulted_steps);
  EXPECT_EQ(serial->slo_violation_rate, parallel->slo_violation_rate);
  EXPECT_EQ(serial->mean_utilization, parallel->mean_utilization);
  EXPECT_EQ(serial->total_node_steps, parallel->total_node_steps);
}

TEST(DeterminismTest, BacktestFoldSeedsAreIndependent) {
  // Distinct folds must receive distinct derived seeds, and the derivation
  // must be a pure function of (base, fold).
  EXPECT_NE(DeriveSeed(2024, 0), DeriveSeed(2024, 1));
  EXPECT_NE(DeriveSeed(2024, 1), DeriveSeed(2025, 1));
  EXPECT_EQ(DeriveSeed(2024, 3), DeriveSeed(2024, 3));
}

TEST(DeterminismTest, TraceGeneratorBitIdenticalAcrossThreadCounts) {
  // Trace synthesis feeds every bench and the serving fleet; its output
  // must be a pure function of (profile, seed) no matter how many pool
  // threads happen to be configured when it runs.
  ThreadOverrideGuard guard;
  for (const trace::TraceProfile& profile :
       {trace::AlibabaProfile(), trace::GoogleProfile()}) {
    SetRpasThreads(1);
    const ts::TimeSeries serial =
        trace::SyntheticTraceGenerator(profile, 2024).GenerateCpu(576);
    for (int threads : {2, 4, 8}) {
      SetRpasThreads(threads);
      const ts::TimeSeries parallel =
          trace::SyntheticTraceGenerator(profile, 2024).GenerateCpu(576);
      ASSERT_EQ(serial.size(), parallel.size()) << profile.name;
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial.values[i], parallel.values[i])
            << profile.name << " step " << i << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(DeterminismTest, TraceGeneratorRepeatableAndSeedSensitive) {
  const trace::TraceProfile profile = trace::AlibabaProfile();
  const ts::TimeSeries a =
      trace::SyntheticTraceGenerator(profile, 7).GenerateCpu(288);
  const ts::TimeSeries b =
      trace::SyntheticTraceGenerator(profile, 7).GenerateCpu(288);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.values[i], b.values[i]) << "step " << i;
  }
  // A different seed must actually change the trace.
  const ts::TimeSeries c =
      trace::SyntheticTraceGenerator(profile, 8).GenerateCpu(288);
  size_t diffs = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diffs += a.values[i] != c.values[i] ? 1 : 0;
  }
  EXPECT_GT(diffs, a.size() / 2);
}

TEST(DeterminismTest, TraceGeneratorCpuViewMatchesFullTrace) {
  // GenerateCpu is documented as a view of Generate's CPU series; the two
  // entry points must never drift apart (the generator is stateless, so a
  // second call replays the same streams).
  const trace::TraceProfile profile = trace::GoogleProfile();
  const trace::SyntheticTraceGenerator generator(profile, 11);
  const ts::TimeSeries cpu_only = generator.GenerateCpu(288);
  const trace::ResourceTrace full = generator.Generate(288);
  ASSERT_EQ(cpu_only.size(), full.cpu.size());
  for (size_t i = 0; i < cpu_only.size(); ++i) {
    ASSERT_EQ(cpu_only.values[i], full.cpu.values[i]) << "step " << i;
  }
}

}  // namespace
}  // namespace rpas
