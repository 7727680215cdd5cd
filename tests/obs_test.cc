// Tests for the rpas_obs observability subsystem: metrics registry
// (including concurrent mutation and the disabled fast path), histogram
// quantiles, scoped span tracing on pool workers, the bounded trace
// buffer, and the deterministic-export contract — byte-identical JSONL
// for the same seeds at RPAS_NUM_THREADS=1 vs 4, and exact agreement
// between OnlineLoopResult fault counters and the registry.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "forecast/backtest.h"
#include "forecast/mlp.h"
#include "forecast/seasonal_naive.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "trace/generator.h"

namespace rpas::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry(/*enabled=*/true);
  Counter* counter = registry.GetCounter("c");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42);

  Gauge* gauge = registry.GetGauge("g");
  gauge->Set(3.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 3.5);
  gauge->Max(2.0);  // no-op: below current
  EXPECT_DOUBLE_EQ(gauge->value(), 3.5);
  gauge->Max(7.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 7.0);

  Histogram* hist = registry.GetHistogram("h");
  hist->Observe(0.5);
  hist->Observe(2.0);
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_DOUBLE_EQ(hist->min(), 0.5);
  EXPECT_DOUBLE_EQ(hist->max(), 2.0);
  EXPECT_DOUBLE_EQ(hist->sum(), 2.5);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_EQ(registry.GetGauge("x"), registry.GetGauge("x"));
  EXPECT_EQ(registry.GetHistogram("x"), registry.GetHistogram("x"));
  // The first registration fixes the determinism flag; later calls with a
  // different flag return the existing instrument unchanged.
  Counter* det = registry.GetCounter("det", /*deterministic=*/true);
  EXPECT_EQ(registry.GetCounter("det", /*deterministic=*/false), det);
  EXPECT_TRUE(det->deterministic());
}

TEST(MetricsRegistryTest, DisabledPathIsANoOp) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* hist = registry.GetHistogram("h");
  counter->Increment(100);
  gauge->Set(1.0);
  gauge->Max(5.0);
  hist->Observe(1.0);
  EXPECT_EQ(counter->value(), 0);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(hist->count(), 0u);

  // Re-enabling makes the same cached handles live.
  registry.SetEnabled(true);
  counter->Increment();
  EXPECT_EQ(counter->value(), 1);
}

TEST(MetricsRegistryTest, ConcurrentMutationIsExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* hist = registry.GetHistogram("h");
  constexpr size_t kItems = 10000;
  SetRpasThreads(4);
  ParallelFor(0, kItems, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counter->Increment();
      hist->Observe(static_cast<double>(i % 10));
      // Lookups may race with mutations (handle caching is per-site, not
      // global, so Get* runs on workers too).
      registry.GetGauge("worker")->Set(1.0);
    }
  });
  SetRpasThreads(0);
  EXPECT_EQ(counter->value(), static_cast<int64_t>(kItems));
  EXPECT_EQ(hist->count(), kItems);
  EXPECT_DOUBLE_EQ(hist->min(), 0.0);
  EXPECT_DOUBLE_EQ(hist->max(), 9.0);
}

TEST(StripedMetricsTest, StripedCounterMergesExactlyUnderConcurrency) {
  MetricsRegistry registry;
  Counter* counter = registry.GetStripedCounter("striped.c");
  EXPECT_TRUE(counter->striped());
  // Same namespace as plain counters: a later plain lookup returns the
  // striped instrument unchanged.
  EXPECT_EQ(registry.GetCounter("striped.c"), counter);

  constexpr size_t kItems = 20000;
  SetRpasThreads(4);
  ParallelFor(0, kItems, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counter->Increment();
    }
  });
  SetRpasThreads(0);
  EXPECT_EQ(counter->value(), static_cast<int64_t>(kItems));
}

TEST(StripedMetricsTest, StripedHistogramMatchesUnstripedReadout) {
  MetricsRegistry registry;
  Histogram* striped = registry.GetStripedHistogram("striped.h");
  Histogram* plain = registry.GetHistogram("plain.h");
  EXPECT_TRUE(striped->striped());
  EXPECT_FALSE(plain->striped());

  constexpr size_t kItems = 10000;
  SetRpasThreads(4);
  ParallelFor(0, kItems, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      striped->Observe(static_cast<double>(i % 17));
    }
  });
  SetRpasThreads(0);
  for (size_t i = 0; i < kItems; ++i) {
    plain->Observe(static_cast<double>(i % 17));
  }

  // Everything a deterministic export reads — bucket counts, total count,
  // min, max, quantiles — merges exactly, independent of how observations
  // landed on stripes.
  EXPECT_EQ(striped->count(), plain->count());
  EXPECT_DOUBLE_EQ(striped->min(), plain->min());
  EXPECT_DOUBLE_EQ(striped->max(), plain->max());
  ASSERT_EQ(striped->NumBuckets(), plain->NumBuckets());
  for (size_t i = 0; i < plain->NumBuckets(); ++i) {
    EXPECT_EQ(striped->BucketCount(i), plain->BucketCount(i)) << i;
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(striped->Quantile(q), plain->Quantile(q)) << q;
  }
  // The float sum is order-dependent in general but exact here (small
  // integers), and single-threaded striping is a plain reordering of
  // exact sums.
  EXPECT_DOUBLE_EQ(striped->sum(), plain->sum());
}

TEST(StripedMetricsTest, DisabledRegistrySkipsStripedWrites) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter* counter = registry.GetStripedCounter("off.c");
  Histogram* hist = registry.GetStripedHistogram("off.h");
  counter->Increment(5);
  hist->Observe(1.0);
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(hist->count(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  std::vector<double> bounds;
  for (int i = 10; i <= 100; i += 10) {
    bounds.push_back(static_cast<double>(i));
  }
  Histogram* hist = registry.GetHistogram("q", bounds);
  for (int v = 1; v <= 100; ++v) {
    hist->Observe(static_cast<double>(v));
  }
  EXPECT_EQ(hist->count(), 100u);
  EXPECT_DOUBLE_EQ(hist->min(), 1.0);
  EXPECT_DOUBLE_EQ(hist->max(), 100.0);
  // Uniform 1..100 over decade-wide buckets: the q-quantile estimate must
  // land within one bucket width of the exact order statistic.
  EXPECT_NEAR(hist->Quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(hist->Quantile(0.9), 90.0, 10.0);
  EXPECT_NEAR(hist->Quantile(0.99), 99.0, 10.0);
  // Quantiles are clamped to the observed range.
  EXPECT_GE(hist->Quantile(0.0), 1.0);
  EXPECT_LE(hist->Quantile(1.0), 100.0);
}

TEST(HistogramTest, OverflowBucketFallsBackToMax) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("o", {1.0, 2.0});
  hist->Observe(50.0);  // above every bound -> overflow bucket
  hist->Observe(60.0);
  EXPECT_EQ(hist->BucketCount(2), 2u);
  // The overflow bucket has no upper bound, so interpolation runs between
  // the observed extrema.
  EXPECT_DOUBLE_EQ(hist->Quantile(1.0), 60.0);
  EXPECT_DOUBLE_EQ(hist->Quantile(0.5), 55.0);
  EXPECT_NEAR(hist->Quantile(0.99), 59.9, 1e-9);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("e");
  EXPECT_DOUBLE_EQ(hist->Quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Spans and the trace buffer
// ---------------------------------------------------------------------------

TEST(SpanTest, NestingOnOneThreadLinksParentAndDepth) {
  TraceBuffer buffer(64);
  {
    Span outer(&buffer, "outer", 7);
    { Span inner(&buffer, "inner"); }
  }
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 2u);  // inner closes (and records) first
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.tag, 7);
  EXPECT_EQ(inner.tag, -1);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_LE(outer.start_ns, inner.start_ns);
}

TEST(SpanTest, PoolWorkerSpansRecordSafely) {
  TraceBuffer buffer(256);
  constexpr size_t kTasks = 16;
  SetRpasThreads(4);
  ParallelFor(0, kTasks, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Span span(&buffer, "task", static_cast<int64_t>(i));
    }
  });
  SetRpasThreads(0);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), kTasks);
  std::vector<int64_t> tags;
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.name, "task");
    // Each chunk opens a fresh nesting root on whichever thread ran it.
    EXPECT_EQ(e.depth, 0u);
    EXPECT_EQ(e.parent, 0u);
    tags.push_back(e.tag);
  }
  std::sort(tags.begin(), tags.end());
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(tags[i], static_cast<int64_t>(i));
  }
}

TEST(SpanTest, DisabledBufferCostsNothingAndRecordsNothing) {
  TraceBuffer buffer(16, /*enabled=*/false);
  {
    Span span(&buffer, "never");
  }
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceBufferTest, DropsNewestEventsWhenFull) {
  TraceBuffer buffer(2);
  { Span a(&buffer, "a"); }
  { Span b(&buffer, "b"); }
  { Span c(&buffer, "c"); }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 1u);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // The run's beginning is kept; the overflowing tail is dropped.
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

TEST(ExportTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 0.1, 1e-9, 123456.789, 1.0 / 3.0}) {
    const std::string s = FormatDouble(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(ExportTest, JsonlStructureAndIdempotence) {
  MetricsRegistry registry;
  registry.GetCounter("alpha")->Increment(3);
  registry.GetGauge("beta", /*deterministic=*/true)->Set(1.5);
  registry.GetHistogram("gamma")->Observe(2.0);
  TraceBuffer buffer(16);
  { Span span(&buffer, "work", 1); }

  std::vector<ScalingDecision> decisions(1);
  decisions[0].run = "test";
  decisions[0].step = 9;
  decisions[0].target_nodes = 4;

  RunExport run_export(&registry, &buffer, decisions);
  const std::string jsonl = run_export.ToJsonl();
  EXPECT_EQ(jsonl, run_export.ToJsonl());  // rendering is idempotent

  // Header first, then one line per record.
  EXPECT_EQ(jsonl.rfind("{\"type\":\"run\",\"schema\":\"rpas_obs.v1\"", 0),
            0u);
  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":\"alpha\","
                       "\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("{\"type\":\"gauge\",\"name\":\"beta\","
                       "\"value\":1.5}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"histogram\",\"name\":\"gamma\","
                       "\"count\":1"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"span\",\"name\":\"work\",\"tag\":1"),
            std::string::npos);
  EXPECT_NE(jsonl.find("{\"type\":\"decision\",\"run\":\"test\",\"step\":9,"
                       "\"target\":4,"),
            std::string::npos);

  // The CSV rows all carry the full 19-column header's comma count.
  const std::string csv = run_export.ToCsv();
  size_t line_start = 0;
  while (line_start < csv.size()) {
    size_t line_end = csv.find('\n', line_start);
    ASSERT_NE(line_end, std::string::npos);
    const std::string line = csv.substr(line_start, line_end - line_start);
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 18) << line;
    line_start = line_end + 1;
  }
}

TEST(ExportTest, DeterministicModeSkipsNonDeterministicMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("det.counter")->Increment();
  registry.GetHistogram("det.hist")->Observe(1.0);
  registry.GetHistogram("timing_ms", {}, /*deterministic=*/false)
      ->Observe(12.0);
  registry.GetGauge("sched.gauge")->Set(4.0);  // gauges default non-det
  TraceBuffer buffer(16);

  ExportOptions det_options;
  det_options.deterministic = true;
  RunExport det_export(&registry, &buffer, {}, det_options);
  const std::string jsonl = det_export.ToJsonl();
  EXPECT_NE(jsonl.find("det.counter"), std::string::npos);
  EXPECT_NE(jsonl.find("det.hist"), std::string::npos);
  EXPECT_EQ(jsonl.find("timing_ms"), std::string::npos);
  EXPECT_EQ(jsonl.find("sched.gauge"), std::string::npos);
  // Histogram sum is accumulation-order dependent -> absent in det mode.
  EXPECT_EQ(jsonl.find("\"sum\""), std::string::npos);

  RunExport full_export(&registry, &buffer);
  const std::string full = full_export.ToJsonl();
  EXPECT_NE(full.find("timing_ms"), std::string::npos);
  EXPECT_NE(full.find("sched.gauge"), std::string::npos);
  EXPECT_NE(full.find("\"sum\""), std::string::npos);
}

// Runs a small parallel MLP backtest with explicit sinks and returns the
// deterministic JSONL export.
std::string BacktestExport(int num_threads, uint64_t seed) {
  MetricsRegistry registry;
  TraceBuffer buffer(1 << 12);

  trace::SyntheticTraceGenerator gen(trace::AlibabaProfile(), seed);
  const ts::TimeSeries series = gen.GenerateCpu(4 * 144);

  forecast::BacktestOptions options;
  options.folds = 3;
  options.fold_steps = 72;
  options.base_seed = seed;
  options.parallel = true;
  options.metrics = &registry;
  options.trace = &buffer;
  const forecast::SeededForecasterFactory factory = [&](size_t,
                                                        uint64_t fold_seed) {
    forecast::MlpForecaster::Options mlp;
    mlp.context_length = 24;
    mlp.horizon = 6;
    mlp.hidden_dim = 8;
    mlp.num_hidden_layers = 1;
    mlp.batch_size = 8;
    mlp.train.steps = 30;
    mlp.train.metrics = &registry;  // nn.train.* lands in the same export
    mlp.use_time_features = false;
    mlp.seed = fold_seed;
    return std::make_unique<forecast::MlpForecaster>(mlp);
  };

  SetRpasThreads(num_threads);
  auto result = forecast::Backtest(factory, series, options);
  SetRpasThreads(0);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  ExportOptions det;
  det.deterministic = true;
  return RunExport(&registry, &buffer, {}, det).ToJsonl();
}

TEST(ExportTest, DeterministicJsonlIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = BacktestExport(1, 2024);
  const std::string parallel = BacktestExport(4, 2024);
  EXPECT_EQ(serial, parallel);
  // Sanity: the export actually contains the instrumented metrics.
  EXPECT_NE(serial.find("backtest.folds"), std::string::npos);
  EXPECT_NE(serial.find("nn.train.steps"), std::string::npos);
  EXPECT_NE(serial.find("\"type\":\"span\",\"name\":\"backtest.fold\","
                        "\"tag\":0"),
            std::string::npos);
  // The wall-clock fold timing histogram must NOT leak into a
  // deterministic export.
  EXPECT_EQ(serial.find("backtest.fold_ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Online-loop fault counters vs. registry agreement (regression for the
// bulk-increment contract in core::RunOnlineLoop).
// ---------------------------------------------------------------------------

struct FaultRun {
  core::OnlineLoopResult result;
  int64_t forecaster_faults = 0;
  int64_t retried_plans = 0;
  int64_t fallback_plans = 0;
  int64_t stale_plans = 0;
  int64_t faulted_steps = 0;
  int64_t degraded_steps = 0;
  int64_t plans_made = 0;
  int64_t steps = 0;
};

FaultRun RunFaultedLoop(int num_threads, uint64_t seed) {
  MetricsRegistry registry;

  trace::SyntheticTraceGenerator gen(trace::AlibabaProfile(), seed);
  const ts::TimeSeries series = gen.GenerateCpu(8 * 144);
  const size_t eval_start = 6 * 144;
  const size_t num_steps = 144;

  forecast::SeasonalNaiveForecaster::Options fc_options;
  fc_options.context_length = 72;
  fc_options.horizon = 72;
  fc_options.season = 144;
  fc_options.levels = {0.5, 0.9, 0.95};
  forecast::SeasonalNaiveForecaster model(fc_options);
  EXPECT_TRUE(model.Fit(series.Slice(0, eval_start)).ok());

  core::ScalingConfig config;
  config.theta = series.Mean() / 4.0;
  config.min_nodes = 1;
  core::RobustAutoScalingManager manager(
      &model, std::make_unique<core::RobustQuantileAllocator>(0.9), config);
  manager.SetObservability(&registry, nullptr);

  core::OnlineLoopOptions loop;
  loop.replan_every = 6;  // many planning rounds -> faults hit planning too
  loop.cluster.node_capacity = config.theta;
  loop.cluster.initial_nodes = config.min_nodes;
  loop.cluster.metrics = &registry;
  loop.faults = simdb::FaultPlan::Uniform(0.2, seed + 7);
  loop.metrics = &registry;

  SetRpasThreads(num_threads);
  auto result =
      core::RunOnlineLoop(manager, series, eval_start, num_steps, loop);
  SetRpasThreads(0);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  FaultRun run;
  run.result = std::move(result).value();
  run.forecaster_faults =
      registry.GetCounter("online.forecaster_faults")->value();
  run.retried_plans = registry.GetCounter("online.retried_plans")->value();
  run.fallback_plans = registry.GetCounter("online.fallback_plans")->value();
  run.stale_plans = registry.GetCounter("online.stale_plans")->value();
  run.faulted_steps = registry.GetCounter("online.faulted_steps")->value();
  run.degraded_steps = registry.GetCounter("online.degraded_steps")->value();
  run.plans_made = registry.GetCounter("online.plans_made")->value();
  run.steps = registry.GetCounter("online.steps")->value();
  return run;
}

TEST(ObsOnlineLoopTest, RegistryCountersAgreeExactlyWithResult) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const FaultRun run = RunFaultedLoop(threads, 2024);
    const core::OnlineLoopResult& r = run.result;
    // A 20% uniform fault plan over 144 steps must actually exercise the
    // degradation machinery, otherwise this test proves nothing.
    EXPECT_GT(r.faulted_steps, 0u);
    EXPECT_GT(r.forecaster_faults + r.stale_plans, 0u);

    EXPECT_EQ(run.forecaster_faults,
              static_cast<int64_t>(r.forecaster_faults));
    EXPECT_EQ(run.retried_plans, static_cast<int64_t>(r.retried_plans));
    EXPECT_EQ(run.fallback_plans, static_cast<int64_t>(r.fallback_plans));
    EXPECT_EQ(run.stale_plans, static_cast<int64_t>(r.stale_plans));
    EXPECT_EQ(run.faulted_steps, static_cast<int64_t>(r.faulted_steps));
    EXPECT_EQ(run.degraded_steps, static_cast<int64_t>(r.degraded_steps));
    EXPECT_EQ(run.plans_made, static_cast<int64_t>(r.plans_made));
    EXPECT_EQ(run.steps, 144);
  }
  // And the counters themselves are thread-count invariant.
  const FaultRun serial = RunFaultedLoop(1, 2024);
  const FaultRun parallel = RunFaultedLoop(4, 2024);
  EXPECT_EQ(serial.forecaster_faults, parallel.forecaster_faults);
  EXPECT_EQ(serial.fallback_plans, parallel.fallback_plans);
  EXPECT_EQ(serial.faulted_steps, parallel.faulted_steps);
  EXPECT_EQ(serial.plans_made, parallel.plans_made);
}

TEST(ObsOnlineLoopTest, CollectDecisionsFlattensStepsAndFaultFlags) {
  const FaultRun run = RunFaultedLoop(1, 2024);
  const std::vector<ScalingDecision> decisions =
      core::CollectDecisions(run.result, "unit");
  ASSERT_EQ(decisions.size(), run.result.steps.size());
  size_t faulted = 0;
  for (size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_EQ(decisions[i].run, "unit");
    EXPECT_EQ(decisions[i].step, run.result.steps[i].step);
    EXPECT_EQ(decisions[i].target_nodes, run.result.steps[i].target_nodes);
    EXPECT_EQ(decisions[i].utilization, run.result.steps[i].avg_utilization);
    if (decisions[i].faulted) {
      ++faulted;
    }
  }
  EXPECT_GT(faulted, 0u);
  // One rule: a step is flagged iff a fault was active at it, which is
  // exactly what faulted_steps counts.
  EXPECT_EQ(faulted, run.result.faulted_steps);
  // Every logged fault event maps onto a flagged decision step.
  for (const simdb::FaultEvent& event : run.result.fault_events) {
    ASSERT_LT(event.step, decisions.size());
    EXPECT_TRUE(decisions[event.step].faulted);
  }
}

TEST(ObsPoolTest, RecordPoolStatsSnapshotsGauges) {
  MetricsRegistry registry;
  SetRpasThreads(4);
  ParallelFor(0, 64, 1, [](size_t, size_t) {});
  SetRpasThreads(0);
  RecordPoolStats(&registry);
  EXPECT_GE(registry.GetGauge("pool.threads")->value(), 1.0);
  // Submission counts update synchronously inside ParallelFor; execution
  // counts lag behind (a helper may still be draining when we snapshot),
  // so only the former is asserted.
  EXPECT_GT(registry.GetGauge("pool.tasks_submitted")->value(), 0.0);
  EXPECT_GE(registry.GetGauge("pool.tasks_submitted")->value(),
            registry.GetGauge("pool.tasks_executed")->value());
}

TEST(ObsPoolTest, StatsNeverObserveExecutedAheadOfSubmitted) {
  // Regression: ThreadPool::Submit used to bump tasks_submitted after
  // releasing the queue lock, so a worker could run the task — and count
  // it executed — before the submission was counted, letting a concurrent
  // GetStats() observe executed > submitted and breaking the monotonic
  // invariant the rpas_obs pool gauges export.
  ThreadPool pool(3);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::thread checker([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ThreadPool::Stats stats = pool.GetStats();
      if (stats.tasks_executed > stats.tasks_submitted) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  constexpr uint64_t kTasks = 20000;
  for (uint64_t i = 0; i < kTasks; ++i) {
    pool.Submit([] {});
  }
  done.store(true, std::memory_order_release);
  checker.join();
  EXPECT_EQ(violations.load(), 0u);
  const ThreadPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.tasks_submitted, kTasks);
  EXPECT_LE(stats.tasks_executed, stats.tasks_submitted);
}

}  // namespace
}  // namespace rpas::obs
