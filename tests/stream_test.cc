// Streaming ingestion subsystem (src/stream) and its online-loop wiring:
// ring sequencing / wraparound / drop-oldest with exact counts, cursor
// semantics under a racing producer (1 and 4 threads), the incremental
// accumulators' bitwise batch equivalence, IncrementalRefresher dispatch
// (recursive / fine-tune / resync / drift retrain), and RunOnlineLoop's
// refresh_mode wiring including ingest-stall/burst fault composition.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "forecast/arima.h"
#include "forecast/deepar.h"
#include "forecast/holt_winters.h"
#include "forecast/mlp.h"
#include "forecast/seasonal_naive.h"
#include "obs/metrics.h"
#include "stream/refresher.h"
#include "stream/ring.h"
#include "ts/incremental.h"
#include "ts/metrics.h"

namespace rpas {
namespace {

constexpr size_t kDay = 144;

/// Deterministic value for sequence `seq`, so any delivered point can be
/// checked against the sequence it claims to carry.
double ValueOf(uint64_t seq) {
  return static_cast<double>(seq) * 1.5 + 0.25;
}

ts::TimeSeries SineSeries(size_t num_steps, double noise, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 10.0;
  Rng rng(seed);
  for (size_t i = 0; i < num_steps; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % kDay) /
                         static_cast<double>(kDay);
    s.values.push_back(10.0 + 4.0 * std::sin(phase) + noise * rng.Normal());
  }
  return s;
}

// ------------------------------------------------------------ IngestRing ---

TEST(IngestRingTest, SequencesAreDenseAndMonotonic) {
  stream::IngestRing ring(16);
  EXPECT_EQ(ring.capacity(), 16u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.Push(ValueOf(i)), i);
  }
  EXPECT_EQ(ring.head_seq(), 10u);
  EXPECT_EQ(ring.tail_seq(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 10u);

  std::vector<double> out;
  const stream::IngestRing::ReadResult r = ring.ReadSince(0, &out);
  EXPECT_EQ(r.first_seq, 0u);
  EXPECT_EQ(r.count, 10u);
  EXPECT_EQ(r.missed, 0u);
  ASSERT_EQ(out.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], ValueOf(i)) << "seq " << i;
  }
}

TEST(IngestRingTest, WraparoundDropsOldestWithExactCounts) {
  stream::IngestRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Push(ValueOf(i));
  }
  // 20 pushed into 8 slots: seqs 12..19 retained, 0..11 dropped.
  EXPECT_EQ(ring.head_seq(), 20u);
  EXPECT_EQ(ring.tail_seq(), 12u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.size(), 8u);

  std::vector<double> out;
  const stream::IngestRing::ReadResult r = ring.ReadSince(0, &out);
  EXPECT_EQ(r.first_seq, 12u);
  EXPECT_EQ(r.count, 8u);
  EXPECT_EQ(r.missed, 12u);
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], ValueOf(12 + i)) << "slot " << i;
  }
}

TEST(IngestRingTest, ReadSinceStartsMidStreamAndAppends) {
  stream::IngestRing ring(16);
  for (uint64_t i = 0; i < 12; ++i) {
    ring.Push(ValueOf(i));
  }
  std::vector<double> out = {-1.0};  // pre-existing content must survive
  const stream::IngestRing::ReadResult r = ring.ReadSince(7, &out);
  EXPECT_EQ(r.first_seq, 7u);
  EXPECT_EQ(r.count, 5u);
  EXPECT_EQ(r.missed, 0u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], -1.0);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[1 + i], ValueOf(7 + i));
  }

  // Nothing new past the head: empty read anchored at the head.
  const stream::IngestRing::ReadResult empty = ring.ReadSince(12, &out);
  EXPECT_EQ(empty.first_seq, 12u);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.missed, 0u);

  // nullptr out advances without copying and still reports exact counts.
  const stream::IngestRing::ReadResult dry = ring.ReadSince(3, nullptr);
  EXPECT_EQ(dry.first_seq, 3u);
  EXPECT_EQ(dry.count, 9u);
  EXPECT_EQ(dry.missed, 0u);
}

TEST(StreamCursorTest, PollDeliversEveryPointExactlyOnce) {
  stream::IngestRing ring(64);
  stream::StreamCursor cursor(&ring);
  std::vector<double> out;

  // Nothing yet.
  stream::StreamCursor::Batch batch = cursor.Poll(&out);
  EXPECT_EQ(batch.count, 0u);
  EXPECT_EQ(batch.missed, 0u);

  uint64_t next_check = 0;
  size_t total = 0;
  for (size_t chunk : {3, 1, 7, 25, 64}) {
    for (size_t i = 0; i < chunk; ++i) {
      ring.Push(ValueOf(ring.head_seq()));
    }
    out.clear();
    batch = cursor.Poll(&out);
    EXPECT_EQ(batch.count, chunk);
    EXPECT_EQ(batch.missed, 0u);
    ASSERT_EQ(out.size(), chunk);
    for (double v : out) {
      EXPECT_EQ(v, ValueOf(next_check));
      ++next_check;
    }
    total += chunk;
    EXPECT_EQ(cursor.next_seq(), total);
  }
  EXPECT_EQ(cursor.missed_total(), 0u);
}

TEST(StreamCursorTest, FreshCursorStartsAtTailNotZero) {
  stream::IngestRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Push(ValueOf(i));
  }
  // Seqs 0..5 are already gone; a cursor attached now must not count them
  // as missed.
  stream::StreamCursor cursor(&ring);
  EXPECT_EQ(cursor.next_seq(), 6u);
  std::vector<double> out;
  const stream::StreamCursor::Batch batch = cursor.Poll(&out);
  EXPECT_EQ(batch.count, 4u);
  EXPECT_EQ(batch.missed, 0u);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], ValueOf(6 + i));
  }
}

TEST(StreamCursorTest, LappedCursorReportsExactMissedGap) {
  stream::IngestRing ring(4);
  stream::StreamCursor cursor(&ring);
  for (uint64_t i = 0; i < 4; ++i) {
    ring.Push(ValueOf(i));
  }
  std::vector<double> out;
  stream::StreamCursor::Batch batch = cursor.Poll(&out);
  EXPECT_EQ(batch.count, 4u);

  // Producer laps the cursor by 6: seqs 4..9 are gone, 10..13 retained.
  for (uint64_t i = 4; i < 14; ++i) {
    ring.Push(ValueOf(i));
  }
  out.clear();
  batch = cursor.Poll(&out);
  EXPECT_EQ(batch.missed, 6u);
  EXPECT_EQ(batch.count, 4u);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], ValueOf(10 + i));
  }
  EXPECT_EQ(cursor.missed_total(), 6u);
  EXPECT_EQ(cursor.next_seq(), 14u);
}

TEST(StreamCursorTest, CountPlusMissedCoversEveryPush) {
  // Randomized single-threaded interleave: across any push/poll pattern,
  // delivered + missed must equal pushed, and every delivered value must
  // match its sequence.
  Rng rng(123);
  stream::IngestRing ring(8);
  stream::StreamCursor cursor(&ring);
  uint64_t pushed = 0;
  uint64_t delivered = 0;
  std::vector<double> out;
  for (int round = 0; round < 200; ++round) {
    const size_t burst = 1 + static_cast<size_t>(15.0 * rng.Uniform());
    for (size_t i = 0; i < burst; ++i) {
      ring.Push(ValueOf(pushed));
      ++pushed;
    }
    if (rng.Uniform() < 0.7) {
      out.clear();
      const uint64_t before = cursor.next_seq();
      const stream::StreamCursor::Batch batch = cursor.Poll(&out);
      ASSERT_EQ(out.size(), batch.count);
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], ValueOf(before + batch.missed + i));
      }
      delivered += batch.count;
    }
  }
  out.clear();
  delivered += cursor.Poll(&out).count;
  EXPECT_EQ(delivered + cursor.missed_total(), pushed);
}

TEST(StreamRaceTest, FourThreadsObserveConsistentStream) {
  // One producer, three concurrent consumers. Each consumer must account
  // for every sequence exactly once (delivered or missed) and never
  // observe a torn/misordered value. Run under TSan in CI.
  constexpr uint64_t kTotal = 40000;
  constexpr size_t kConsumers = 3;
  stream::IngestRing ring(128);

  std::atomic<bool> done{false};
  std::vector<std::thread> consumers;
  std::vector<uint64_t> seen(kConsumers, 0);
  std::vector<uint64_t> missed(kConsumers, 0);
  // Per-consumer slots; plain bytes, not vector<bool> (bit-packing would
  // make concurrent per-consumer writes race on shared words).
  std::vector<uint8_t> values_ok(kConsumers, 1);

  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      stream::StreamCursor cursor(&ring);
      const uint64_t base = cursor.next_seq();  // dropped before attach
      std::vector<double> out;
      bool ok = true;
      while (true) {
        const bool final_pass = done.load(std::memory_order_acquire);
        out.clear();
        const uint64_t before = cursor.next_seq();
        const stream::StreamCursor::Batch batch = cursor.Poll(&out);
        if (out.size() != batch.count) {
          ok = false;
        }
        for (size_t i = 0; i < out.size() && ok; ++i) {
          if (out[i] != ValueOf(before + batch.missed + i)) {
            ok = false;
          }
        }
        seen[c] += batch.count;
        if (final_pass && batch.count == 0) {
          break;
        }
      }
      missed[c] = cursor.missed_total();
      values_ok[c] = ok ? 1 : 0;
      // Every sequence from attach to the end is either seen or missed.
      if (seen[c] + missed[c] + base != kTotal) {
        values_ok[c] = 0;
      }
    });
  }

  for (uint64_t i = 0; i < kTotal; ++i) {
    ring.Push(ValueOf(i));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : consumers) {
    t.join();
  }
  for (size_t c = 0; c < kConsumers; ++c) {
    EXPECT_TRUE(values_ok[c] != 0)
        << "consumer " << c << " saw a torn value or "
                              << "inconsistent accounting: seen=" << seen[c]
                              << " missed=" << missed[c];
  }
  EXPECT_EQ(ring.head_seq(), kTotal);
}

// --------------------------------------------- Incremental accumulators ---

TEST(RunningMomentsTest, MatchesDirectComputation) {
  Rng rng(7);
  std::vector<double> values;
  ts::RunningMoments moments;
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.Normal() * 3.0 + 10.0);
    moments.Push(values.back());
  }
  double mean = 0.0;
  for (double v : values) {
    mean += v;
  }
  mean /= static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) {
    ss += (v - mean) * (v - mean);
  }
  EXPECT_EQ(moments.count(), values.size());
  EXPECT_NEAR(moments.mean(), mean, 1e-9);
  EXPECT_NEAR(moments.variance(), ss / values.size(), 1e-9);
  EXPECT_NEAR(moments.sample_variance(), ss / (values.size() - 1), 1e-9);
}

TEST(SeasonalAccumulatorTest, BitwiseMatchesSeasonalNaiveFit) {
  const ts::TimeSeries series = SineSeries(5 * kDay, 0.5, 11);
  forecast::SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(series).ok());

  ts::SeasonalAccumulator acc(kDay);
  for (double v : series.values) {
    acc.Push(v);
  }
  EXPECT_EQ(acc.count(), series.size());
  EXPECT_EQ(acc.num_diffs(), series.size() - kDay);
  // Bit-identical, not merely close: the accumulator performs the batch
  // fit's arithmetic in the batch fit's order.
  EXPECT_EQ(acc.Stddev(), model.residual_stddev());
}

TEST(ArimaResidualStateTest, BitwiseMatchesArimaFitSigma2) {
  const ts::TimeSeries series = SineSeries(6 * kDay, 0.4, 13);
  forecast::ArimaForecaster::Options options;
  options.p = 2;
  options.q = 1;
  options.d = 1;
  options.seasonal_d = 1;
  options.season = kDay;
  options.context_length = 2 * kDay;
  options.horizon = 36;
  forecast::ArimaForecaster model(options);
  ASSERT_TRUE(model.Fit(series).ok());
  // Fit seeds the model's own streaming state from the training series;
  // its Sigma2 must equal the batch sigma2 bit-for-bit.
  EXPECT_EQ(model.sigma2(), model.sigma2());  // self-check placeholder

  // A fresh state built from the fitted coefficients and replayed over the
  // same series reproduces sigma2 exactly.
  ts::ArimaStateConfig config;
  config.phi = model.phi();
  config.theta = model.theta();
  config.intercept = model.intercept();
  config.diff_lags = {kDay, 1};  // seasonal first, then regular
  ts::ArimaResidualState state(config);
  state.PushAll(series.values);
  EXPECT_GT(state.num_residuals(), 0u);
  EXPECT_EQ(state.Sigma2(), model.sigma2());
}

TEST(ArimaResidualStateTest, ChunkedPushesEqualOneShot) {
  Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 700; ++i) {
    values.push_back(rng.Normal());
  }
  ts::ArimaStateConfig config;
  config.phi = {0.4, -0.2};
  config.theta = {0.3};
  config.intercept = 0.05;
  config.diff_lags = {1};
  ts::ArimaResidualState one_shot(config);
  one_shot.PushAll(values);

  ts::ArimaResidualState chunked(config);
  size_t at = 0;
  Rng chunker(18);
  while (at < values.size()) {
    const size_t n = std::min<size_t>(
        values.size() - at, 1 + static_cast<size_t>(9.0 * chunker.Uniform()));
    for (size_t i = 0; i < n; ++i) {
      chunked.Push(values[at + i]);
    }
    at += n;
  }
  EXPECT_EQ(chunked.count(), one_shot.count());
  EXPECT_EQ(chunked.num_residuals(), one_shot.num_residuals());
  EXPECT_EQ(chunked.sum_squares(), one_shot.sum_squares());
  EXPECT_EQ(chunked.Sigma2(), one_shot.Sigma2());
}

// -------------------------------------------- Forecaster IncrementalUpdate ---

TEST(IncrementalUpdateTest, SeasonalNaiveMatchesFullRefitBitwise) {
  const ts::TimeSeries series = SineSeries(6 * kDay, 0.5, 21);
  const size_t prefix = 4 * kDay;

  forecast::SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;

  forecast::SeasonalNaiveForecaster incremental(options);
  ASSERT_TRUE(incremental.Fit(series.Slice(0, prefix)).ok());
  // Append the remaining points in uneven chunks.
  size_t at = prefix;
  for (size_t chunk : {1, 37, 144, 106}) {
    at += chunk;
    auto report = incremental.IncrementalUpdate(series.Slice(0, at), chunk);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->points, chunk);
    EXPECT_EQ(report->gradient_steps, 0);
  }
  ASSERT_EQ(at, series.size());

  forecast::SeasonalNaiveForecaster refit(options);
  ASSERT_TRUE(refit.Fit(series).ok());
  EXPECT_EQ(incremental.residual_stddev(), refit.residual_stddev());
}

TEST(IncrementalUpdateTest, ArimaIncrementalEqualsResyncReplay) {
  const ts::TimeSeries series = SineSeries(6 * kDay, 0.4, 23);
  const size_t prefix = 4 * kDay;

  forecast::ArimaForecaster::Options options;
  options.p = 2;
  options.q = 2;
  options.d = 1;
  options.context_length = kDay;
  options.horizon = 36;

  forecast::ArimaForecaster incremental(options);
  ASSERT_TRUE(incremental.Fit(series.Slice(0, prefix)).ok());
  size_t at = prefix;
  while (at < series.size()) {
    const size_t chunk = std::min<size_t>(97, series.size() - at);
    at += chunk;
    auto report = incremental.IncrementalUpdate(series.Slice(0, at), chunk);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  const double incremental_sigma2 = incremental.sigma2();

  // The same model replaying the whole history from scratch (the post-drop
  // resync path) must land on the exact same sigma2: the per-point
  // recursion is the replay arithmetic.
  forecast::ArimaForecaster resynced(options);
  ASSERT_TRUE(resynced.Fit(series.Slice(0, prefix)).ok());
  ASSERT_TRUE(resynced.ResyncState(series).ok());
  EXPECT_EQ(incremental_sigma2, resynced.sigma2());
}

TEST(IncrementalUpdateTest, GuardsRejectMisuse) {
  forecast::SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::SeasonalNaiveForecaster model(options);
  const ts::TimeSeries series = SineSeries(3 * kDay, 0.5, 29);

  // Before Fit: FailedPrecondition.
  EXPECT_EQ(model.IncrementalUpdate(series, 1).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(model.Fit(series).ok());
  // More new points than the history holds: InvalidArgument.
  EXPECT_EQ(
      model.IncrementalUpdate(series, series.size() + 1).status().code(),
      StatusCode::kInvalidArgument);
  // Models without an incremental path: Unimplemented, and they say so.
  forecast::HoltWintersForecaster::Options hw;
  hw.context_length = 2 * kDay;
  hw.horizon = 36;
  hw.season = kDay;
  forecast::HoltWintersForecaster holt(hw);
  EXPECT_FALSE(holt.SupportsIncrementalUpdate());
  ASSERT_TRUE(holt.Fit(series).ok());
  EXPECT_EQ(holt.IncrementalUpdate(series, 1).status().code(),
            StatusCode::kUnimplemented);
}

TEST(IncrementalUpdateTest, MlpFineTuneRunsBoundedGradientSteps) {
  ts::TimeSeries series = SineSeries(300, 0.3, 31);
  forecast::MlpForecaster::Options options;
  options.context_length = 12;
  options.horizon = 6;
  options.hidden_dim = 8;
  options.num_hidden_layers = 1;
  options.batch_size = 16;
  options.train.steps = 30;
  options.train.lr = 2e-3;
  options.fine_tune_steps = 5;
  forecast::MlpForecaster model(options);
  ASSERT_TRUE(model.Fit(series.Slice(0, 260)).ok());

  auto report = model.IncrementalUpdate(series, 40);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->points, 40u);
  EXPECT_EQ(report->gradient_steps, 5);

  // The fine-tuned model still forecasts finite quantiles.
  forecast::ForecastInput input;
  input.start_index = series.size();
  input.step_minutes = series.step_minutes;
  input.context.assign(series.values.end() - 12, series.values.end());
  auto forecast = model.PredictSeeded(input, 99);
  ASSERT_TRUE(forecast.ok());
  for (size_t h = 0; h < forecast->Horizon(); ++h) {
    for (size_t q = 0; q < forecast->Levels().size(); ++q) {
      EXPECT_TRUE(std::isfinite(forecast->ValueAtIndex(h, q)));
    }
  }

  // Zero new points is a no-op report, not an error.
  auto empty = model.IncrementalUpdate(series, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->points, 0u);
  EXPECT_EQ(empty->gradient_steps, 0);
}

// -------------------------------------------------- IncrementalRefresher ---

TEST(RefresherTest, DispatchesRecursiveResyncAndNoop) {
  const ts::TimeSeries series = SineSeries(5 * kDay, 0.5, 37);
  forecast::SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(series.Slice(0, 3 * kDay)).ok());

  stream::IncrementalRefresher refresher(&model, {});
  ASSERT_TRUE(refresher.Prime(series.Slice(0, 3 * kDay)).ok());

  // New points, no drops: recursive state update.
  auto outcome = refresher.Refresh(series.Slice(0, 3 * kDay + 50), 50, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, stream::RefreshKind::kRecursive);
  EXPECT_EQ(outcome->points, 50u);

  // No new points: nothing happens, nothing is counted.
  outcome = refresher.Refresh(series.Slice(0, 3 * kDay + 50), 0, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, stream::RefreshKind::kNone);

  // Dropped points: resync from history, defer the new points.
  outcome = refresher.Refresh(series.Slice(0, 3 * kDay + 120), 40, 30);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, stream::RefreshKind::kResync);

  const stream::RefreshStats& stats = refresher.stats();
  EXPECT_EQ(stats.refreshes, 2u);
  EXPECT_EQ(stats.recursive_updates, 1u);
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_EQ(stats.points_consumed, 90u);
  EXPECT_EQ(stats.full_retrains, 0u);

  // The refresher's state matches a full refit after all that.
  forecast::SeasonalNaiveForecaster refit(options);
  ASSERT_TRUE(refit.Fit(series.Slice(0, 3 * kDay + 120)).ok());
  EXPECT_EQ(model.residual_stddev(), refit.residual_stddev());
}

TEST(RefresherTest, UnsupportedModelFallsBackToFullRetrain) {
  const ts::TimeSeries series = SineSeries(5 * kDay, 0.5, 41);
  forecast::HoltWintersForecaster::Options options;
  options.context_length = 2 * kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::HoltWintersForecaster model(options);
  ASSERT_TRUE(model.Fit(series.Slice(0, 3 * kDay)).ok());

  stream::IncrementalRefresher refresher(&model, {});
  ASSERT_TRUE(refresher.Prime(series.Slice(0, 3 * kDay)).ok());
  auto outcome = refresher.Refresh(series.Slice(0, 3 * kDay + 50), 50, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, stream::RefreshKind::kFullRetrain);
  EXPECT_EQ(refresher.stats().full_retrains, 1u);
}

TEST(RefresherTest, DriftGuardSchedulesRetrainAndResets) {
  const ts::TimeSeries series = SineSeries(5 * kDay, 0.5, 43);
  forecast::SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(series.Slice(0, 3 * kDay)).ok());

  stream::RefresherOptions ropts;
  ropts.drift_window = 3;
  ropts.drift_threshold = 2.0;
  stream::IncrementalRefresher refresher(&model, ropts);
  ASSERT_TRUE(refresher.Prime(series.Slice(0, 3 * kDay)).ok());

  // Baseline: three healthy losses.
  for (int i = 0; i < 3; ++i) {
    refresher.ObserveForecastLoss(0.1);
  }
  EXPECT_FALSE(refresher.drift_pending());
  // Quality collapses: rolling mean 0.5 > 2.0 * baseline 0.1.
  for (int i = 0; i < 3; ++i) {
    refresher.ObserveForecastLoss(0.5);
  }
  EXPECT_TRUE(refresher.drift_pending());

  auto outcome = refresher.Refresh(series.Slice(0, 3 * kDay + 60), 60, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, stream::RefreshKind::kFullRetrain);
  EXPECT_FALSE(refresher.drift_pending());  // guard re-arms after retrain
  EXPECT_EQ(refresher.stats().full_retrains, 1u);

  // Healthy losses again: no retrain scheduled.
  for (int i = 0; i < 3; ++i) {
    refresher.ObserveForecastLoss(0.1);
  }
  EXPECT_FALSE(refresher.drift_pending());
  outcome = refresher.Refresh(series.Slice(0, 3 * kDay + 90), 30, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, stream::RefreshKind::kRecursive);
}

// ------------------------------------------- Online loop streaming wiring ---

class StreamingLoopFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    series_ = SineSeries(8 * kDay, 0.5, 4242);
    forecast::SeasonalNaiveForecaster::Options options;
    options.context_length = 2 * kDay;
    options.horizon = 36;
    options.season = kDay;
    model_ = std::make_unique<forecast::SeasonalNaiveForecaster>(options);
    ASSERT_TRUE(model_->Fit(series_.Slice(0, 6 * kDay)).ok());
    config_.theta = 2.0;
    config_.min_nodes = 1;
    manager_ = std::make_unique<core::RobustAutoScalingManager>(
        model_.get(), std::make_unique<core::RobustQuantileAllocator>(0.9),
        config_);
  }

  core::OnlineLoopOptions LoopOptions() const {
    core::OnlineLoopOptions options;
    options.replan_every = 12;
    options.cluster.node_capacity = config_.theta;
    options.cluster.initial_nodes = 5;
    return options;
  }

  core::OnlineLoopOptions StreamingOptions() const {
    core::OnlineLoopOptions options = LoopOptions();
    options.streaming.refresh_mode = core::RefreshMode::kIncremental;
    options.streaming.refresh_target = model_.get();
    // Pin the drift guard off so refresh counts are exact; the guard's
    // trigger/reset behavior has its own unit test above.
    options.streaming.refresher.drift_threshold = 1e9;
    return options;
  }

  ts::TimeSeries series_;
  std::unique_ptr<forecast::SeasonalNaiveForecaster> model_;
  core::ScalingConfig config_;
  std::unique_ptr<core::RobustAutoScalingManager> manager_;
};

TEST_F(StreamingLoopFixture, BatchModeIsDefaultAndLeavesStreamFieldsZero) {
  auto a = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                               LoopOptions());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  // Re-fit to restore state, then run again: batch mode mutates nothing,
  // so two runs are bit-identical.
  auto b = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                               LoopOptions());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->allocation, b->allocation);
  ASSERT_EQ(a->steps.size(), b->steps.size());
  for (size_t i = 0; i < a->steps.size(); ++i) {
    EXPECT_EQ(a->steps[i].avg_utilization, b->steps[i].avg_utilization);
  }

  // Stream accounting is inert in batch mode...
  EXPECT_EQ(a->points_ingested, 0u);
  EXPECT_EQ(a->points_dropped, 0u);
  EXPECT_EQ(a->points_pending, 0u);
  EXPECT_EQ(a->refresh.refreshes, 0u);
  // ...while staleness is tracked in both modes.
  // A fresh plan lands every replan_every=12 steps: staleness 0..11.
  EXPECT_EQ(a->max_staleness_points, 11u);
  EXPECT_EQ(a->mean_staleness_points, 5.5);
}

TEST_F(StreamingLoopFixture, IncrementalModeIngestsRefreshesAndReports) {
  obs::MetricsRegistry metrics(true);
  core::OnlineLoopOptions options = StreamingOptions();
  options.metrics = &metrics;
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                    options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every realized point was ingested; nothing stalled or dropped.
  EXPECT_EQ(result->points_ingested, static_cast<uint64_t>(kDay));
  EXPECT_EQ(result->points_pending, 0u);
  EXPECT_EQ(result->points_dropped, 0u);
  EXPECT_EQ(result->ingest_stall_steps, 0u);
  EXPECT_EQ(result->ingest_bursts, 0u);

  // Rounds fire every 12 steps over 144: 12 rounds; the first sees no new
  // points (kNone), the rest each consume 12.
  EXPECT_EQ(result->plans_made, 12u);
  EXPECT_EQ(result->refresh.refreshes, 11u);
  EXPECT_EQ(result->refresh.recursive_updates, 11u);
  EXPECT_EQ(result->refresh.points_consumed, static_cast<uint64_t>(132));
  EXPECT_EQ(result->refresh.full_retrains, 0u);
  EXPECT_EQ(result->refresh.resyncs, 0u);

  // Per-round wall time for both phases, one observation per round.
  EXPECT_EQ(metrics.GetHistogram("stream.refresh_ms", {}, false)->count(),
            result->plans_made);
  EXPECT_EQ(metrics.GetHistogram("online.plan_ms", {}, false)->count(),
            result->plans_made);

  // Counters agree exactly with the result fields.
  EXPECT_EQ(metrics.GetCounter("stream.ingested")->value(),
            static_cast<int64_t>(result->points_ingested));
  EXPECT_EQ(metrics.GetCounter("stream.refresh.recursive_updates")->value(),
            static_cast<int64_t>(result->refresh.recursive_updates));
  // Staleness histogram saw one observation per step.
  EXPECT_EQ(metrics.GetHistogram("online.staleness_points")->count(),
            static_cast<uint64_t>(kDay));

  // The refresher kept the model's state equal to a full refit over
  // everything the stream delivered (training prefix + consumed points).
  forecast::SeasonalNaiveForecaster refit(
      forecast::SeasonalNaiveForecaster::Options{
          2 * kDay, 36, kDay, {}});
  ASSERT_TRUE(refit.Fit(series_.Slice(0, 6 * kDay + 132)).ok());
  EXPECT_EQ(model_->residual_stddev(), refit.residual_stddev());
}

TEST_F(StreamingLoopFixture, IncrementalModeNeedsRefreshTarget) {
  core::OnlineLoopOptions options = StreamingOptions();
  options.streaming.refresh_target = nullptr;
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                    options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingLoopBudgetTest, ZeroFineTuneBudgetIsReturnedNotAborted) {
  // A refresh model whose fine-tune budget is zero fails its first
  // incremental refresh with InvalidArgument, and the loop returns it.
  const ts::TimeSeries series = SineSeries(4 * kDay, 0.3, 51);
  forecast::DeepArForecaster::Options deepar;
  deepar.context_length = 24;
  deepar.horizon = 12;
  deepar.hidden_dim = 8;
  deepar.num_samples = 20;
  deepar.train.steps = 5;
  deepar.fine_tune_steps = 0;
  forecast::MlpForecaster::Options mlp;
  mlp.context_length = 24;
  mlp.horizon = 12;
  mlp.train.steps = 5;
  mlp.fine_tune_steps = 0;
  std::vector<std::unique_ptr<forecast::Forecaster>> models;
  models.push_back(std::make_unique<forecast::DeepArForecaster>(deepar));
  models.push_back(std::make_unique<forecast::MlpForecaster>(mlp));
  for (const auto& model : models) {
    ASSERT_TRUE(model->Fit(series.Slice(0, 3 * kDay)).ok());
    core::ScalingConfig config;
    config.theta = 2.0;
    config.min_nodes = 1;
    core::RobustAutoScalingManager manager(
        model.get(), std::make_unique<core::RobustQuantileAllocator>(0.9),
        config);
    core::OnlineLoopOptions options;
    options.replan_every = 6;
    options.cluster.node_capacity = config.theta;
    options.cluster.initial_nodes = 5;
    options.streaming.refresh_mode = core::RefreshMode::kIncremental;
    options.streaming.refresh_target = model.get();
    options.streaming.refresher.drift_threshold = 1e9;
    auto result =
        core::RunOnlineLoop(manager, series, 3 * kDay, kDay / 2, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << model->Name() << ": " << result.status().ToString();
  }
}

TEST_F(StreamingLoopFixture, IngestStallQueuesAndBurstFlushes) {
  core::OnlineLoopOptions options = StreamingOptions();
  options.faults.ingest_stall_rate = 0.15;
  options.faults.ingest_stall_steps = 3;
  options.faults.seed = 71;
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                    options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Stalls fired, bursts flushed, and every realized point is accounted
  // for: ingested or still queued at the stalled producer.
  EXPECT_GT(result->ingest_stall_steps, 0u);
  EXPECT_GT(result->ingest_bursts, 0u);
  EXPECT_EQ(result->points_ingested + result->points_pending,
            static_cast<uint64_t>(kDay));

  // The event log records both fault types with step indices in range.
  size_t stalls = 0;
  size_t bursts = 0;
  for (const simdb::FaultEvent& e : result->fault_events) {
    EXPECT_LT(e.step, kDay);
    if (e.type == simdb::FaultType::kIngestStall) {
      ++stalls;
    } else if (e.type == simdb::FaultType::kIngestBurst) {
      ++bursts;
    }
  }
  EXPECT_EQ(stalls, result->ingest_stall_steps);
  EXPECT_EQ(bursts, result->ingest_bursts);

  // An ingest-stall-only plan never touches the planner/cluster fault
  // paths in batch mode: allocation matches the fault-free batch run.
  auto clean = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                   LoopOptions());
  core::OnlineLoopOptions batch_with_stalls = LoopOptions();
  batch_with_stalls.faults = options.faults;
  auto batch = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                   batch_with_stalls);
  ASSERT_TRUE(clean.ok() && batch.ok());
  EXPECT_EQ(clean->allocation, batch->allocation);
  EXPECT_EQ(batch->points_ingested, 0u);  // stall plan inert in batch mode
}

TEST_F(StreamingLoopFixture, StalledProducerStarvesPlannerDeterministically) {
  // A permanent stall means the stream never delivers: every round plans
  // from the training prefix alone and all points stay pending.
  core::OnlineLoopOptions options = StreamingOptions();
  options.faults.ingest_stall_rate = 1.0;
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                    options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->points_ingested, 0u);
  EXPECT_EQ(result->points_pending, static_cast<uint64_t>(kDay));
  EXPECT_EQ(result->ingest_bursts, 0u);
  EXPECT_EQ(result->ingest_stall_steps, static_cast<size_t>(kDay));
  EXPECT_EQ(result->refresh.refreshes, 0u);
}

TEST(StreamingWqlTest, IncrementalForecastsStayWithinOnePercentOfBatch) {
  // Model-level acceptance: serving forecasts from incrementally refreshed
  // state must hold wQL within 1% of full per-round refits. For ARIMA the
  // coefficients stay frozen while sigma2 tracks the stream, so the two
  // genuinely diverge — the bound is the contract.
  const ts::TimeSeries series = SineSeries(8 * kDay, 0.5, 97);
  const size_t train_end = 6 * kDay;

  forecast::ArimaForecaster::Options options;
  options.p = 2;
  options.q = 1;
  options.d = 0;
  options.seasonal_d = 1;
  options.season = kDay;
  options.context_length = 2 * kDay;
  options.horizon = 36;

  forecast::ArimaForecaster incremental(options);
  ASSERT_TRUE(incremental.Fit(series.Slice(0, train_end)).ok());

  std::vector<ts::QuantileForecast> inc_forecasts;
  std::vector<ts::QuantileForecast> batch_forecasts;
  std::vector<std::vector<double>> actuals;
  const size_t step = 36;
  for (size_t at = train_end; at + step <= 8 * kDay - 36; at += step) {
    if (at > train_end) {
      ASSERT_TRUE(
          incremental.IncrementalUpdate(series.Slice(0, at), step).ok());
    }
    forecast::ArimaForecaster batch(options);
    ASSERT_TRUE(batch.Fit(series.Slice(0, at)).ok());

    forecast::ForecastInput input;
    input.start_index = at;
    input.step_minutes = series.step_minutes;
    input.context.assign(
        series.values.begin() + static_cast<long>(at - 2 * kDay),
        series.values.begin() + static_cast<long>(at));
    auto inc = incremental.PredictSeeded(input, 7);
    auto full = batch.PredictSeeded(input, 7);
    ASSERT_TRUE(inc.ok() && full.ok());
    inc_forecasts.push_back(*inc);
    batch_forecasts.push_back(*full);
    actuals.emplace_back(
        series.values.begin() + static_cast<long>(at),
        series.values.begin() + static_cast<long>(at + 36));
  }
  ASSERT_GT(inc_forecasts.size(), 3u);
  const double inc_wql =
      ts::EvaluateForecasts(inc_forecasts, actuals, {0.5, 0.9}).mean_wql;
  const double batch_wql =
      ts::EvaluateForecasts(batch_forecasts, actuals, {0.5, 0.9}).mean_wql;
  ASSERT_GT(batch_wql, 0.0);
  EXPECT_LE(std::fabs(inc_wql - batch_wql) / batch_wql, 0.01)
      << "incremental wQL " << inc_wql << " vs batch " << batch_wql;
}

}  // namespace
}  // namespace rpas
