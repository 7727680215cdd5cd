// Streaming ingestion benchmark: refresh-mode x ingest-rate grid.
//
// Each cell streams the trace tail through a stream::IngestRing at `rate`
// points per round and keeps a fitted forecaster current with one of two
// refresh modes:
//   - batch: full Fit() on the whole history every round (the
//     pre-streaming behavior — cost tied to the window size);
//   - incremental: stream::IncrementalRefresher (recursive state updates
//     for seasonal-naive/ARIMA, bounded warm-start fine-tune for MLP) —
//     cost tied to the number of new points.
// and reports, per cell: mean refresh wall time per round, refresh
// microseconds per ingested point, point staleness at refresh time
// (arrival-to-fold delay in points: mean (rate-1)/2, max rate-1), and
// the held-out wQL of forecasts served from the refreshed state.
//
// Named checks (exit 1 on violation): for every recursive-update model
// (seasonal naive, ARIMA), incremental wQL stays within 1% of the
// batch-refit wQL at every ingest rate; every cell consumes exactly
// rate x rounds points with staleness mean (rate-1)/2 and max rate-1; and
// the grid has a DeepAR row. The MLP and DeepAR fine-tune rows are
// reported but unbounded — warm-started SGD and from-scratch refits are
// different estimators, and the drift guard (not a static bound) owns
// that gap in production. MLP cells run only at rates >= 16 and only
// without --quick: a per-round from-scratch refit at rate 1 is exactly
// the cost this subsystem exists to avoid. Timing columns are reported
// for humans and never checked.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "forecast/seasonal_naive.h"
#include "obs/metrics.h"
#include "stream/refresher.h"
#include "stream/ring.h"
#include "trace/generator.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

constexpr size_t kStreamContext = 288;  // 2 days of 10-minute samples
constexpr size_t kStreamHorizon = 36;
constexpr uint64_t kEvalSeedBase = 0x57E4;

enum class Mode { kBatch, kIncremental };

const char* ModeName(Mode mode) {
  return mode == Mode::kBatch ? "batch" : "incremental";
}

struct CellResult {
  std::string model;
  Mode mode = Mode::kBatch;
  size_t rate = 0;
  size_t rounds = 0;
  size_t points = 0;
  double mean_refresh_ms = 0.0;
  double total_refresh_ms = 0.0;
  double us_per_point = 0.0;
  double mean_staleness = 0.0;
  uint64_t max_staleness = 0;
  double wql = 0.0;
};

struct ModelSpec {
  std::string name;
  bool recursive = false;  ///< recursive state path (wQL bound applies)
  size_t min_rate = 1;     ///< skip cells below this ingest rate
  bool quick_ok = true;
  size_t context = kStreamContext;  ///< ForecastInput context length
  std::function<std::unique_ptr<forecast::Forecaster>()> make;
};

std::vector<ModelSpec> MakeModelSpecs(const BenchOptions& options) {
  std::vector<ModelSpec> specs;
  specs.push_back(
      {"seasonal_naive", /*recursive=*/true, /*min_rate=*/1,
       /*quick_ok=*/true, kStreamContext, [] {
         forecast::SeasonalNaiveForecaster::Options o;
         o.context_length = kStreamContext;
         o.horizon = kStreamHorizon;
         o.season = kStepsPerDay;
         return std::make_unique<forecast::SeasonalNaiveForecaster>(o);
       }});
  specs.push_back(
      {"arima", /*recursive=*/true, /*min_rate=*/1, /*quick_ok=*/true,
       kStreamContext, [] {
         forecast::ArimaForecaster::Options o;
         o.p = 2;
         o.q = 1;
         o.d = 0;
         o.seasonal_d = 1;
         o.season = kStepsPerDay;
         o.context_length = kStreamContext;
         o.horizon = kStreamHorizon;
         return std::make_unique<forecast::ArimaForecaster>(o);
       }});
  const bool quick = options.quick;
  specs.push_back(
      {"mlp", /*recursive=*/false, /*min_rate=*/16, /*quick_ok=*/false,
       /*context=*/72, [quick] {
         forecast::MlpForecaster::Options o;
         o.context_length = 72;
         o.horizon = kStreamHorizon;
         o.hidden_dim = 32;
         o.num_hidden_layers = 1;
         o.batch_size = 16;
         o.train.steps = quick ? 30 : 60;
         o.train.lr = 1e-3;
         o.fine_tune_steps = 8;
         return std::make_unique<forecast::MlpForecaster>(o);
       }});
  // DeepAR fine-tune rows: warm-start gradient steps against per-round
  // from-scratch refits, the autoregressive counterpart of the MLP rows.
  // Sized small enough (hidden 16, short training) to run under --quick at
  // rate >= 8, so the CI smoke always sees a deepar row with a wQL column.
  specs.push_back(
      {"deepar", /*recursive=*/false, /*min_rate=*/8, /*quick_ok=*/true,
       /*context=*/72, [quick] {
         forecast::DeepArForecaster::Options o;
         o.context_length = 72;
         o.horizon = kStreamHorizon;
         o.hidden_dim = 16;
         o.batch_size = 4;
         o.num_samples = 24;
         o.train.steps = quick ? 15 : 40;
         o.train.lr = 1e-3;
         o.fine_tune_steps = 6;
         return std::make_unique<forecast::DeepArForecaster>(o);
       }});
  return specs;
}

/// Streams `stream_steps` tail points at `rate` points per round and keeps
/// `model` current in the given mode; forecasts from the refreshed state on
/// a fixed round stride feed the wQL column.
CellResult RunCell(const ModelSpec& spec, Mode mode, size_t rate,
                   const ts::TimeSeries& series, size_t train_end,
                   size_t stream_steps) {
  std::unique_ptr<forecast::Forecaster> model = spec.make();
  RPAS_CHECK(model->Fit(series.Slice(0, train_end)).ok());

  stream::RefresherOptions refresher_options;
  refresher_options.drift_window = 0;  // guard off: measure the pure modes
  stream::IncrementalRefresher refresher(model.get(), refresher_options);
  if (mode == Mode::kIncremental) {
    RPAS_CHECK(refresher.Prime(series.Slice(0, train_end)).ok());
  }

  stream::IngestRing ring(std::max<size_t>(2 * rate, 8));
  stream::StreamCursor cursor(&ring);
  std::vector<double> drained;

  const size_t rounds = stream_steps / rate;
  const size_t forecast_stride = std::max<size_t>(1, rounds / 16);

  CellResult cell;
  cell.model = spec.name;
  cell.mode = mode;
  cell.rate = rate;
  cell.rounds = rounds;

  std::vector<ts::QuantileForecast> forecasts;
  std::vector<std::vector<double>> actuals;
  uint64_t staleness_sum = 0;
  size_t consumed = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < rate; ++i) {
      ring.Push(series.values[train_end + consumed + i]);
    }
    drained.clear();
    const stream::StreamCursor::Batch batch = cursor.Poll(&drained);
    RPAS_CHECK(batch.count == rate && batch.missed == 0)
        << "ring sized for drop-free per-round drains";
    // Staleness of the j-th drained point: how many points arrived after
    // it before this refresh folded it in.
    for (size_t j = 0; j < rate; ++j) {
      staleness_sum += rate - 1 - j;
    }
    cell.max_staleness = std::max(cell.max_staleness,
                                  static_cast<uint64_t>(rate - 1));
    consumed += rate;
    const ts::TimeSeries history = series.Slice(0, train_end + consumed);

    cell.total_refresh_ms += TimedMillis("stream.refresh", [&] {
      if (mode == Mode::kIncremental) {
        auto outcome = refresher.Refresh(history, batch.count, batch.missed);
        RPAS_CHECK(outcome.ok()) << outcome.status().ToString();
      } else {
        // Batch mode refits on the same full history the incremental
        // state covers, so the wQL columns compare like with like and the
        // cost scales with the window, not with the new points.
        RPAS_CHECK(model->Fit(history).ok());
      }
    });

    // Serve a forecast from the refreshed state on a fixed stride (same
    // rounds and seeds in both modes, so the wQL columns are comparable).
    const size_t at = train_end + consumed;
    if (round % forecast_stride == 0 &&
        at + kStreamHorizon <= series.size()) {
      const forecast::ForecastInput input =
          forecast::ForecastInput::Window(series, at, spec.context);
      auto forecast =
          model->PredictSeeded(input, kEvalSeedBase + forecasts.size());
      RPAS_CHECK(forecast.ok()) << forecast.status().ToString();
      forecasts.push_back(std::move(*forecast));
      actuals.emplace_back(
          series.values.begin() + static_cast<long>(at),
          series.values.begin() + static_cast<long>(at + kStreamHorizon));
    }
  }

  cell.points = consumed;
  cell.mean_refresh_ms = cell.total_refresh_ms / static_cast<double>(rounds);
  cell.us_per_point =
      1000.0 * cell.total_refresh_ms / static_cast<double>(consumed);
  cell.mean_staleness =
      static_cast<double>(staleness_sum) / static_cast<double>(consumed);
  RPAS_CHECK(!forecasts.empty());
  cell.wql =
      ts::EvaluateForecasts(forecasts, actuals, model->Levels()).mean_wql;
  return cell;
}

void RunStreamingIngest(const BenchOptions& options, Report* report) {
  trace::SyntheticTraceGenerator generator(trace::AlibabaProfile(),
                                           options.seed);
  // The full grid trains on a 3-week prefix: the recursive models keep
  // their coefficients frozen across the streamed tail, so the tail must
  // stay a modest fraction of what the coefficients were estimated on for
  // the 1% wQL bound to be a fair ask.
  const size_t total_days = options.quick ? 10 : 21;
  const ts::TimeSeries series =
      generator.GenerateCpu(total_days * kStepsPerDay);
  const size_t stream_steps =
      (options.quick ? 2 : 4) * kStepsPerDay;  // trailing horizon stays
  const size_t train_end = series.size() - stream_steps - kStreamHorizon;

  std::vector<size_t> rates = options.quick
                                  ? std::vector<size_t>{1, 8}
                                  : std::vector<size_t>{1, 4, 16, 64};

  Table& table = report->AddTable(
      "grid", "Streaming ingest: refresh cost and staleness by mode x rate",
      {"model", "mode", "rate", "rounds", "refresh_ms", "us/point",
       "stale_mean", "stale_max", "wQL"});
  bool identities = true;
  size_t deepar_rows = 0;
  for (const ModelSpec& spec : MakeModelSpecs(options)) {
    if (options.quick && !spec.quick_ok) {
      std::printf("streaming_ingest: skipping %s under --quick\n",
                  spec.name.c_str());
      continue;
    }
    for (size_t rate : rates) {
      if (rate < spec.min_rate) {
        std::printf("streaming_ingest: skipping %s at rate %zu "
                    "(per-round refits below rate %zu are the cost this "
                    "subsystem avoids)\n",
                    spec.name.c_str(), rate, spec.min_rate);
        continue;
      }
      double wql_batch = 0.0;
      double wql_incremental = 0.0;
      for (Mode mode : {Mode::kBatch, Mode::kIncremental}) {
        const CellResult cell =
            RunCell(spec, mode, rate, series, train_end, stream_steps);
        table.AddRow({cell.model, ModeName(cell.mode), Int(cell.rate),
                      Int(cell.rounds), Real(cell.mean_refresh_ms),
                      Real(cell.us_per_point), Real(cell.mean_staleness),
                      Int(cell.max_staleness), Real(cell.wql, 6)});
        (mode == Mode::kBatch ? wql_batch : wql_incremental) = cell.wql;
        // Per-round drains: every point is consumed, the j-th of a round's
        // `rate` points waits for the rate-1-j that arrive after it.
        identities = identities && cell.points == cell.rate * cell.rounds &&
                     std::fabs(cell.mean_staleness -
                               (static_cast<double>(cell.rate) - 1.0) / 2.0) <
                         1e-6 &&
                     cell.max_staleness == cell.rate - 1;
        deepar_rows += cell.model == "deepar" ? 1 : 0;
      }
      if (spec.recursive) {
        const double delta_pct =
            wql_batch > 0.0
                ? 100.0 * std::fabs(wql_incremental - wql_batch) / wql_batch
                : 0.0;
        report->Check(
            StrFormat("%s_rate%zu_wql_delta", spec.name.c_str(), rate),
            delta_pct <= 1.0,
            StrFormat("incremental vs batch wQL %.4f%% <= 1%%", delta_pct));
      }
    }
  }
  table.Print();
  report->Check("cell_identities", identities,
                "points == rate x rounds, staleness mean (rate-1)/2 and max "
                "rate-1 in every cell");
  report->Check("deepar_rows", deepar_rows > 0,
                StrFormat("%zu deepar rows with a wQL column", deepar_rows));
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Streaming ingest: refresh-mode x ingest-rate grid (refresh cost, "
      "staleness, wQL vs batch refits)");
  rpas::bench::Report report("streaming_ingest", options);
  rpas::bench::RunStreamingIngest(options, &report);
  return report.Finish();
}
