// Reproduces paper Fig. 6: "The correlation between the level of
// uncertainty indicated by quantile forecasts and forecasting accuracy" —
// per-step U (Eq. 8) alongside the MSE of the mean forecast and the
// quantile loss over sampled forecasting horizons.
//
// A single step's squared error is an extremely noisy estimate of the local
// difficulty, so in addition to raw per-step correlations we report the two
// aggregate views that make the paper's trend visible:
//   * per horizon position (averaged across evaluation windows), and
//   * by uncertainty decile (mean error within each U bin).
// Expected shape (paper): higher uncertainty accompanies less accurate
// predictions — increasing error across U deciles and positive aggregate
// correlations.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/uncertainty.h"
#include "forecast/forecaster.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

void RunFig6(const BenchOptions& options, Report* report) {
  // TFT on the Google-like trace: quantile grids with meaningful spread on
  // a heteroskedastic workload.
  Dataset dataset = MakeDataset(trace::GoogleProfile(), options.seed + 1);
  auto model = MakeTft(kHorizon, AccuracyLevels(), options.quick, /*run=*/0);
  RPAS_CHECK(model->Fit(dataset.train).ok());
  // Stride of half a horizon doubles the number of windows per step
  // position without leaking training data.
  auto rolled = forecast::RollForecasts(*model, dataset.train, dataset.test,
                                        kHorizon / 2);
  RPAS_CHECK(rolled.ok()) << rolled.status().ToString();
  const size_t windows = rolled->forecasts.size();

  std::vector<double> all_u;
  std::vector<double> all_se;
  std::vector<double> all_ql;
  std::vector<double> pos_u(kHorizon, 0.0);
  std::vector<double> pos_se(kHorizon, 0.0);
  std::vector<double> pos_ql(kHorizon, 0.0);
  for (size_t w = 0; w < windows; ++w) {
    const auto& fc = rolled->forecasts[w];
    const auto& actual = rolled->actuals[w];
    const auto u = core::QuantileUncertaintyPerStep(fc);
    const auto se = ts::PerStepSquaredError(fc, actual);
    const auto ql = ts::PerStepQuantileLoss(fc, actual);
    for (size_t h = 0; h < kHorizon; ++h) {
      all_u.push_back(u[h]);
      all_se.push_back(se[h]);
      all_ql.push_back(ql[h]);
      pos_u[h] += u[h];
      pos_se[h] += se[h];
      pos_ql[h] += ql[h];
    }
  }
  for (size_t h = 0; h < kHorizon; ++h) {
    pos_u[h] /= static_cast<double>(windows);
    pos_se[h] /= static_cast<double>(windows);
    pos_ql[h] /= static_cast<double>(windows);
  }

  // --- View 1: sampled per-position series (the figure's x-axis). ---
  Table& series = report->AddTable(
      "by_position",
      "Fig. 6: per-horizon-position uncertainty vs accuracy (mean over " +
          Num(static_cast<double>(windows), 3) + " windows)",
      {"step", "mean_U", "mean_sq_error", "mean_qloss"});
  for (size_t h = 0; h < kHorizon; h += options.quick ? 12 : 6) {
    series.AddRow({Real(static_cast<double>(h), 3), Real(pos_u[h]),
                   Real(pos_se[h]), Real(pos_ql[h])});
  }
  series.Print();

  // --- View 2: error by uncertainty decile. ---
  std::vector<size_t> order(all_u.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return all_u[a] < all_u[b]; });
  Table& bins = report->AddTable(
      "by_decile", "Fig. 6: accuracy by uncertainty decile",
      {"U_decile", "mean_U", "mean_sq_error", "mean_qloss"});
  const size_t per_bin = order.size() / 10;
  for (int d = 0; d < 10; ++d) {
    double bu = 0.0;
    double bse = 0.0;
    double bql = 0.0;
    for (size_t i = static_cast<size_t>(d) * per_bin;
         i < static_cast<size_t>(d + 1) * per_bin; ++i) {
      bu += all_u[order[i]];
      bse += all_se[order[i]];
      bql += all_ql[order[i]];
    }
    const double inv = 1.0 / static_cast<double>(per_bin);
    bins.AddRow({Real(static_cast<double>(d + 1), 2), Real(bu * inv),
                 Real(bse * inv), Real(bql * inv)});
  }
  bins.Print();

  std::printf("\nPearson correlations:\n");
  std::printf("  per-step      corr(U, sq_error) = %6.3f   corr(U, qloss) = %6.3f\n",
              ts::PearsonCorrelation(all_u, all_se),
              ts::PearsonCorrelation(all_u, all_ql));
  std::printf("  per-position  corr(U, sq_error) = %6.3f   corr(U, qloss) = %6.3f\n",
              ts::PearsonCorrelation(pos_u, pos_se),
              ts::PearsonCorrelation(pos_u, pos_ql));
  std::printf(
      "Expected shape (paper): positive — higher forecast uncertainty\n"
      "accompanies less accurate predictions.\n");
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Fig. 6: forecast uncertainty vs realized error correlation");
  rpas::bench::Report report("fig6_uncertainty_correlation", options);
  rpas::bench::RunFig6(options, &report);
  return report.Finish();
}
