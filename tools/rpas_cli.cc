// rpas — command-line front end for the RPAS library.
//
// Subcommands:
//   rpas generate  --out=trace.csv [--trace=alibaba|google] [--days=21]
//                  [--seed=7] [--column=value]
//       Synthesizes a cluster CPU trace and writes it as CSV.
//
//   rpas train     --data=trace.csv --ckpt=model.ckpt [--model=tft|deepar|mlp]
//                  [--context=72] [--horizon=72] [--steps=400] [--seed=23]
//       Trains a probabilistic forecaster on the CSV series and saves an
//       fp64 rpasq.v1 checkpoint (rpas_quantize converts it to a smaller
//       storage dtype).
//
//   rpas forecast  --data=trace.csv --ckpt=model.ckpt [--model=...]
//                  [--context=72] [--horizon=72]
//       Restores the model and prints the quantile forecast conditioned on
//       the end of the series.
//
//   rpas plan      --data=trace.csv --ckpt=model.ckpt [--model=...]
//                  [--theta=50] [--tau=0.9] [--min-nodes=1]
//                  [--context=72] [--horizon=72]
//       Produces a node allocation plan from the forecast (paper Eq. 6).
//
//   rpas evaluate  --data=trace.csv --ckpt=model.ckpt [--model=...]
//                  [--test-steps=432] [--context=72] [--horizon=72]
//       Rolling evaluation of the restored model on the series tail.
//
// Model architecture flags must match between `train` and the restoring
// subcommands; the checkpoint signature enforces this. A malformed or
// out-of-range flag (a count below 1, --tau outside (0, 1), --theta not
// finite and positive) exits 2 naming the flag, before any model is built
// or file read.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/strings.h"
#include "core/manager.h"
#include "core/strategies.h"
#include "forecast/deepar.h"
#include "forecast/forecaster.h"
#include "forecast/mlp.h"
#include "forecast/tft.h"
#include "trace/generator.h"
#include "ts/metrics.h"
#include "ts/time_series.h"

namespace {

using namespace rpas;

/// Minimal --key=value argument map.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg);
        std::exit(2);
      }
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        values_[std::string(arg + 2)] = "1";
      } else {
        values_[std::string(arg + 2, eq)] = eq + 1;
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    Result<double> value = ParseDouble(it->second);
    Check(value.ok(), key, "is not a number");
    return *value;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    Result<int64_t> value = ParseInt64(it->second);
    Check(value.ok() && *value >= std::numeric_limits<int>::min() &&
              *value <= std::numeric_limits<int>::max(),
          key, "is not an integer in int range");
    return static_cast<int>(*value);
  }
  /// An integer flag that must be >= 1 (lengths, step and unit counts).
  size_t GetCount(const std::string& key, int fallback) const {
    const int value = GetInt(key, fallback);
    Check(value >= 1, key, "must be >= 1");
    return static_cast<size_t>(value);
  }
  /// Exits 2 naming --key and its value unless `ok`.
  void Check(bool ok, const std::string& key, const char* rule) const {
    if (!ok) {
      std::fprintf(stderr, "invalid --%s=%s: %s\n", key.c_str(),
                   Get(key, "").c_str(), rule);
      std::exit(2);
    }
  }
  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

[[noreturn]] void Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

ts::TimeSeries LoadSeries(const Flags& flags) {
  const std::string path = flags.Require("data");
  const std::string column = flags.Get("column", "value");
  auto series = ts::LoadTimeSeriesCsv(path, column);
  if (!series.ok()) {
    Fail(series.status());
  }
  return std::move(series).value();
}

/// Builds the (untrained) model described by the flags. The same flags must
/// be passed to train and to the restoring subcommands.
std::unique_ptr<forecast::Forecaster> BuildModel(const Flags& flags) {
  const std::string kind = flags.Get("model", "tft");
  const size_t context = flags.GetCount("context", 72);
  const size_t horizon = flags.GetCount("horizon", 72);
  const int steps = static_cast<int>(flags.GetCount("steps", 400));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 23));
  const size_t hidden = flags.GetCount("hidden", 32);
  const size_t d_model = flags.GetCount("d-model", 16);
  if (kind == "tft") {
    forecast::TftForecaster::Options options;
    options.context_length = context;
    options.horizon = horizon;
    options.d_model = d_model;
    options.batch_size = 3;
    options.train.steps = steps;
    options.levels = forecast::ScalingQuantileLevels();
    options.seed = seed;
    return std::make_unique<forecast::TftForecaster>(options);
  }
  if (kind == "deepar") {
    forecast::DeepArForecaster::Options options;
    options.context_length = context;
    options.horizon = horizon;
    options.hidden_dim = hidden;
    options.train.steps = steps;
    options.levels = forecast::ScalingQuantileLevels();
    options.seed = seed;
    return std::make_unique<forecast::DeepArForecaster>(options);
  }
  if (kind == "mlp") {
    forecast::MlpForecaster::Options options;
    options.context_length = context;
    options.horizon = horizon;
    options.hidden_dim = hidden;
    options.num_hidden_layers = 2;
    options.train.steps = steps;
    options.levels = forecast::ScalingQuantileLevels();
    options.seed = seed;
    return std::make_unique<forecast::MlpForecaster>(options);
  }
  std::fprintf(stderr, "unknown --model=%s (tft|deepar|mlp)\n", kind.c_str());
  std::exit(2);
}

forecast::ForecastInput TailInput(const ts::TimeSeries& series,
                                  size_t context) {
  if (series.size() < context) {
    std::fprintf(stderr, "series has %zu points; need >= %zu for context\n",
                 series.size(), context);
    std::exit(1);
  }
  return forecast::ForecastInput::Window(series, series.size(), context);
}

// ------------------------------------------------------------ subcommands ---

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Require("out");
  trace::TraceProfile profile = flags.Get("trace", "alibaba") == "google"
                                    ? trace::GoogleProfile()
                                    : trace::AlibabaProfile();
  const size_t days = flags.GetCount("days", 21);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  trace::SyntheticTraceGenerator generator(profile, seed);
  ts::TimeSeries series = generator.GenerateCpu(days * 144);
  if (Status s = ts::SaveTimeSeriesCsv(out, series); !s.ok()) {
    Fail(s);
  }
  std::printf("wrote %zu steps (%zu days of %s) to %s\n", series.size(),
              days, profile.name.c_str(), out.c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string ckpt = flags.Require("ckpt");
  std::unique_ptr<forecast::Forecaster> model = BuildModel(flags);
  ts::TimeSeries series = LoadSeries(flags);
  std::printf("training %s on %zu points...\n", model->Name().c_str(),
              series.size());
  if (Status s = model->Fit(series); !s.ok()) {
    Fail(s);
  }
  if (Status s = model->SaveCheckpoint(ckpt); !s.ok()) {
    Fail(s);
  }
  std::printf("checkpoint written to %s\n", ckpt.c_str());
  return 0;
}

int CmdForecast(const Flags& flags) {
  const std::string ckpt = flags.Require("ckpt");
  std::unique_ptr<forecast::Forecaster> model = BuildModel(flags);
  ts::TimeSeries series = LoadSeries(flags);
  if (Status s = model->LoadCheckpoint(ckpt); !s.ok()) {
    Fail(s);
  }
  auto fc = model->Predict(TailInput(series, model->ContextLength()));
  if (!fc.ok()) {
    Fail(fc.status());
  }
  std::printf("%6s", "step");
  for (double tau : fc->Levels()) {
    std::printf("  q%-8.2f", tau);
  }
  std::printf("\n");
  for (size_t h = 0; h < fc->Horizon(); ++h) {
    std::printf("%6zu", h);
    for (size_t q = 0; q < fc->Levels().size(); ++q) {
      std::printf("  %-9.2f", fc->ValueAtIndex(h, q));
    }
    std::printf("\n");
  }
  return 0;
}

int CmdPlan(const Flags& flags) {
  const std::string ckpt = flags.Require("ckpt");
  const double tau = flags.GetDouble("tau", 0.9);
  flags.Check(tau > 0.0 && tau < 1.0, "tau", "must be in (0, 1)");
  std::optional<double> theta;
  if (flags.Has("theta")) {
    theta = flags.GetDouble("theta", 0.0);
    flags.Check(std::isfinite(*theta) && *theta > 0.0, "theta",
                "must be finite and > 0");
  }
  const int min_nodes = flags.GetInt("min-nodes", 1);
  std::unique_ptr<forecast::Forecaster> model = BuildModel(flags);
  ts::TimeSeries series = LoadSeries(flags);
  if (Status s = model->LoadCheckpoint(ckpt); !s.ok()) {
    Fail(s);
  }
  core::ScalingConfig config;
  config.theta = theta.value_or(series.Mean() / 4.0);
  config.min_nodes = min_nodes;
  core::RobustAutoScalingManager manager(
      model.get(), std::make_unique<core::RobustQuantileAllocator>(tau),
      config);
  auto plan = manager.PlanNext(series);
  if (!plan.ok()) {
    Fail(plan.status());
  }
  std::printf("theta=%.2f tau=%.2f\n", config.theta, tau);
  std::printf("%6s  %12s  %12s  %6s\n", "step", "w^0.5", "w^tau", "nodes");
  for (size_t h = 0; h < plan->nodes.size(); ++h) {
    std::printf("%6zu  %12.2f  %12.2f  %6d\n", h,
                plan->forecast.Value(h, 0.5), plan->forecast.Value(h, tau),
                plan->nodes[h]);
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const std::string ckpt = flags.Require("ckpt");
  const size_t test_steps = flags.GetCount("test-steps", 432);
  std::unique_ptr<forecast::Forecaster> model = BuildModel(flags);
  ts::TimeSeries series = LoadSeries(flags);
  if (Status s = model->LoadCheckpoint(ckpt); !s.ok()) {
    Fail(s);
  }
  if (series.size() <= test_steps + model->ContextLength()) {
    std::fprintf(stderr, "series too short for --test-steps=%zu\n",
                 test_steps);
    return 1;
  }
  auto [train, test] = series.SplitTail(test_steps);
  auto rolled =
      forecast::RollForecasts(*model, train, test, model->Horizon());
  if (!rolled.ok()) {
    Fail(rolled.status());
  }
  auto report = ts::EvaluateForecasts(rolled->forecasts, rolled->actuals,
                                      model->Levels());
  std::printf("windows=%zu points=%zu\n", rolled->forecasts.size(),
              report.num_points);
  std::printf("mean_wQL=%.4f  MSE=%.2f  MAE=%.2f\n", report.mean_wql,
              report.mse, report.mae);
  for (const auto& [tau, cov] : report.coverage) {
    std::printf("  tau=%.2f  wQL=%.4f  coverage=%.3f\n", tau,
                report.wql.at(tau), cov);
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: rpas <generate|train|forecast|plan|evaluate> "
               "[--flags]\n(see the header of tools/rpas_cli.cc)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (command == "generate") {
    return CmdGenerate(flags);
  }
  if (command == "train") {
    return CmdTrain(flags);
  }
  if (command == "forecast") {
    return CmdForecast(flags);
  }
  if (command == "plan") {
    return CmdPlan(flags);
  }
  if (command == "evaluate") {
    return CmdEvaluate(flags);
  }
  Usage();
  return 2;
}
