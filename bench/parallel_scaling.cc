// Thread-pool scaling check: times the rolling-origin backtest, whose
// folds are independent pool tasks, serial (RPAS_NUM_THREADS=1) vs
// parallel (4 threads), reports the speedup, and verifies the results are
// bit-identical. Kernels run on their calling thread, so the folds are the
// only parallel level here. On a >= 4-core machine the speedup should
// approach the fold count (4); on fewer cores it degrades toward 1x, but
// the bit-identical column must stay "yes" everywhere.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "forecast/backtest.h"
#include "forecast/mlp.h"
#include "trace/generator.h"

namespace rpas::bench {
namespace {

constexpr int kParallelThreads = 4;

void RunParallelScaling(const BenchOptions& options, Report* report) {
  std::printf("hardware threads available: %d (RPAS_NUM_THREADS default)\n",
              RpasThreads());

  Table& table = report->AddTable(
      "scaling", "Thread pool: serial vs 4-thread timings",
      {"workload", "serial_ms", "parallel_ms@4", "speedup", "bit_identical"});

  trace::SyntheticTraceGenerator gen(trace::AlibabaProfile(), options.seed);
  const ts::TimeSeries series = gen.GenerateCpu(12 * kStepsPerDay);

  forecast::BacktestOptions bt;
  bt.folds = 4;
  bt.fold_steps = kStepsPerDay;
  bt.base_seed = options.seed;
  const forecast::SeededForecasterFactory factory =
      [&](size_t, uint64_t seed) {
        forecast::MlpForecaster::Options mlp;
        mlp.context_length = 36;
        mlp.horizon = 12;
        mlp.hidden_dim = 16;
        mlp.num_hidden_layers = 1;
        mlp.batch_size = 16;
        mlp.train.steps = options.quick ? 40 : 120;
        mlp.train.lr = 1e-3;
        mlp.use_time_features = false;
        mlp.seed = seed;
        return std::make_unique<forecast::MlpForecaster>(mlp);
      };

  SetRpasThreads(1);
  Result<forecast::BacktestResult> serial = Status::Internal("unset");
  const double serial_ms = TimedMillis(
      "bench.backtest.serial",
      [&] { serial = forecast::Backtest(factory, series, bt); });
  RPAS_CHECK(serial.ok()) << serial.status().ToString();

  SetRpasThreads(kParallelThreads);
  Result<forecast::BacktestResult> parallel = Status::Internal("unset");
  const double parallel_ms = TimedMillis(
      "bench.backtest.parallel",
      [&] { parallel = forecast::Backtest(factory, series, bt); });
  SetRpasThreads(0);
  RPAS_CHECK(parallel.ok()) << parallel.status().ToString();

  const bool identical = report->Check(
      "backtest_bit_identical",
      serial->mean_wql.mean == parallel->mean_wql.mean &&
          serial->mean_wql.stddev == parallel->mean_wql.stddev &&
          serial->mse.mean == parallel->mse.mean &&
          serial->mae.mean == parallel->mae.mean,
      "4-fold backtest wQL, MSE and MAE, serial vs parallel");
  table.AddRow({"backtest 4 folds", Real(serial_ms), Real(parallel_ms),
                Real(serial_ms / parallel_ms, 3), Bool(identical)});
  table.Print();
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Thread-pool scaling of the rolling-origin backtest");
  rpas::bench::Report report("parallel_scaling", options);
  rpas::bench::RunParallelScaling(options, &report);
  return report.Finish();
}
