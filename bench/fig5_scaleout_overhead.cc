// Reproduces paper Fig. 5: "Scale-out Overhead — it only takes a few
// seconds to scale out, i.e., to build in-memory components from the
// checkpoints." The paper's data came from Alibaba Cloud production; we
// sweep the simulator's warm-up model over checkpoint sizes and report the
// warm-up distribution, plus the fraction of a 10-minute decision interval
// the warm-up consumes (the quantity that justifies ignoring scaling
// overhead in the optimization, §III-C).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "simdb/warmup.h"

namespace rpas::bench {
namespace {

void RunFig5(const BenchOptions& options, Report* report) {
  simdb::WarmupModel model;
  model.base_latency_seconds = 1.2;
  model.replay_gbps = 2.0;
  model.jitter_fraction = 0.10;

  const int trials = options.quick ? 200 : 2000;
  Table& table = report->AddTable(
      "warmup", "Fig. 5: scale-out warm-up vs checkpoint size",
      {"checkpoint_gb", "warmup_p50_s", "warmup_p95_s", "warmup_max_s",
       "pct_of_10min_step"});
  Rng rng(options.seed);
  for (double gb : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    std::vector<double> samples;
    samples.reserve(trials);
    for (int i = 0; i < trials; ++i) {
      samples.push_back(model.WarmupSeconds(gb, &rng));
    }
    std::sort(samples.begin(), samples.end());
    const double p50 = samples[samples.size() / 2];
    const double p95 = samples[samples.size() * 95 / 100];
    const double mx = samples.back();
    table.AddRow({Real(gb), Real(p50, 3), Real(p95, 3), Real(mx, 3),
                  Real(100.0 * p50 / 600.0, 2)});
  }
  table.Print();
  std::printf(
      "\nObservation: warm-up stays in the seconds range — negligible\n"
      "against the 10-minute scaling interval, matching the paper's\n"
      "justification for omitting scaling overhead from the optimization.\n");
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Fig. 5: scale-out warm-up overhead in the cluster simulator");
  rpas::bench::Report report("fig5_scaleout_overhead", options);
  rpas::bench::RunFig5(options, &report);
  return report.Finish();
}
