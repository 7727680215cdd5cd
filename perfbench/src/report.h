#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Metric computation and output: the end-to-end set of a timed run, the
// per-layer set of a traced run, and the provenance block every output
// carries.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tracing.h"
#include "workloads.h"

namespace perfbench {

/// Ordered name -> (value, unit) list, printed as the result's "metrics".
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Quality outputs pooled over a workload's distinct passes.
struct Pooled {
  uint64_t tenant_rounds = 0;
  uint64_t fresh_rounds = 0;
  uint64_t tenant_steps = 0;
  uint64_t slo_violated_steps = 0;
  double under_provision_steps = 0.0;
  double over_provision_steps = 0.0;
  LayerCounts counts;

  void Add(const PassOutcome& pass);
};

/// End-to-end metrics of the timed run.
MetricSet EndToEndMetrics(const std::vector<double>& rounds_per_s,
                          double setup_s, double peak_rss_mib,
                          const Pooled& pooled);

/// Per-layer metrics of the traced run. `traced_wall_s` is the summed wall
/// time of the traced driver calls and `threads` the share denominator's
/// thread count; `trace_overhead` is the traced calls' time over the same
/// calls' untraced time, minus one.
MetricSet PerLayerMetrics(const std::vector<SpanRecord>& spans,
                          uint64_t forecast_errors, const Pooled& pooled,
                          const ReplayTimes& replay, double traced_wall_s,
                          double trace_overhead, int threads);

/// Cross-checks the decorators' spans against the drivers' own counts:
/// every forecast served is one prediction or one batch row and becomes one
/// allocation or one error round, and every checkpoint load is one registry
/// miss or one restore. Returns the violated identities.
std::vector<std::string> CheckTracedCounts(
    const std::vector<SpanRecord>& spans, const LayerCounts& counts);

/// Maximum resident set size of this process so far, in MiB.
double PeakRssMib();

struct Provenance {
  std::string workload;
  uint64_t seed = 0;
  bool tiny = false;
  std::string git_sha;
  int rpas_threads = 1;
};
/// One-line JSON: host, build and run identity.
std::string ProvenanceJson(const Provenance& p);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
