#ifndef RPAS_OBS_EXPORT_H_
#define RPAS_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace rpas::obs {

/// One auto-scaling decision step, as recorded by a closed-loop run. The
/// obs layer defines the record (it depends only on rpas_common); the
/// core layer builds them from each step's simdb::StepStats
/// (core::MakeScalingDecision).
struct ScalingDecision {
  std::string run;  ///< label of the run/cell this step belongs to
  uint64_t step = 0;
  int target_nodes = 0;
  int active_nodes = 0;
  double workload = 0.0;
  double utilization = 0.0;
  bool under_provisioned = false;
  bool slo_violated = false;
  bool faulted = false;  ///< at least one injected fault active this step
};

/// Export configuration. In `deterministic` mode the export is a pure
/// function of the run's seeds — byte-identical across repeats and thread
/// counts. The price of that contract:
///   * metrics registered `deterministic = false` are skipped entirely,
///   * histograms omit their floating-point `sum` (accumulation order
///     varies under parallelism),
///   * spans are reduced to sorted (name, tag) pairs — times, ids, thread
///     and nesting fields all depend on scheduling.
/// The default (full) mode emits everything, including wall-clock timings.
struct ExportOptions {
  bool deterministic = false;
};

/// A whole run bundled for export: a metrics registry snapshot, the trace
/// buffer contents, and per-step scaling decisions. JSONL and CSV writers
/// emit fields in a fixed, documented order (schema `rpas_obs.v1`, see
/// EXPERIMENTS.md) so exports diff cleanly across runs.
class RunExport {
 public:
  RunExport(const MetricsRegistry* metrics, const TraceBuffer* trace,
            std::vector<ScalingDecision> decisions = {},
            ExportOptions options = {});

  /// Renders the export as JSON Lines. First line is a run header; then
  /// one line per counter, gauge, histogram, span, and decision, in that
  /// order, each sub-sequence deterministically sorted.
  std::string ToJsonl() const;

  /// Renders the export as one flat CSV: a fixed union-of-fields header,
  /// one row per record, empty cells where a field does not apply.
  std::string ToCsv() const;

 private:
  const MetricsRegistry* metrics_;  // may be null
  const TraceBuffer* trace_;        // may be null
  std::vector<ScalingDecision> decisions_;
  ExportOptions options_;
};

/// Formats a double exactly (shortest round-trip form via %.17g with
/// trailing-zero trimming); shared by both writers so JSONL and CSV agree.
/// NaN and ±Inf have no JSON spelling and are written `null`.
std::string FormatDouble(double value);

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and control bytes.
std::string JsonEscape(const std::string& s);

}  // namespace rpas::obs

#endif  // RPAS_OBS_EXPORT_H_
