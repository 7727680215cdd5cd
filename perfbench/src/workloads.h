#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four benchmark workloads. Each drives one of the program's two public
// drivers (core::RunOnlineLoop, serve::RunFleet) over inputs generated from
// the workload seed; the program only ever receives the generated series.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "tracing.h"

namespace perfbench {

struct WorkloadConfig {
  uint64_t seed = 1;
  /// Self-test size: the same code paths at a fraction of the work.
  bool tiny = false;
  /// Scratch directory for checkpoints (inside the benchmark's build tree).
  std::string work_dir;
};

/// Deterministic layer counters of one driver call, read from the public
/// result structs (never from metric names).
struct LayerCounts {
  uint64_t fallback_rounds = 0;
  uint64_t stale_rounds = 0;
  uint64_t retried_rounds = 0;
  uint64_t error_rounds = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t throttled = 0;
  uint64_t shed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t resident_bytes = 0;
  uint64_t mapped_bytes = 0;
  uint64_t tier_switches = 0;
  uint64_t tier_promotions = 0;
  uint64_t tier_demotions = 0;
  uint64_t prescale_activations = 0;
  uint64_t prescale_floor_raised_steps = 0;
  uint64_t points_pushed = 0;
  uint64_t points_dropped = 0;
  uint64_t points_consumed = 0;
  uint64_t fine_tunes = 0;
  uint64_t resyncs = 0;
  uint64_t full_retrains = 0;
  uint64_t allocate_calls = 0;  ///< allocations the driver made
  uint64_t simdb_steps = 0;     ///< cluster steps the driver made
  /// Trainable checkpoints the benchmark restored before the driver call
  /// (the loops' fresh model per call); traced as checkpoint loads.
  uint64_t checkpoint_restores = 0;

  void Add(const LayerCounts& other);
};

/// Timings of layers the drivers construct internally, measured by
/// replaying their public calls on the pass's own outputs (traced run only).
struct ReplayTimes {
  uint64_t simdb_calls = 0;
  double simdb_busy_s = 0.0;
  uint64_t allocate_calls = 0;
  double allocate_busy_s = 0.0;
};

/// Outcome of one driver call.
struct PassOutcome {
  double wall_s = 0.0;  ///< the driver call alone, set-up excluded
  uint64_t tenant_rounds = 0;
  uint64_t fresh_rounds = 0;
  uint64_t tenant_steps = 0;
  uint64_t slo_violated_steps = 0;
  /// Provisioning rates weighted by tenant-steps, so passes pool exactly.
  double under_provision_steps = 0.0;
  double over_provision_steps = 0.0;
  /// FNV-1a over every deterministic output of the call.
  uint64_t fingerprint = 0;
  LayerCounts counts;
  ReplayTimes replay;
  /// Violated invariants; any entry fails the run.
  std::vector<std::string> violations;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and builds every model and checkpoint the passes
  /// need. Deterministic: calling it again rebuilds identical state, and
  /// SetupFingerprint() proves it. With `log` set, each model Fit records a
  /// "forecast.fit" span.
  virtual rpas::Status Setup(SpanLog* log) = 0;
  virtual uint64_t SetupFingerprint() const = 0;

  /// Distinct driver calls whose outputs define the quality metrics. Pass
  /// indices beyond it repeat pass `index % NumPasses()`.
  virtual size_t NumPasses() const = 0;

  /// Size of the RPAS pool during the run, which is also the number of
  /// threads that call into the layers during a pass (the share denominator
  /// and the host-speed probe's width): 1 for the single-tenant loops, at
  /// most four and never more than the host has for the fleets.
  virtual int CallingThreads() const = 0;

  /// Runs one driver call. With `log` set, the benchmark's decorators are
  /// injected, the call itself is recorded as a "driver.call" span and the
  /// replays are timed; without it the call runs exactly as a user of the
  /// program would run it.
  virtual rpas::Result<PassOutcome> RunPass(size_t pass, SpanLog* log) = 0;
};

/// Known workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
