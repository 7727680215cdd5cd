#ifndef RPAS_NN_TRAINER_H_
#define RPAS_NN_TRAINER_H_

#include <functional>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "common/status.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"

namespace rpas::nn {

/// Shared training-loop configuration for the neural forecasters.
struct TrainConfig {
  int steps = 500;          ///< optimizer steps
  double lr = 1e-3;         ///< paper §IV-A: fixed 1e-3 for all models
  double clip_norm = 10.0;  ///< global gradient-norm clip
  uint64_t seed = 42;
  int log_every = 0;  ///< 0 disables progress logging
  /// Capture the per-step loss and gradient-norm trajectories in
  /// TrainSummary (off by default: a TFT run is hundreds of steps per fold
  /// and most callers only need the summary scalars).
  bool record_loss = false;
  /// Metrics sink for per-step loss / grad-norm / clip-event telemetry;
  /// null routes to obs::MetricsRegistry::Global() (a no-op unless
  /// RPAS_METRICS or a bench's --metrics-out enabled it).
  obs::MetricsRegistry* metrics = nullptr;
};

/// InvalidArgument unless TrainLoop can run `config`: at least one step and
/// a positive clip norm. Models check their configs with it before they
/// touch any weight, so a bad budget is an error instead of an abort.
Status ValidateTrainConfig(const TrainConfig& config);

/// Result of a training run.
struct TrainSummary {
  double final_loss = 0.0;
  double best_loss = 0.0;
  int steps_run = 0;
  /// Pre-clip global gradient norm of the last step.
  double final_grad_norm = 0.0;
  /// Steps whose gradient norm exceeded clip_norm and was rescaled.
  int clip_events = 0;
  /// Per-step losses and pre-clip gradient norms; filled only when
  /// TrainConfig::record_loss is set.
  std::vector<double> loss_history;
  std::vector<double> grad_norm_history;
  /// Tape-arena heap allocations after the first step (warmup) and at the
  /// end of the run, for the tape form of TrainLoop. Equal values mean the
  /// steady-state loop allocated nothing per step — the O(1)-allocation
  /// property the arena exists for.
  size_t arena_allocs_after_warmup = 0;
  size_t arena_allocs_final = 0;
};

/// One gradient step: samples its minibatch from `rng`, adds d(loss)/d(p)
/// into every parameter's `grad` (the loop hands them over zeroed) and
/// returns the loss.
using StepFn = std::function<double(Rng* rng)>;

/// The training loop every neural forecaster shares: at each step runs
/// `step`, clips the global gradient norm, applies Adam, and records the
/// `nn.train` span, metrics and TrainSummary. `config` must pass
/// ValidateTrainConfig.
TrainSummary TrainLoop(const TrainConfig& config,
                       const std::vector<Parameter*>& params,
                       const StepFn& step);

/// Define-by-run form: each step rebuilds a graph on one reused tape via
/// `loss_fn` (which samples its own minibatch from `rng` and returns a 1x1
/// loss Var), backpropagates it, and hands the rest to the loop above.
TrainSummary TrainLoop(
    const TrainConfig& config, const std::vector<Parameter*>& params,
    const std::function<autodiff::Var(autodiff::Tape*, Rng*)>& loss_fn);

}  // namespace rpas::nn

#endif  // RPAS_NN_TRAINER_H_
