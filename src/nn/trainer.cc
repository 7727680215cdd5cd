#include "nn/trainer.h"

#include <limits>

#include "common/logging.h"
#include "obs/span.h"

namespace rpas::nn {

Status ValidateTrainConfig(const TrainConfig& config) {
  if (config.steps <= 0) {
    return Status::InvalidArgument("training needs at least one step");
  }
  if (!(config.clip_norm > 0.0)) {
    return Status::InvalidArgument("gradient clip norm must be positive");
  }
  return Status::OK();
}

TrainSummary TrainLoop(const TrainConfig& config,
                       const std::vector<Parameter*>& params,
                       const StepFn& step_fn) {
  RPAS_CHECK(ValidateTrainConfig(config).ok());
  Rng rng(config.seed);
  Adam optimizer(Adam::Options{.lr = config.lr});

  // One handle lookup per training run; the per-step updates below are a
  // few relaxed atomics (or a load + branch while metrics are disabled).
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(config.metrics);
  obs::Counter* steps_counter = metrics->GetCounter("nn.train.steps");
  obs::Counter* clip_counter = metrics->GetCounter("nn.train.clip_events");
  obs::Histogram* loss_hist = metrics->GetHistogram("nn.train.loss");
  obs::Histogram* grad_hist = metrics->GetHistogram("nn.train.grad_norm");
  obs::Span span("nn.train", config.steps);

  TrainSummary summary;
  summary.best_loss = std::numeric_limits<double>::infinity();
  if (config.record_loss) {
    summary.loss_history.reserve(static_cast<size_t>(config.steps));
    summary.grad_norm_history.reserve(static_cast<size_t>(config.steps));
  }
  for (Parameter* p : params) {
    p->ZeroGrad();
  }

  for (int step = 0; step < config.steps; ++step) {
    // Adam::Step zeroes every gradient after it applies it, so each step
    // starts from zeroed grads.
    const double loss_value = step_fn(&rng);
    const double grad_norm = ClipGradNorm(params, config.clip_norm);
    optimizer.Step(params);

    summary.final_loss = loss_value;
    summary.best_loss = std::min(summary.best_loss, loss_value);
    summary.final_grad_norm = grad_norm;
    const bool clipped = grad_norm > config.clip_norm;
    if (clipped) {
      ++summary.clip_events;
    }
    ++summary.steps_run;
    if (config.record_loss) {
      summary.loss_history.push_back(loss_value);
      summary.grad_norm_history.push_back(grad_norm);
    }

    steps_counter->Increment();
    loss_hist->Observe(loss_value);
    grad_hist->Observe(grad_norm);
    if (clipped) {
      clip_counter->Increment();
    }

    // Progress logging reads the same per-step values the metrics hooks
    // record, so the two reporting paths cannot disagree.
    if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
      RPAS_LOG(kInfo) << "train step " << (step + 1) << "/" << config.steps
                      << " loss=" << summary.final_loss
                      << " grad_norm=" << summary.final_grad_norm
                      << " clipped=" << summary.clip_events;
    }
  }
  return summary;
}

TrainSummary TrainLoop(
    const TrainConfig& config, const std::vector<Parameter*>& params,
    const std::function<autodiff::Var(autodiff::Tape*, Rng*)>& loss_fn) {
  // One tape for the whole run: Reset() rewinds node slots and the matrix
  // arena, so steady-state steps reuse the first step's heap blocks.
  autodiff::Tape tape;
  bool warmup = true;
  size_t allocs_after_warmup = 0;
  TrainSummary summary = TrainLoop(config, params, [&](Rng* rng) {
    tape.Reset();
    autodiff::Var loss = loss_fn(&tape, rng);
    const double loss_value = loss.value()(0, 0);
    tape.Backward(loss);
    if (warmup) {
      allocs_after_warmup = tape.ArenaStats().heap_allocs;
      warmup = false;
    }
    return loss_value;
  });
  summary.arena_allocs_after_warmup = allocs_after_warmup;
  summary.arena_allocs_final = tape.ArenaStats().heap_allocs;
  return summary;
}

}  // namespace rpas::nn
