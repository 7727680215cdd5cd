#ifndef RPAS_FORECAST_DEEPAR_H_
#define RPAS_FORECAST_DEEPAR_H_

#include <memory>
#include <vector>

#include "forecast/forecaster.h"
#include "forecast/time_features.h"
#include "nn/layers.h"
#include "nn/trainer.h"
#include "ts/window.h"

namespace rpas::forecast {

/// DeepAR-style probabilistic forecaster (Salinas et al.; paper §III-B
/// "learn parametric distributions"): an autoregressive LSTM whose output
/// head emits per-step distribution parameters. Following the paper we use
/// a Student-t observation model ("longer tails ... better handle outliers
/// and noise"); a Gaussian head is available for ablation.
///
/// Multi-step quantile forecasts are produced by ancestral sampling:
/// `num_samples` trajectories are rolled forward feeding each sampled value
/// back as the next input, and per-step empirical quantiles are taken. This
/// is the sampling cost the paper's Table III attributes DeepAR's high
/// inference latency to — and the iterative error accumulation behind its
/// long-horizon degradation (Fig. 8). Every prediction path runs the same
/// fused, allocation-free roll (SampleRoll; DESIGN.md §10).
class DeepArForecaster final : public Forecaster {
 public:
  enum class Head { kStudentT, kGaussian };

  struct Options {
    size_t context_length = 72;
    size_t horizon = 72;
    size_t hidden_dim = 32;
    size_t batch_size = 16;
    size_t num_samples = 100;  ///< sample paths per forecast
    Head head = Head::kStudentT;
    double student_t_dof = 4.0;
    nn::TrainConfig train;
    std::vector<double> levels;  ///< defaults to DefaultQuantileLevels()
    uint64_t seed = 11;
    double min_sigma = 1e-3;
    /// Gradient steps per IncrementalUpdate (warm-start fine-tune budget).
    int fine_tune_steps = 8;
    /// Learning rate for fine-tune steps; <= 0 reuses train.lr.
    double fine_tune_lr = 0.0;
  };

  explicit DeepArForecaster(Options options);

  Status Fit(const ts::TimeSeries& train) override;
  Result<ts::QuantileForecast> Predict(
      const ForecastInput& input) const override;

  /// Warm-start fine-tune: runs `fine_tune_steps` gradient steps on the
  /// suffix of `history` whose windows touch the newest `new_points`
  /// observations — O(new_points) work, weights continue from their current
  /// values. Models restored from quantized checkpoints are frozen and
  /// return FailedPrecondition; a zero fine-tune budget is InvalidArgument.
  Result<IncrementalUpdateReport> IncrementalUpdate(
      const ts::TimeSeries& history, size_t new_points) override;
  bool SupportsIncrementalUpdate() const override { return true; }

  /// Seed-deterministic, thread-safe prediction: ancestral sampling draws
  /// from a generator derived from `seed` alone, so the forecast is a pure
  /// function of (weights, input, seed) — unlike Predict(), which advances
  /// the model's internal sampling stream.
  Result<ts::QuantileForecast> PredictSeeded(const ForecastInput& input,
                                             uint64_t seed) const override;

  /// Row-stacked batched inference: all requests share one context-encoding
  /// roll (R rows, through the first horizon step) and one
  /// ancestral-sampling roll (R * num_samples rows).
  /// Each request draws from its own seed-derived generator, so element i
  /// is bit-identical to PredictSeeded(inputs[i], seeds[i]) for every batch
  /// composition and thread count (MatMul row-independence contract).
  Result<std::vector<ts::QuantileForecast>> PredictBatch(
      const std::vector<ForecastInput>& inputs,
      const std::vector<uint64_t>& seeds) const override;
  bool SupportsBatchedInference() const override { return true; }

  /// Persists the trained weights as an fp64 rpasq.v1 checkpoint
  /// (nn::SaveParameters). Requires a fitted model.
  Status SaveCheckpoint(const std::string& path) const override;
  /// Restores weights saved by an identically configured model as owned
  /// fp64, so the model stays trainable. A failed load leaves the model as
  /// it was.
  Status LoadCheckpoint(const std::string& path) override;
  bool SupportsCheckpoint() const override { return true; }

  /// Serves from an rpasq.v1 checkpoint: the LSTM recurrence matrices and
  /// head weights stay in the mapped file (dequant-on-the-fly GEMM), biases
  /// decode to fp64. The model keeps `checkpoint` alive and becomes
  /// inference-only. A failed load leaves the model as it was.
  Status LoadQuantizedCheckpoint(
      std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) override;
  bool SupportsQuantizedCheckpoint() const override { return true; }

  size_t Horizon() const override { return options_.horizon; }
  size_t ContextLength() const override { return options_.context_length; }
  const std::vector<double>& Levels() const override {
    return options_.levels;
  }
  std::string Name() const override { return "DeepAR"; }

  /// Full sampled trajectories (num_samples x horizon), before reduction to
  /// quantiles; used by tests and the Fig. 7 interval visualization.
  Result<std::vector<std::vector<double>>> SampleTrajectories(
      const ForecastInput& input, size_t num_samples) const;

 private:
  void BuildModel();
  std::vector<autodiff::Parameter*> AllParams() const;
  std::string Signature() const;
  /// Ends a successful restore: takes `staged`'s layers and `checkpoint`
  /// (null for an owned fp64 restore).
  void CommitStaged(DeepArForecaster* staged,
                    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint);

  /// Runs the teacher-forced NLL training loop over `dataset` with the
  /// current weights as the starting point (shared by Fit and
  /// IncrementalUpdate). Each gradient step is one tape-free unroll: the
  /// sampling roll's kernels forward, a hand-written reverse pass backward,
  /// in buffers sized once per call (DESIGN.md §10). `dataset` must not be
  /// empty and `config` must pass nn::ValidateTrainConfig.
  nn::TrainSummary RunTraining(const ts::WindowDataset& dataset,
                               double step_minutes,
                               const nn::TrainConfig& config);

  /// FailedPrecondition before Fit or a restore, else CheckContext: a
  /// context of the wrong length or with a non-finite value is
  /// InvalidArgument.
  Status CheckInput(const ForecastInput& input) const;
  /// The sampling roll behind every prediction path. Encodes the
  /// `requests` contexts in one roll (a row per request), runs the first
  /// horizon step on that row too, copies each request's state and head
  /// outputs to `num_samples` rows and rolls all paths forward; request r
  /// draws from rngs[r], its rows in sample order per step.
  /// Returns the rescaled draws step-major:
  /// draws[step * rows + r * num_samples + s], rows = requests *
  /// num_samples. Inputs must pass CheckInput.
  std::vector<double> SampleRoll(const ForecastInput* inputs, Rng* rngs,
                                 size_t requests, size_t num_samples) const;
  /// Per-step quantiles at the configured levels of one request's
  /// `samples` draws, read from draws[step * stride + s] and sorted by
  /// kernels::SortAscending: on NaN-free draws the quantiles' bits equal
  /// dist::Empirical's.
  ts::QuantileForecast ReduceToQuantiles(const double* draws, size_t stride,
                                         size_t samples) const;
  /// The seed-derived generator used by PredictSeeded / PredictBatch.
  static Rng SamplingRng(uint64_t seed);

  /// Input feature layout per step: [scaled y_prev, calendar features].
  static constexpr size_t kInputDim = 1 + kNumTimeFeatures;

  Options options_;
  bool fitted_ = false;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::Dense> mu_head_;
  std::unique_ptr<nn::Dense> sigma_head_;
  mutable Rng sample_rng_;
  /// Keeps the mapped checkpoint alive while layers hold views into it.
  std::shared_ptr<const nn::QuantizedCheckpoint> qckpt_;
  /// IncrementalUpdate calls so far; salts each fine-tune's sampling seed.
  uint64_t update_count_ = 0;

  /// Drives RunTraining against its tape reference in
  /// tests/deepar_train_test.cc.
  friend class DeepArTrainingPeer;
};

}  // namespace rpas::forecast

#endif  // RPAS_FORECAST_DEEPAR_H_
