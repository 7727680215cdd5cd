#ifndef RPAS_FORECAST_MLP_H_
#define RPAS_FORECAST_MLP_H_

#include <memory>
#include <vector>

#include "forecast/forecaster.h"
#include "nn/layers.h"
#include "nn/trainer.h"
#include "ts/scaler.h"
#include "ts/window.h"

namespace rpas::forecast {

/// Probabilistic multilayer-perceptron forecaster (paper §IV-A): a
/// feed-forward network whose "output layer can generate the mean and
/// variance of a Gaussian distribution", trained with the negative
/// log-likelihood. Direct multi-horizon: one forward pass emits
/// (mu_h, sigma_h) for every step of the horizon.
class MlpForecaster final : public Forecaster {
 public:
  struct Options {
    size_t context_length = 72;
    size_t horizon = 72;
    size_t hidden_dim = 64;
    size_t num_hidden_layers = 2;  ///< 1 or 2
    size_t batch_size = 32;
    nn::TrainConfig train;
    std::vector<double> levels;  ///< defaults to DefaultQuantileLevels()
    uint64_t seed = 7;
    double min_sigma = 1e-3;  ///< floor on the scaled stddev head
    /// When false (default) the input is the raw context window only,
    /// mirroring the GluonTS SimpleFeedForward baseline the paper
    /// evaluates; enabling calendar covariates makes the MLP notably
    /// stronger than the paper's baseline.
    bool use_time_features = false;
    /// Gradient steps per IncrementalUpdate (warm-start fine-tune budget).
    int fine_tune_steps = 8;
    /// Learning rate for fine-tune steps; <= 0 reuses train.lr.
    double fine_tune_lr = 0.0;
  };

  explicit MlpForecaster(Options options);

  Status Fit(const ts::TimeSeries& train) override;
  Result<ts::QuantileForecast> Predict(
      const ForecastInput& input) const override;

  /// Warm-start fine-tune: runs `fine_tune_steps` gradient steps on the
  /// suffix of `history` whose windows touch the newest `new_points`
  /// observations — O(new_points) work, weights continue from their current
  /// values and the fitted scaler stays frozen. Models restored from
  /// quantized checkpoints are frozen and return FailedPrecondition; a zero
  /// fine-tune budget is InvalidArgument.
  Result<IncrementalUpdateReport> IncrementalUpdate(
      const ts::TimeSeries& history, size_t new_points) override;
  bool SupportsIncrementalUpdate() const override { return true; }

  /// Row-stacked batched inference: the whole batch runs as one forward
  /// pass (one row per request). Each output row depends only on its own
  /// input row, so element i is bit-identical to Predict(inputs[i]) for
  /// every batch composition and thread count.
  Result<std::vector<ts::QuantileForecast>> PredictBatch(
      const std::vector<ForecastInput>& inputs,
      const std::vector<uint64_t>& seeds) const override;
  bool SupportsBatchedInference() const override { return true; }

  /// Persists the trained weights and the fitted scaler as an fp64 rpasq.v1
  /// checkpoint (nn::SaveParameters). Requires a fitted model.
  Status SaveCheckpoint(const std::string& path) const override;
  /// Restores a model saved by an identically configured instance as owned
  /// fp64, so the model stays trainable. A failed load leaves the model as
  /// it was.
  Status LoadCheckpoint(const std::string& path) override;
  bool SupportsCheckpoint() const override { return true; }

  /// Serves from an rpasq.v1 checkpoint: layer weights stay in the mapped
  /// file (dequant-on-the-fly GEMM), biases and the scaler decode to fp64.
  /// The model keeps `checkpoint` alive and becomes inference-only. A
  /// failed load leaves the model as it was.
  Status LoadQuantizedCheckpoint(
      std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) override;
  bool SupportsQuantizedCheckpoint() const override { return true; }

  size_t Horizon() const override { return options_.horizon; }
  size_t ContextLength() const override { return options_.context_length; }
  const std::vector<double>& Levels() const override {
    return options_.levels;
  }
  std::string Name() const override { return "MLP"; }

  /// Per-step Gaussian parameters in workload units (after Fit);
  /// exposed for tests and the Fig. 7 interval visualization.
  struct GaussianParams {
    std::vector<double> mean;
    std::vector<double> stddev;
  };
  Result<GaussianParams> PredictDistribution(const ForecastInput& input) const;

 private:
  /// FailedPrecondition before Fit, else CheckContext.
  Status CheckInput(const ForecastInput& input) const;
  void BuildModel();
  std::vector<autodiff::Parameter*> AllParams() const;
  std::string Signature() const;
  /// Ends a restore: checks the restored [shift, scale] tensor, then takes
  /// `staged`'s layers, the scaler and `checkpoint` (null for an owned fp64
  /// restore). Nothing changes on error.
  Status CommitStaged(
      MlpForecaster* staged, const autodiff::Parameter& scaler_tensor,
      std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint);

  /// Runs the Gaussian-NLL training loop over `dataset` with the current
  /// weights as the starting point (shared by Fit and IncrementalUpdate).
  nn::TrainSummary RunTraining(const ts::WindowDataset& dataset,
                               double step_minutes,
                               const nn::TrainConfig& config);

  /// Input width: context length, plus calendar features when enabled.
  size_t InputDim() const;

  /// Feature vector: scaled context (+ calendar features of the first
  /// forecast step when enabled).
  std::vector<double> BuildFeatures(const ForecastInput& input) const;

  Options options_;
  bool fitted_ = false;
  ts::AffineScaler scaler_;
  std::unique_ptr<nn::Dense> fc1_;
  std::unique_ptr<nn::Dense> fc2_;
  std::unique_ptr<nn::Dense> head_;  // emits 2*horizon (mu, raw sigma)
  /// Keeps the mapped checkpoint alive while layers hold views into it.
  std::shared_ptr<const nn::QuantizedCheckpoint> qckpt_;
  /// IncrementalUpdate calls so far; salts each fine-tune's sampling seed.
  uint64_t update_count_ = 0;
};

}  // namespace rpas::forecast

#endif  // RPAS_FORECAST_MLP_H_
