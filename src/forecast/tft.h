#ifndef RPAS_FORECAST_TFT_H_
#define RPAS_FORECAST_TFT_H_

#include <memory>
#include <string>
#include <vector>

#include "forecast/forecaster.h"
#include "forecast/time_features.h"
#include "nn/layers.h"
#include "nn/trainer.h"

namespace rpas::forecast {

/// Temporal-Fusion-Transformer-style quantile forecaster (Lim et al.; paper
/// §III-B "learn pre-specified grid of quantiles"): an LSTM encoder/decoder
/// with interpretable multi-head attention and gated residual networks,
/// emitting one output per quantile level and trained by jointly minimizing
/// the quantile (pinball) loss summed across the grid (paper Eq. 1-2).
///
/// Faithful simplification (documented in DESIGN.md §3): variable-selection
/// networks and static-covariate encoders are omitted because the paper
/// forecasts a single aggregated series with no static metadata — the
/// blocks that give TFT its quantile-grid behaviour (LSTM seq2seq, GRN
/// gating, interpretable attention, per-quantile heads) are retained.
///
/// Setting `levels = {0.5}` reproduces the paper's *TFT-point* baseline: the
/// same architecture "trained to exclusively output the 0.5 quantile,
/// effectively serving as a point forecasting model".
class TftForecaster final : public Forecaster {
 public:
  struct Options {
    size_t context_length = 72;
    size_t horizon = 72;
    size_t d_model = 24;    ///< embedding/state width
    size_t num_heads = 2;   ///< attention heads (d_model % num_heads == 0)
    size_t batch_size = 4;  ///< windows per optimizer step
    nn::TrainConfig train;
    std::vector<double> levels;  ///< quantile grid; default {0.1..0.9}
    uint64_t seed = 23;
    std::string name = "TFT";
  };

  explicit TftForecaster(Options options);

  Status Fit(const ts::TimeSeries& train) override;
  Result<ts::QuantileForecast> Predict(
      const ForecastInput& input) const override;

  /// Persists the trained weights as an fp64 rpasq.v1 checkpoint
  /// (nn::SaveParameters). Requires a fitted model.
  Status SaveCheckpoint(const std::string& path) const override;
  /// Restores weights saved by an identically configured model; the
  /// restored model is ready to Predict without calling Fit. A failed load
  /// leaves the model as it was.
  Status LoadCheckpoint(const std::string& path) override;
  bool SupportsCheckpoint() const override { return true; }

  size_t Horizon() const override { return options_.horizon; }
  size_t ContextLength() const override { return options_.context_length; }
  const std::vector<double>& Levels() const override {
    return options_.levels;
  }
  std::string Name() const override { return options_.name; }

 private:
  static constexpr size_t kEncInDim = 1 + kNumTimeFeatures;
  static constexpr size_t kDecInDim = kNumTimeFeatures;

  /// (Re)creates all layers from the configured architecture and the
  /// configured seed.
  void BuildModel();
  /// Every trainable parameter, in a stable order.
  std::vector<autodiff::Parameter*> AllParams() const;
  /// Architecture fingerprint used to guard checkpoint compatibility.
  std::string Signature() const;

  /// Builds the training graph for one window; returns the H x Q
  /// prediction in scaled space.
  autodiff::Var ForwardWindow(autodiff::Tape* tape,
                              const std::vector<double>& scaled_context,
                              size_t begin_index, double step_minutes);
  /// Tape-free forward pass for inference.
  tensor::Matrix ApplyWindow(const std::vector<double>& scaled_context,
                             size_t begin_index, double step_minutes) const;

  Options options_;
  bool fitted_ = false;
  std::unique_ptr<nn::Dense> enc_embed_;
  std::unique_ptr<nn::Dense> dec_embed_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::InterpretableMultiHeadAttention> attention_;
  std::unique_ptr<nn::GatedResidualNetwork> fusion_;
  std::unique_ptr<nn::Dense> head_;
};

}  // namespace rpas::forecast

#endif  // RPAS_FORECAST_TFT_H_
