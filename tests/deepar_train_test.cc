// Pins DeepAR's fused training unroll to the tape graph it replaced. The
// reference below is the loss_fn DeepArForecaster::RunTraining built on an
// autodiff::Tape before the fusion, copied verbatim and run through
// nn::TrainLoop's tape form on a twin model. Per-step loss and gradient
// norm, clip events, steps_run and every parameter must match bit for bit:
// for the Student-t and Gaussian heads; for hidden sizes whose gate blocks
// fill the 4-wide AVX2 vectors (32, 20) or leave a masked tail (18, 7; at 7
// the 28 gate columns also end in a 4-wide GEMM panel), of which only 32
// fills avx512's 8-wide ones; for minibatches of 8 rows and of 96 (twelve
// 8-row LSTM blocks, six 16-row GEMM blocks) over at least 8 windows,
// then for a fine-tune over fewer windows than batch_size (the
// IncrementalUpdate case); at every SIMD level and at 1 and 4 threads.
// The public Fit and IncrementalUpdate must land on the same weights, and
// a gradient step after the first must allocate nothing.
// At the loop and fleet shapes, with odd fine-tune batches and at H 18,
// avx512 must save avx2's checkpoint bytes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "forecast/deepar.h"
#include "forecast/time_features.h"
#include "nn/losses.h"
#include "nn/trainer.h"
#include "tensor/kernels.h"
#include "ts/window.h"

// Counts every global operator new (operator new[] forwards here), so a
// test can show that extra gradient steps add no heap allocations. The
// replacements stay out of line: inlined, GCC would pair malloc() with a
// delete-expression and warn.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rpas::forecast {

namespace kernels = ::rpas::tensor::kernels;

namespace {

double WindowScale(const std::vector<double>& context) {
  double mean_abs = 0.0;
  for (double v : context) {
    mean_abs += std::fabs(v);
  }
  mean_abs /= static_cast<double>(context.size());
  return std::max(mean_abs, 1e-6);
}

}  // namespace

/// Reaches the model's private training entry point and layers.
class DeepArTrainingPeer {
 public:
  static void Build(DeepArForecaster* m) { m->BuildModel(); }
  static std::vector<autodiff::Parameter*> Params(const DeepArForecaster& m) {
    return m.AllParams();
  }
  static nn::TrainSummary Fused(DeepArForecaster* m,
                                const ts::WindowDataset& dataset,
                                double step_minutes,
                                const nn::TrainConfig& config) {
    return m->RunTraining(dataset, step_minutes, config);
  }

  /// The pre-fusion RunTraining: its loss_fn verbatim, on the tape.
  static nn::TrainSummary Tape(DeepArForecaster* m,
                               const ts::WindowDataset& dataset,
                               double step_minutes,
                               const nn::TrainConfig& config) {
    using autodiff::Tape;
    using autodiff::Var;
    using tensor::Matrix;
    constexpr size_t kInputDim = DeepArForecaster::kInputDim;
    const DeepArForecaster::Options& options_ = m->options_;
    const size_t t_len = options_.context_length;
    const size_t h = options_.horizon;

    auto loss_fn = [&, step_minutes](Tape* tape, Rng* rng) -> Var {
      const std::vector<size_t> indices =
          dataset.SampleIndices(options_.batch_size, rng);
      const size_t batch = indices.size();
      const size_t total = t_len + h;

      // Whole windows (context + target), per-window scaled.
      std::vector<std::vector<double>> scaled(batch);
      std::vector<size_t> begins(batch);
      for (size_t r = 0; r < batch; ++r) {
        const ts::Window& w = dataset[indices[r]];
        begins[r] = w.begin;
        const double scale = WindowScale(w.context);
        scaled[r].reserve(total);
        for (double v : w.context) {
          scaled[r].push_back(v / scale);
        }
        for (double v : w.target) {
          scaled[r].push_back(v / scale);
        }
      }

      // Teacher-forced unroll: at step t the input is the observed value at
      // t-1 plus calendar features of t; the head predicts the value at t.
      nn::LstmCell::State state = m->lstm_->ZeroState(tape, batch);
      Var total_nll;
      size_t terms = 0;
      for (size_t t = 1; t < total; ++t) {
        Var xv = tape->Input(batch, kInputDim);
        Var y = tape->Input(batch, 1);
        Matrix& x = *tape->MutableValue(xv);
        Matrix& target = *tape->MutableValue(y);
        for (size_t r = 0; r < batch; ++r) {
          x(r, 0) = scaled[r][t - 1];
          const auto tf = TimeFeatures(begins[r] + t, step_minutes);
          for (size_t j = 0; j < kNumTimeFeatures; ++j) {
            x(r, 1 + j) = tf[j];
          }
          target(r, 0) = scaled[r][t];
        }
        state = m->lstm_->Step(tape, xv, state);
        Var mu = m->mu_head_->Forward(tape, state.h);
        Var sigma = tape->AddScalar(
            tape->Softplus(m->sigma_head_->Forward(tape, state.h)),
            options_.min_sigma);
        Var nll = options_.head == DeepArForecaster::Head::kStudentT
                      ? nn::StudentTNllLoss(tape, mu, sigma, y,
                                            options_.student_t_dof)
                      : nn::GaussianNllLoss(tape, mu, sigma, y);
        total_nll = terms == 0 ? nll : tape->Add(total_nll, nll);
        ++terms;
      }
      return tape->Scale(total_nll, 1.0 / static_cast<double>(terms));
    };

    return nn::TrainLoop(config, m->AllParams(), loss_fn);
  }
};

namespace {

constexpr size_t kContext = 10;
constexpr size_t kHorizon = 6;
constexpr size_t kSeriesLength = 140;  // 125 windows of kContext + kHorizon
constexpr size_t kNewPoints = 2;       // so the fine-tune sees 2 windows

ts::TimeSeries Series(size_t n, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 10.0;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % 144) / 144.0;
    s.values.push_back(10.0 + 4.0 * std::sin(phase) + 0.4 * rng.Normal());
  }
  return s;
}

DeepArForecaster::Options SmallOptions(DeepArForecaster::Head head,
                                       size_t hidden, size_t batch) {
  DeepArForecaster::Options o;
  o.context_length = kContext;
  o.horizon = kHorizon;
  o.hidden_dim = hidden;
  o.batch_size = batch;
  o.num_samples = 20;
  o.head = head;
  o.student_t_dof = 3.0;
  o.train.steps = 6;
  o.train.lr = 5e-3;
  // Inside the 1.2-7.5 range of these runs' gradient norms, so both sides
  // of the clip branch are compared.
  o.train.clip_norm = 2.5;
  o.fine_tune_steps = 3;
  o.seed = 5 + hidden;
  return o;
}

/// The config Fit hands RunTraining.
nn::TrainConfig FitConfig(const DeepArForecaster::Options& o) {
  nn::TrainConfig config = o.train;
  config.seed = o.seed + 1;
  config.record_loss = true;
  return config;
}

/// The config the first IncrementalUpdate hands RunTraining.
nn::TrainConfig FineTuneConfig(const DeepArForecaster::Options& o) {
  nn::TrainConfig config = o.train;
  config.steps = o.fine_tune_steps;
  config.seed = DeriveSeed(o.seed, 0x57EA);
  config.record_loss = true;
  return config;
}

/// The suffix IncrementalUpdate(history, kNewPoints) fine-tunes on.
ts::WindowDataset FineTuneWindows(const ts::TimeSeries& history) {
  const size_t span = kContext + kHorizon - 1 + kNewPoints;
  const size_t start = history.size() - span;
  return ts::WindowDataset(history.Slice(start, history.size()), kContext,
                           kHorizon, /*stride=*/1, /*index_offset=*/start);
}

void ExpectSameRun(const nn::TrainSummary& want, const nn::TrainSummary& got,
                   const std::string& what) {
  ASSERT_EQ(want.steps_run, got.steps_run) << what;
  ASSERT_EQ(want.loss_history.size(), got.loss_history.size()) << what;
  ASSERT_EQ(want.grad_norm_history.size(), got.grad_norm_history.size())
      << what;
  for (size_t i = 0; i < want.loss_history.size(); ++i) {
    ASSERT_EQ(want.loss_history[i], got.loss_history[i])
        << what << " loss at step " << i;
    ASSERT_EQ(want.grad_norm_history[i], got.grad_norm_history[i])
        << what << " gradient norm at step " << i;
  }
  EXPECT_EQ(want.clip_events, got.clip_events) << what;
  EXPECT_EQ(want.final_loss, got.final_loss) << what;
  EXPECT_EQ(want.best_loss, got.best_loss) << what;
  EXPECT_EQ(want.final_grad_norm, got.final_grad_norm) << what;
}

void ExpectSameParams(const DeepArForecaster& want,
                      const DeepArForecaster& got, const std::string& what) {
  const auto a = DeepArTrainingPeer::Params(want);
  const auto b = DeepArTrainingPeer::Params(got);
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p]->size(), b[p]->size()) << what;
    for (size_t i = 0; i < a[p]->size(); ++i) {
      ASSERT_EQ(a[p]->value[i], b[p]->value[i])
          << what << " tensor " << p << " element " << i;
    }
  }
}

class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

using Case = std::tuple<DeepArForecaster::Head, size_t, size_t>;

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const auto [head, hidden, batch] = info.param;
  return std::string(head == DeepArForecaster::Head::kStudentT ? "StudentT"
                                                                : "Gaussian") +
         "_H" + std::to_string(hidden) + "_B" + std::to_string(batch);
}

class DeepArTrainTest : public ::testing::TestWithParam<Case> {};

TEST_P(DeepArTrainTest, FusedUnrollMatchesTapeStepByStep) {
  const auto [head, hidden, batch] = GetParam();
  const DeepArForecaster::Options options =
      SmallOptions(head, hidden, batch);
  const ts::TimeSeries train = Series(kSeriesLength, 3);
  const ts::TimeSeries history = Series(kSeriesLength + kNewPoints, 3);
  const ts::WindowDataset fit_windows(train, kContext, kHorizon);
  const ts::WindowDataset fine_tune_windows = FineTuneWindows(history);
  ASSERT_GE(fit_windows.size(), batch);
  ASSERT_LT(fine_tune_windows.size(), batch);

  int clip_events = 0;
  int unclipped_steps = 0;
  ThreadOverrideGuard guard;
  for (kernels::SimdLevel level : kernels::SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    for (int threads : {1, 4}) {
      SetRpasThreads(threads);
      const std::string what =
          std::string(head == DeepArForecaster::Head::kStudentT ? "student-t"
                                                                 : "gaussian") +
          " H=" + std::to_string(hidden) + " B=" + std::to_string(batch) +
          " " + kernels::LevelName(level) + " " + std::to_string(threads) +
          " threads";
      DeepArForecaster fused(options);
      DeepArForecaster tape(options);
      DeepArTrainingPeer::Build(&fused);
      DeepArTrainingPeer::Build(&tape);

      // Fit's run over the whole series, then IncrementalUpdate's over the
      // windows that touch the new points, continuing from its weights.
      const nn::TrainSummary want_fit = DeepArTrainingPeer::Tape(
          &tape, fit_windows, train.step_minutes, FitConfig(options));
      const nn::TrainSummary got_fit = DeepArTrainingPeer::Fused(
          &fused, fit_windows, train.step_minutes, FitConfig(options));
      ExpectSameRun(want_fit, got_fit, what + " fit");
      ExpectSameParams(tape, fused, what + " fit");
      const nn::TrainSummary want_ft =
          DeepArTrainingPeer::Tape(&tape, fine_tune_windows,
                                   history.step_minutes,
                                   FineTuneConfig(options));
      const nn::TrainSummary got_ft =
          DeepArTrainingPeer::Fused(&fused, fine_tune_windows,
                                    history.step_minutes,
                                    FineTuneConfig(options));
      ExpectSameRun(want_ft, got_ft, what + " fine-tune");
      ExpectSameParams(tape, fused, what + " fine-tune");
      clip_events += want_fit.clip_events + want_ft.clip_events;
      unclipped_steps += want_fit.steps_run + want_ft.steps_run -
                         want_fit.clip_events - want_ft.clip_events;

      // The public entry points run the same two trainings.
      DeepArForecaster model(options);
      ASSERT_TRUE(model.Fit(train).ok()) << what;
      auto report = model.IncrementalUpdate(history, kNewPoints);
      ASSERT_TRUE(report.ok()) << what << " " << report.status().ToString();
      EXPECT_EQ(report->gradient_steps, options.fine_tune_steps) << what;
      ExpectSameParams(tape, model, what + " Fit + IncrementalUpdate");
    }
  }
  EXPECT_GT(clip_events, 0);
  EXPECT_GT(unclipped_steps, 0);
}

INSTANTIATE_TEST_SUITE_P(
    HeadsHiddenSizesBatches, DeepArTrainTest,
    ::testing::Combine(::testing::Values(DeepArForecaster::Head::kStudentT,
                                         DeepArForecaster::Head::kGaussian),
                       ::testing::Values(size_t{32}, size_t{20}, size_t{18},
                                         size_t{7}),
                       ::testing::Values(size_t{8}, size_t{96})),
    CaseName);

/// Saves `model`'s checkpoint to `path` and returns the file's bytes.
std::string CheckpointBytes(const DeepArForecaster& model,
                            const std::string& path) {
  EXPECT_TRUE(model.SaveCheckpoint(path).ok()) << path;
  std::ifstream in(path, std::ios::binary);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  return bytes;
}

struct CheckpointShape {
  size_t hidden, context, horizon;
  size_t points = 6;  ///< per fine-tune; the default six is not in the name
};

std::string ShapeName(const ::testing::TestParamInfo<CheckpointShape>& info) {
  const CheckpointShape& s = info.param;
  return StrFormat("H%zu_Context%zu_Horizon%zu", s.hidden, s.context,
                   s.horizon) +
         (s.points == 6 ? "" : StrFormat("_Points%zu", s.points));
}

class DeepArLevelCheckpointTest
    : public ::testing::TestWithParam<CheckpointShape> {};

// The avx512 level is a speed level: a model trained at it saves the same
// checkpoint bytes as at avx2, after Fit and after 30 fine-tunes. A
// fine-tune of n points trains on batches of n windows.
TEST_P(DeepArLevelCheckpointTest, Avx512CheckpointsEqualAvx2) {
  if (!kernels::LevelSupported(kernels::SimdLevel::kAvx512)) {
    GTEST_SKIP() << "no AVX-512F on this CPU or build";
  }
  const CheckpointShape shape = GetParam();
  DeepArForecaster::Options options;
  options.context_length = shape.context;
  options.horizon = shape.horizon;
  options.hidden_dim = shape.hidden;
  options.batch_size = 8;
  options.num_samples = 20;
  options.train.steps = 20;
  options.fine_tune_steps = 2;
  constexpr size_t kFineTunes = 30;
  const size_t points = shape.points;
  const size_t fit_length = 3 * (shape.context + shape.horizon);
  const ts::TimeSeries series = Series(fit_length + kFineTunes * points, 21);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rpas_deepar_level_" + std::to_string(::getpid()) + ".rpasq"))
          .string();
  auto checkpoints = [&](kernels::SimdLevel level) {
    kernels::ScopedSimdLevel scoped(level);
    DeepArForecaster model(options);
    EXPECT_TRUE(model.Fit(series.Slice(0, fit_length)).ok());
    std::vector<std::string> saved = {CheckpointBytes(model, path)};
    for (size_t i = 1; i <= kFineTunes; ++i) {
      EXPECT_TRUE(model
                      .IncrementalUpdate(
                          series.Slice(0, fit_length + i * points), points)
                      .ok());
    }
    saved.push_back(CheckpointBytes(model, path));
    return saved;
  };
  const std::vector<std::string> want = checkpoints(kernels::SimdLevel::kAvx2);
  const std::vector<std::string> got = checkpoints(kernels::SimdLevel::kAvx512);
  const char* stages[] = {"after Fit", "after the fine-tunes"};
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_FALSE(want[i].empty()) << stages[i];
    EXPECT_TRUE(want[i] == got[i])
        << stages[i] << ": the avx512 checkpoint differs from avx2's";
  }
}

// The loop_deepar shape and the fleet's DeepAR shape.
INSTANTIATE_TEST_SUITE_P(LoopAndFleetShapes, DeepArLevelCheckpointTest,
                         ::testing::Values(CheckpointShape{32, 72, 72},
                                           CheckpointShape{20, 24, 12}),
                         ShapeName);

// Odd fine-tune batches, which leave an odd last row in GemmNT's row
// pairs, and H 18, whose 72 gate columns end GemmTN in a masked 8-column
// block and whose head rows end in a masked 2-column one.
INSTANTIATE_TEST_SUITE_P(
    OddBatchesAndColumnTails, DeepArLevelCheckpointTest,
    ::testing::Values(CheckpointShape{32, 72, 72, 5},
                      CheckpointShape{18, 24, 12, 7}),
    ShapeName);

/// Heap allocations made by `fn`.
template <typename Fn>
size_t CountAllocations(Fn&& fn) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(DeepArTrainAllocationTest, GradientStepsAfterTheFirstAllocateNothing) {
  // The loop_deepar shape: context and horizon 72, H 32, batch 8.
  DeepArForecaster::Options options;
  options.hidden_dim = 32;
  options.batch_size = 8;
  options.num_samples = 20;
  options.student_t_dof = 3.0;
  const ts::TimeSeries train = Series(400, 9);
  const ts::TimeSeries history = Series(410, 9);
  auto fit_allocations = [&](int steps) {
    DeepArForecaster::Options o = options;
    o.train.steps = steps;
    DeepArForecaster model(o);
    return CountAllocations([&] { ASSERT_TRUE(model.Fit(train).ok()); });
  };
  auto fine_tune_allocations = [&](int steps) {
    DeepArForecaster::Options o = options;
    o.train.steps = 1;
    o.fine_tune_steps = steps;
    DeepArForecaster model(o);
    EXPECT_TRUE(model.Fit(train).ok());
    return CountAllocations(
        [&] { ASSERT_TRUE(model.IncrementalUpdate(history, 10).ok()); });
  };
  fit_allocations(1);  // first use creates process-wide metric handles
  const size_t fit_one = fit_allocations(1);
  EXPECT_GT(fit_one, 0u);  // the counter is live
  EXPECT_EQ(fit_one, fit_allocations(5));
  EXPECT_EQ(fine_tune_allocations(1), fine_tune_allocations(4));
}

}  // namespace
}  // namespace rpas::forecast
