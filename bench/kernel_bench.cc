// Kernel-layer microbenchmarks: GEMM, vector primitives, elementwise
// transcendentals, the fused LSTM step and cell backward, the sort, a
// DeepAR-shaped training step on the tape and through
// DeepArForecaster::Fit's fused unroll, and a six-point DeepAR fine-tune,
// each swept across every SIMD dispatch level this machine supports.
//
// One table row per (op, shape, dispatch level); --json=PATH writes it in
// the shared report, whose provenance names the active level. CI uploads
// the report as an artifact so kernel regressions are visible per commit.
// GFLOP/s uses nominal flop counts (2mnk for GEMM, n-ish for the
// transcendentals); "-" (null) marks ops where a flop rate is not
// meaningful.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "forecast/deepar.h"
#include "forecast/time_features.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/trainer.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace rpas::bench {
namespace {

namespace kernels = ::rpas::tensor::kernels;
using kernels::SimdLevel;
using tensor::Matrix;

struct Record {
  std::string op;
  std::string shape;
  std::string dispatch;
  double ns_per_iter;
  double gflops;  // 0 when a flop rate is not meaningful for the op
};

/// Mean ns per call of `fn`, timed by TimedRepeats.
double NsPerIter(bool quick, const std::function<void()>& fn) {
  return TimedRepeats("bench.kernel", quick, fn).ms * 1e6;
}

void FillUniform(Matrix* m, Rng* rng) {
  for (size_t i = 0; i < m->size(); ++i) {
    (*m)[i] = rng->Uniform() - 0.5;
  }
}

// --------------------------------------------------------------- GEMM ---

void BenchGemm(bool quick, std::vector<Record>* out) {
  struct Shape {
    size_t m, k, n;
  };
  const std::vector<Shape> shapes = quick
                                        ? std::vector<Shape>{{64, 64, 64},
                                                             {8, 32, 128}}
                                        : std::vector<Shape>{{64, 64, 64},
                                                             {128, 128, 128},
                                                             {256, 256, 256},
                                                             {8, 32, 128}};
  Rng rng(1);
  for (const Shape& s : shapes) {
    Matrix a(s.m, s.k), b(s.k, s.n), c(s.m, s.n);
    FillUniform(&a, &rng);
    FillUniform(&b, &rng);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.k) * static_cast<double>(s.n);
    for (SimdLevel level : kernels::SupportedLevels()) {
      kernels::ScopedSimdLevel scoped(level);
      const double ns = NsPerIter(quick, [&] {
        c.Fill(0.0);
        tensor::MatMulInto(a, b, &c);
      });
      out->push_back({"gemm",
                      StrFormat("%zux%zux%zu", s.m, s.k, s.n),
                      kernels::LevelName(level), ns, flops / ns});
    }
  }
  // Transposed variants at the autodiff-backward shape (dW = x^T g).
  Matrix x(128, 64), g(128, 96), dw(64, 96);
  FillUniform(&x, &rng);
  FillUniform(&g, &rng);
  const double flops_tn = 2.0 * 64 * 128 * 96;
  for (SimdLevel level : kernels::SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    const double ns = NsPerIter(quick, [&] {
      dw.Fill(0.0);
      tensor::MatMulTNInto(x, g, &dw);
    });
    out->push_back({"gemm_tn", "64x128x96", kernels::LevelName(level), ns,
                    flops_tn / ns});
  }
  // The DeepAR training unroll's per-step backward products, added into C
  // as the unroll calls them (no fill): dW_h and dW_x by GemmTN over the
  // batch, dh_prev by GemmNT over the gates. Batch 8 at H 32 (the loop)
  // and H 20 (the fleet), then loop_stream's six-point fine-tune (batch 6
  // at H 32), whose GemmTN rows add a head's weight row and the bias row;
  // shapes read m x k x n.
  struct Backward {
    bool tn;  // GemmTN, else GemmNT
    size_t m, k, n;
  };
  for (const Backward& s :
       {Backward{true, 32, 8, 128}, Backward{true, 5, 8, 128},
        Backward{false, 8, 128, 32}, Backward{true, 20, 8, 80},
        Backward{true, 5, 8, 80}, Backward{false, 8, 80, 20},
        Backward{true, 32, 6, 128}, Backward{true, 5, 6, 128},
        Backward{true, 1, 6, 32}, Backward{true, 1, 6, 128},
        Backward{false, 6, 128, 32}}) {
    // GemmTN reads A as (k x m) and B as (k x n); GemmNT reads B as (n x k).
    Matrix a(s.tn ? s.k : s.m, s.tn ? s.m : s.k);
    Matrix b(s.tn ? s.k : s.n, s.tn ? s.n : s.k);
    Matrix c(s.m, s.n);
    FillUniform(&a, &rng);
    FillUniform(&b, &rng);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.k) * static_cast<double>(s.n);
    for (SimdLevel level : kernels::SupportedLevels()) {
      const double ns = NsPerIter(quick, [&] {
        if (s.tn) {
          kernels::GemmTN(level, s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                          c.data(), s.n);
        } else {
          kernels::GemmNT(level, s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                          c.data(), s.n);
        }
      });
      out->push_back({s.tn ? "gemm_tn_acc" : "gemm_nt_acc",
                      StrFormat("%zux%zux%zu", s.m, s.k, s.n),
                      kernels::LevelName(level), ns, flops / ns});
    }
  }
}

// -------------------------------------------- vector + elementwise ops ---

void BenchVectorOps(bool quick, std::vector<Record>* out) {
  const size_t n = 65536;
  std::vector<double> xs(n), ys(n), dst(n);
  Rng rng(2);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.Uniform(-3.0, 3.0);
    ys[i] = rng.Uniform(-3.0, 3.0);
  }
  const std::string shape = StrFormat("n=%zu", n);
  for (SimdLevel level : kernels::SupportedLevels()) {
    const char* name = kernels::LevelName(level);
    out->push_back({"axpy", shape, name, NsPerIter(quick, [&] {
                      kernels::Axpy(level, n, 1e-9, xs.data(), ys.data());
                    }),
                    0.0});
    out->back().gflops = 2.0 * static_cast<double>(n) / out->back().ns_per_iter;
    out->push_back({"dot", shape, name, NsPerIter(quick, [&] {
                      KeepObservable(
                          kernels::Dot(level, n, xs.data(), ys.data()));
                    }),
                    0.0});
    out->back().gflops = 2.0 * static_cast<double>(n) / out->back().ns_per_iter;
    out->push_back({"ew_tanh", shape, name, NsPerIter(quick, [&] {
                      kernels::EwTanh(level, n, xs.data(), dst.data());
                    }),
                    0.0});
    out->back().gflops = static_cast<double>(n) / out->back().ns_per_iter;
    out->push_back({"ew_sigmoid", shape, name, NsPerIter(quick, [&] {
                      kernels::EwSigmoid(level, n, xs.data(), dst.data());
                    }),
                    0.0});
    out->back().gflops = static_cast<double>(n) / out->back().ns_per_iter;
  }
}

// ---------------------------------------------------- fused LSTM step ---

/// DeepAR's input width: the scaled previous value plus calendar features.
constexpr size_t kDeepArInput = 1 + forecast::kNumTimeFeatures;

/// kernels::LstmStep at the sampling roll's serving shapes, the fleet's
/// encode shape and the training unroll's shapes, and the cell backward at
/// the training shape.
void BenchLstmStep(bool quick, std::vector<Record>* out) {
  struct Shape {
    size_t rows, hidden;
  };
  // The paper-shape loop (100 samples, H 32), a fleet batch (8 requests
  // x 16 samples, H 20) and its context encode (one row per request), and
  // the loop's training unroll: Fit's minibatch of 8 windows and a
  // six-point fine-tune's 6.
  for (const Shape& s : {Shape{100, 32}, Shape{128, 20}, Shape{8, 20},
                         Shape{8, 32}, Shape{6, 32}}) {
    const size_t gw = 4 * s.hidden;
    Matrix x(s.rows, kDeepArInput), h(s.rows, s.hidden), c(s.rows, s.hidden);
    Matrix wx(kDeepArInput, gw), wh(s.hidden, gw), bias(1, gw);
    Matrix gates(s.rows, gw);
    Rng rng(3);
    for (Matrix* m : {&x, &h, &c, &wx, &wh, &bias}) {
      FillUniform(m, &rng);
    }
    std::vector<double> wx_packed(kernels::PackedSize(kDeepArInput, gw));
    std::vector<double> wh_packed(kernels::PackedSize(s.hidden, gw));
    kernels::PackB(kDeepArInput, gw, wx.data(), gw, wx_packed.data());
    kernels::PackB(s.hidden, gw, wh.data(), gw, wh_packed.data());
    const kernels::LstmStepWeights weights{kDeepArInput, s.hidden,
                                           wx_packed.data(), wh_packed.data(),
                                           bias.data()};
    // Both gate products, plus nominal 8 gate-input adds, 4 activations
    // and 4 mul/add per cell element.
    const double flops =
        static_cast<double>(s.rows) *
        (2.0 * static_cast<double>(gw * (kDeepArInput + s.hidden)) +
         16.0 * static_cast<double>(s.hidden));
    for (SimdLevel level : kernels::SupportedLevels()) {
      // The state is updated in place, as in the roll; it stays bounded.
      const double ns = NsPerIter(quick, [&] {
        kernels::LstmStep(level, s.rows, weights, x.data(), h.data(),
                          c.data(), s.hidden, gates.data(), h.data(),
                          s.hidden, c.data(), s.hidden, nullptr);
      });
      out->push_back({"lstm_step",
                      StrFormat("rows=%zu in=%zu h=%zu", s.rows, kDeepArInput,
                                s.hidden),
                      kernels::LevelName(level), ns, flops / ns});
    }
  }

  const size_t batch = 8, hidden = 32;
  Matrix act(batch, 4 * hidden), cp(batch, hidden), tc(batch, hidden);
  Matrix dh(batch, hidden), dc(batch, hidden);
  Matrix dgates(batch, 4 * hidden), dcp(batch, hidden);
  Rng rng(4);
  for (Matrix* m : {&act, &cp, &tc, &dh, &dc}) {
    FillUniform(m, &rng);
  }
  // Nominal per-element flop count: ~23 mul/add/sub.
  const double bwd_flops = 23.0 * static_cast<double>(batch * hidden);
  for (SimdLevel level : kernels::SupportedLevels()) {
    out->push_back({"lstm_cell_bwd",
                    StrFormat("b=%zu h=%zu", batch, hidden),
                    kernels::LevelName(level), NsPerIter(quick, [&] {
                      kernels::LstmCellBackward(
                          level, batch, hidden, act.data(), cp.data(), hidden,
                          tc.data(), dh.data(), hidden, dc.data(), hidden,
                          dgates.data(), dcp.data());
                    }),
                    0.0});
    out->back().gflops = bwd_flops / out->back().ns_per_iter;
  }
}

// --------------------------------------------------------------- sort ---

/// kernels::SortAscending at the quantile reduce's sample counts: the
/// loop's 100 (the network pads it to 128) and the fleet's 16. Each call
/// sorts a fresh copy of one of 64 sample sets in turn, so the scalar
/// body's branches cannot learn one input. SortKernelTest checks that
/// every level writes the same bytes.
void BenchSort(bool quick, std::vector<Record>* out) {
  constexpr size_t kSets = 64;
  Rng rng(5);
  for (size_t n : {100u, 16u}) {
    std::vector<std::vector<double>> sets(kSets, std::vector<double>(n));
    for (std::vector<double>& set : sets) {
      for (double& v : set) {
        v = 40.0 + 5.0 * rng.Normal();
      }
    }
    std::vector<double> work(n);
    for (SimdLevel level : kernels::SupportedLevels()) {
      size_t next = 0;
      const double ns = NsPerIter(quick, [&] {
        const std::vector<double>& set = sets[next++ % kSets];
        std::copy(set.begin(), set.end(), work.begin());
        kernels::SortAscending(level, n, work.data());
        KeepObservable(work[n / 2]);
      });
      out->push_back({"sort", StrFormat("n=%zu", n),
                      kernels::LevelName(level), ns, 0.0});
    }
  }
}

// ------------------------------------------------- DeepAR train step ---

/// One optimizer step of a DeepAR-shaped model on the autodiff tape:
/// LSTM(5->32), mu/sigma heads, 143 unroll steps, batch 8, Student-t NLL.
/// The tape is how TFT, MLP and QB5000 train; for DeepAR it is the
/// reference its fused unroll (deepar_fit_step below) must match.
void BenchTrainStep(bool quick, std::vector<Record>* out) {
  for (SimdLevel level : kernels::SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    Rng init(7);
    nn::LstmCell lstm(kDeepArInput, 32, &init);
    nn::Dense mu_head(32, 1, nn::Dense::Activation::kNone, &init);
    nn::Dense sigma_head(32, 1, nn::Dense::Activation::kNone, &init);
    std::vector<autodiff::Parameter*> params;
    for (auto* p : lstm.Params()) params.push_back(p);
    for (auto* p : mu_head.Params()) params.push_back(p);
    for (auto* p : sigma_head.Params()) params.push_back(p);
    auto loss_fn = [&](autodiff::Tape* tape, Rng* r) -> autodiff::Var {
      const size_t batch = 8, total = 144;
      nn::LstmCell::State state = lstm.ZeroState(tape, batch);
      autodiff::Var total_nll;
      for (size_t t = 1; t < total; ++t) {
        autodiff::Var xv = tape->Input(batch, kDeepArInput);
        autodiff::Var yv = tape->Input(batch, 1);
        Matrix& x = *tape->MutableValue(xv);
        Matrix& y = *tape->MutableValue(yv);
        for (size_t i = 0; i < x.size(); ++i) x[i] = r->Uniform() - 0.5;
        for (size_t i = 0; i < y.size(); ++i) y[i] = r->Uniform();
        state = lstm.Step(tape, xv, state);
        autodiff::Var m = mu_head.Forward(tape, state.h);
        autodiff::Var s = tape->AddScalar(
            tape->Softplus(sigma_head.Forward(tape, state.h)), 1e-3);
        autodiff::Var nll = nn::StudentTNllLoss(tape, m, s, yv, 3.0);
        total_nll = t == 1 ? nll : tape->Add(total_nll, nll);
      }
      return tape->Scale(total_nll, 1.0 / 143.0);
    };
    nn::TrainConfig config;
    config.steps = quick ? 1 : 3;
    nn::TrainLoop(config, params, loss_fn);  // warmup
    const int steps = quick ? 5 : 20;
    config.steps = steps;
    nn::TrainSummary summary;
    const double ms = TimedMillis("bench.kernel.train", [&] {
      summary = nn::TrainLoop(config, params, loss_fn);
    });
    RPAS_CHECK(summary.arena_allocs_after_warmup == summary.arena_allocs_final)
        << "train step is expected to be allocation-free in steady state";
    out->push_back({"deepar_train_step", "tape lstm5->32 b=8 u=143",
                    kernels::LevelName(level), ms * 1e6 / steps, 0.0});
  }
}

/// DeepArForecaster::Fit per gradient step at the paper shape (context and
/// horizon 72, H 32, batch 8): the fused, tape-free unroll at the same
/// shape as the tape row above. Then one six-point IncrementalUpdate of two
/// gradient steps (batch 6), the refresh loop_stream runs every round.
void BenchDeepArFit(bool quick, std::vector<Record>* out) {
  ts::TimeSeries series;
  series.step_minutes = 10.0;
  Rng rng(8);
  for (size_t i = 0; i < 600; ++i) {
    const double phase = 0.0436 * static_cast<double>(i);
    series.values.push_back(10.0 + 4.0 * std::sin(phase) + rng.Normal());
  }
  forecast::DeepArForecaster::Options options;
  options.hidden_dim = 32;
  options.batch_size = 8;
  options.num_samples = 20;
  options.student_t_dof = 3.0;
  options.fine_tune_steps = 2;
  for (SimdLevel level : kernels::SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    options.train.steps = quick ? 1 : 3;
    RPAS_CHECK(forecast::DeepArForecaster(options).Fit(series).ok());  // warmup
    const int steps = quick ? 5 : 20;
    options.train.steps = steps;
    forecast::DeepArForecaster model(options);
    const double ms = TimedMillis(
        "bench.kernel.fit", [&] { RPAS_CHECK(model.Fit(series).ok()); });
    out->push_back({"deepar_fit_step", "fused lstm5->32 b=8 u=143",
                    kernels::LevelName(level), ms * 1e6 / steps, 0.0});
    // Each call fine-tunes on the same six windows; the weights move on.
    out->push_back({"deepar_finetune", "6 points, 2 steps b=6 u=143",
                    kernels::LevelName(level), NsPerIter(quick, [&] {
                      RPAS_CHECK(model.IncrementalUpdate(series, 6).ok());
                    }),
                    0.0});
  }
}

// ----------------------------------------------------------- reporting ---

void Run(const BenchOptions& options, Report* report) {
  std::vector<Record> records;
  BenchGemm(options.quick, &records);
  BenchVectorOps(options.quick, &records);
  BenchLstmStep(options.quick, &records);
  BenchSort(options.quick, &records);
  BenchTrainStep(options.quick, &records);
  BenchDeepArFit(options.quick, &records);

  Table& table = report->AddTable(
      "kernels",
      StrFormat("Kernel-layer microbenchmarks (active level: %s)",
                kernels::LevelName(kernels::ActiveLevel())),
      {"op", "shape", "dispatch", "ns/iter", "GFLOP/s"});
  bool timed = true;
  for (const Record& r : records) {
    table.AddRow({r.op, r.shape, r.dispatch, Real(r.ns_per_iter),
                  r.gflops > 0.0 ? Real(r.gflops) : Cell()});
    timed = timed && r.ns_per_iter > 0.0;
  }
  table.Print();
  report->Check("timings_positive", timed,
                StrFormat("ns/iter > 0 for all %zu records", records.size()));
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Kernel-layer microbenchmarks across SIMD dispatch levels");
  rpas::bench::Report report("kernel_bench", options);
  rpas::bench::Run(options, &report);
  return report.Finish();
}
