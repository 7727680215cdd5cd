#include "hostspeed.h"

#include <chrono>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The probe kernel: 500 steps of a 32-wide LSTM-style recurrence, one to
/// two milliseconds on one uncontended core.
double ProbeKernel() {
  constexpr size_t kWidth = 32;
  constexpr int kSteps = 500;
  std::vector<double> weights(4 * kWidth * kWidth);
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.05 * std::sin(0.37 * static_cast<double>(i));
  }
  std::vector<double> hidden(kWidth, 0.1);
  std::vector<double> gates(4 * kWidth);
  std::mt19937_64 rng(7);
  std::normal_distribution<double> normal(0.0, 1.0);
  double acc = 0.0;
  for (int t = 0; t < kSteps; ++t) {
    for (size_t r = 0; r < gates.size(); ++r) {
      double sum = 0.0;
      for (size_t c = 0; c < kWidth; ++c) {
        sum += weights[r * kWidth + c] * hidden[c];
      }
      gates[r] = sum;
    }
    std::vector<double> next(kWidth);
    for (size_t c = 0; c < kWidth; ++c) {
      next[c] = std::tanh(gates[c]) / (1.0 + std::exp(-gates[kWidth + c])) +
                0.01 * normal(rng);
    }
    hidden.swap(next);
    acc += std::log1p(std::fabs(hidden[static_cast<size_t>(t) % kWidth]));
  }
  return acc;
}

/// Wall time of two kernel runs on the calling thread, halved.
double TimeKernel() {
  const auto start = std::chrono::steady_clock::now();
  volatile double sink = ProbeKernel();
  sink = sink + ProbeKernel();
  return 0.5 * SecondsSince(start);
}

}  // namespace

double HostSpeed::Probe() const {
  if (threads_ == 1) {
    return TimeKernel();
  }
  // Each thread times its own kernel, so thread start-up is not counted.
  std::vector<double> seconds(static_cast<size_t>(threads_));
  {
    std::vector<std::jthread> workers;  // joined when the scope ends
    workers.reserve(seconds.size());
    for (double& slot : seconds) {
      workers.emplace_back([&slot] { slot = TimeKernel(); });
    }
  }
  double sum = 0.0;
  for (double s : seconds) {
    sum += s;
  }
  return sum / static_cast<double>(threads_);
}

}  // namespace perfbench
