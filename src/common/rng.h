#ifndef RPAS_COMMON_RNG_H_
#define RPAS_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <numbers>

namespace rpas {

/// SplitMix-style deterministic seed derivation: maps (base, stream) to an
/// independent 64-bit seed. Parallel tasks (backtest folds, scenario cells)
/// derive their Rng seed from the base seed and their task index so the
/// parallel schedule reproduces the serial one exactly.
uint64_t DeriveSeed(uint64_t base, uint64_t stream);

/// Deterministic pseudo-random number generator (xoshiro256++ seeded via
/// splitmix64). All stochastic RPAS components draw from an explicitly
/// seeded Rng so experiments are reproducible bit-for-bit across platforms;
/// std::random distributions are avoided because their output is
/// implementation-defined.
class Rng {
 public:
  /// Seeds the generator. Identical seeds produce identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double Uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box–Muller (cached second deviate).
  double Normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    // Uniform() can return 0; shift into (0, 1].
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(theta);
    has_cached_normal_ = true;
    return radius * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Normal(double mean, double stddev);

  /// Exponential with the given rate (rate > 0).
  double Exponential(double rate);

  /// Gamma(shape, scale) via Marsaglia–Tsang; shape > 0, scale > 0. The
  /// method's constants are kept while the shape repeats.
  double Gamma(double shape, double scale);

  /// Student-t with `dof` degrees of freedom (dof > 0).
  double StudentT(double dof);

  /// Pareto (Lomax form shifted to minimum xm): xm * U^(-1/alpha).
  /// Heavy-tailed; used for workload burst magnitudes.
  double Pareto(double xm, double alpha);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Poisson with the given mean (Knuth for small means, normal
  /// approximation above 64).
  int Poisson(double mean);

  /// Derives an independent generator: deterministic function of this
  /// generator's seed and `stream_id`, not of its current position.
  Rng Fork(uint64_t stream_id) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  uint64_t seed_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  /// Marsaglia–Tsang d and c of the last shape >= 1 Gamma drew (0 = none).
  double gamma_shape_ = 0.0;
  double gamma_d_ = 0.0;
  double gamma_c_ = 0.0;
};

}  // namespace rpas

#endif  // RPAS_COMMON_RNG_H_
