#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace rpas {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t DeriveSeed(uint64_t base, uint64_t stream) {
  uint64_t mix =
      base ^ (0xA5A5A5A55A5A5A5Aull + stream * 0x2545F4914F6CDD1Dull);
  return SplitMix64(&mix);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(&sm);
  }
}

double Rng::Uniform(double lo, double hi) {
  RPAS_DCHECK(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  RPAS_DCHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::Normal(double mean, double stddev) {
  RPAS_DCHECK(stddev >= 0.0);
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  RPAS_DCHECK(rate > 0.0);
  return -std::log(1.0 - Uniform()) / rate;
}

double Rng::Gamma(double shape, double scale) {
  RPAS_DCHECK(shape > 0.0);
  RPAS_DCHECK(scale > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct (Marsaglia–Tsang section 8).
    double u = Uniform();
    while (u <= 0.0) {
      u = Uniform();
    }
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  if (shape != gamma_shape_) {
    gamma_shape_ = shape;
    gamma_d_ = shape - 1.0 / 3.0;
    gamma_c_ = 1.0 / std::sqrt(9.0 * gamma_d_);
  }
  const double d = gamma_d_;
  const double c = gamma_c_;
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) {
      continue;
    }
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v * scale;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double Rng::StudentT(double dof) {
  RPAS_DCHECK(dof > 0.0);
  const double z = Normal();
  const double chi2 = Gamma(dof / 2.0, 2.0);
  return z / std::sqrt(chi2 / dof);
}

double Rng::Pareto(double xm, double alpha) {
  RPAS_DCHECK(xm > 0.0);
  RPAS_DCHECK(alpha > 0.0);
  double u = 1.0 - Uniform();  // in (0, 1]
  return xm * std::pow(u, -1.0 / alpha);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Poisson(double mean) {
  RPAS_DCHECK(mean >= 0.0);
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    double x = std::floor(Normal(mean, std::sqrt(mean)) + 0.5);
    return x < 0.0 ? 0 : static_cast<int>(x);
  }
  const double limit = std::exp(-mean);
  double product = Uniform();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= Uniform();
  }
  return count;
}

Rng Rng::Fork(uint64_t stream_id) const {
  return Rng(DeriveSeed(seed_, stream_id));
}

}  // namespace rpas
