#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace rpas::trace {

TraceProfile AlibabaProfile() {
  TraceProfile p;
  p.name = "alibaba";
  p.num_machines = 24;
  // High base relative to variation: the aggregated production CPU series
  // is smooth, so relative (wQL) errors on it are small — the regime of
  // the paper's Table I Alibaba column.
  p.base_load = 8.0;
  p.base_spread = 0.2;
  p.diurnal_amplitude = 1.6;
  p.diurnal_peakiness = 1.6;
  p.weekend_factor = 0.85;
  p.ar_coeff = 0.7;
  p.noise_stddev = 0.2;
  p.burst_rate = 0.002;
  p.burst_magnitude = 1.5;
  p.burst_pareto_alpha = 2.5;
  p.burst_mean_duration = 4.0;
  p.trend_per_day = 0.01;
  p.cluster_noise_stddev = 0.008;
  p.cluster_ar_coeff = 0.8;
  p.cluster_burst_rate = 0.002;
  p.cluster_burst_magnitude = 0.03;
  p.cluster_burst_pareto_alpha = 2.5;
  return p;
}

TraceProfile GoogleProfile() {
  TraceProfile p;
  p.name = "google";
  p.num_machines = 24;
  p.base_load = 3.0;
  p.base_spread = 0.6;
  p.diurnal_amplitude = 1.0;   // much weaker daily cycle
  p.diurnal_peakiness = 1.2;
  p.weekend_factor = 0.95;     // weak weekly effect
  p.ar_coeff = 0.9;            // long-memory noise
  p.noise_stddev = 0.8;        // high per-machine dispersion
  p.burst_rate = 0.012;        // frequent bursts
  p.burst_magnitude = 3.5;
  p.burst_pareto_alpha = 1.5;  // heavy tail
  p.burst_mean_duration = 8.0;
  p.trend_per_day = 0.0;
  // Strong correlated components: synchronized task waves dominate the
  // aggregate, making the trace an order of magnitude harder to forecast
  // (the paper's Table I Google column).
  p.cluster_noise_stddev = 0.07;
  p.cluster_ar_coeff = 0.85;
  p.cluster_noise_diurnal = 1.0;  // busy hours are markedly noisier
  p.cluster_burst_rate = 0.04;
  p.cluster_burst_magnitude = 0.15;
  p.cluster_burst_pareto_alpha = 1.6;
  p.cluster_burst_mean_duration = 10.0;
  return p;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(TraceProfile profile,
                                                 uint64_t seed)
    : profile_(std::move(profile)), seed_(seed) {
  RPAS_CHECK(profile_.num_machines > 0);
  RPAS_CHECK(profile_.step_minutes > 0.0);
}

ts::TimeSeries SyntheticTraceGenerator::GenerateCpu(size_t num_steps) const {
  const TraceProfile& p = profile_;
  const double steps_per_day = 24.0 * 60.0 / p.step_minutes;
  const double steps_per_week = 7.0 * steps_per_day;

  Rng master(seed_);
  std::vector<double> cpu_total(num_steps, 0.0);

  // Per-step terms every machine shares: elapsed days, the weekly factor
  // and the trend. Fractional parts are taken as x - floor(x), which
  // equals fmod(x, 1.0) exactly for the finite x >= 0 here.
  struct StepTerms {
    double days;
    double week_factor;
    double trend;
  };
  std::vector<StepTerms> terms(num_steps);
  for (size_t t = 0; t < num_steps; ++t) {
    const double days = static_cast<double>(t) / steps_per_day;
    const double weeks = static_cast<double>(t) / steps_per_week;
    const bool weekend = weeks - std::floor(weeks) >= 5.0 / 7.0;
    terms[t] = {days, weekend ? p.weekend_factor : 1.0,
                p.trend_per_day * days};
  }

  for (size_t machine = 0; machine < p.num_machines; ++machine) {
    Rng rng = master.Fork(machine + 1);
    const double base =
        p.base_load * (1.0 + p.base_spread * rng.Normal());
    const double amplitude =
        p.diurnal_amplitude * (1.0 + 0.3 * rng.Normal());
    const double phase = rng.Uniform(0.0, 0.15);  // offset peak slightly
    double ar_state = 0.0;
    double burst_remaining = 0.0;
    double burst_height = 0.0;

    for (size_t t = 0; t < num_steps; ++t) {
      const double day = terms[t].days + phase;
      const double day_pos = day - std::floor(day);
      // Peaky diurnal shape in [0, 1]: raised cosine sharpened by an
      // exponent, peaking mid-day.
      const double raised =
          0.5 * (1.0 - std::cos(2.0 * M_PI * day_pos));
      const double diurnal = std::pow(raised, p.diurnal_peakiness);

      ar_state = p.ar_coeff * ar_state +
                 rng.Normal(0.0, p.noise_stddev);

      if (burst_remaining <= 0.0 && rng.Bernoulli(p.burst_rate)) {
        burst_remaining =
            1.0 + rng.Exponential(1.0 / p.burst_mean_duration);
        burst_height =
            rng.Pareto(p.burst_magnitude, p.burst_pareto_alpha) -
            p.burst_magnitude;
      }
      double burst = 0.0;
      if (burst_remaining > 0.0) {
        burst = burst_height;
        burst_remaining -= 1.0;
      }

      double load = terms[t].week_factor * (base + amplitude * diurnal) +
                    ar_state + burst + terms[t].trend;
      load = std::clamp(load, 0.0, p.machine_capacity);
      cpu_total[t] += load;
    }
  }

  // Cluster-wide correlated components: a shared AR(1) "task wave" and
  // shared Pareto bursts, both scaled by the mean aggregate load so the
  // profiles control *relative* unpredictability.
  if (p.cluster_noise_stddev > 0.0 || p.cluster_burst_rate > 0.0) {
    double mean_load = 0.0;
    for (double v : cpu_total) {
      mean_load += v;
    }
    mean_load /= std::max<size_t>(num_steps, 1);
    Rng cluster_rng = master.Fork(0xC1u);
    double ar_state = 0.0;
    double burst_remaining = 0.0;
    double burst_height = 0.0;
    for (size_t t = 0; t < num_steps; ++t) {
      // Heteroskedastic innovations: busy hours are noisier (volatility
      // scales with the diurnal cycle when cluster_noise_diurnal > 0).
      const double day_pos = terms[t].days - std::floor(terms[t].days);
      const double diurnal =
          0.5 * (1.0 - std::cos(2.0 * M_PI * day_pos));
      const double noise_scale =
          (1.0 - p.cluster_noise_diurnal) + p.cluster_noise_diurnal *
                                                (0.25 + 1.5 * diurnal);
      ar_state = p.cluster_ar_coeff * ar_state +
                 cluster_rng.Normal(0.0, p.cluster_noise_stddev * mean_load *
                                             noise_scale);
      if (burst_remaining <= 0.0 &&
          cluster_rng.Bernoulli(p.cluster_burst_rate)) {
        burst_remaining =
            1.0 + cluster_rng.Exponential(1.0 / p.cluster_burst_mean_duration);
        const double scale = p.cluster_burst_magnitude * mean_load;
        burst_height =
            cluster_rng.Pareto(scale, p.cluster_burst_pareto_alpha) - scale;
      }
      double burst = 0.0;
      if (burst_remaining > 0.0) {
        burst = burst_height;
        burst_remaining -= 1.0;
      }
      cpu_total[t] = std::max(0.0, cpu_total[t] + ar_state + burst);
    }
  }

  ts::TimeSeries cpu;
  cpu.values = std::move(cpu_total);
  cpu.step_minutes = p.step_minutes;
  cpu.name = p.name + "-cpu";
  return cpu;
}

ResourceTrace SyntheticTraceGenerator::Generate(size_t num_steps) const {
  const TraceProfile& p = profile_;
  ResourceTrace trace;
  trace.cpu = GenerateCpu(num_steps);
  const std::vector<double>& cpu_total = trace.cpu.values;

  // Memory tracks CPU with a smoother response (leaky integrator) and a
  // higher floor; disk activity is spikier (CPU changes plus extra noise).
  // Both draw from their own forked stream, which depends on the seed
  // alone, so GenerateCpu skips them without changing the CPU values.
  Rng aux = Rng(seed_).Fork(0x517eull);
  trace.memory.values.resize(num_steps);
  trace.disk.values.resize(num_steps);
  double mem_state =
      cpu_total.empty() ? 0.0 : cpu_total[0] * 1.5;
  for (size_t t = 0; t < num_steps; ++t) {
    mem_state = 0.92 * mem_state + 0.08 * (1.5 * cpu_total[t]);
    trace.memory.values[t] =
        mem_state + 0.4 * p.base_load * static_cast<double>(p.num_machines) *
                        0.1 * aux.Uniform();
    const double delta =
        t > 0 ? std::fabs(cpu_total[t] - cpu_total[t - 1]) : 0.0;
    trace.disk.values[t] =
        0.5 * delta + aux.Exponential(1.0) * 0.2 * p.base_load;
  }
  trace.memory.step_minutes = p.step_minutes;
  trace.memory.name = p.name + "-memory";
  trace.disk.step_minutes = p.step_minutes;
  trace.disk.name = p.name + "-disk";
  return trace;
}

}  // namespace rpas::trace
