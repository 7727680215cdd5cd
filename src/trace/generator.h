#ifndef RPAS_TRACE_GENERATOR_H_
#define RPAS_TRACE_GENERATOR_H_

#include <cstdint>
#include <string>

#include "ts/time_series.h"

namespace rpas::trace {

/// Statistical profile of a synthetic cluster workload trace. The defaults
/// are neutral; use AlibabaProfile() / GoogleProfile() for the two
/// dataset stand-ins used throughout the benches (see DESIGN.md §3 for the
/// substitution rationale: the real Alibaba/Google traces are multi-GB
/// downloads, and the paper's experiments depend only on their statistical
/// shape).
struct TraceProfile {
  std::string name = "synthetic";
  size_t num_machines = 24;     ///< machines sampled and aggregated
  double step_minutes = 10.0;   ///< paper aggregates at 10-minute intervals
  double base_load = 4.0;       ///< mean per-machine load (cores)
  double base_spread = 0.3;     ///< machine-to-machine base variation
  double diurnal_amplitude = 3.0;   ///< daily-cycle swing per machine
  double diurnal_peakiness = 1.6;   ///< >1 sharpens the daily peak
  double weekend_factor = 0.7;      ///< weekend load multiplier
  double ar_coeff = 0.8;            ///< AR(1) noise persistence
  double noise_stddev = 0.35;       ///< AR(1) innovation stddev per machine
  double burst_rate = 0.004;        ///< burst arrivals per machine per step
  double burst_magnitude = 2.5;     ///< Pareto scale of burst height
  double burst_pareto_alpha = 1.8;  ///< Pareto tail (smaller = heavier)
  double burst_mean_duration = 6.0; ///< geometric mean burst length (steps)
  double trend_per_day = 0.0;       ///< linear drift of base load per day
  double machine_capacity = 16.0;   ///< per-machine load ceiling (cores)

  // Cluster-wide (correlated) components applied to the aggregate.
  // Independent per-machine noise averages out across machines, so the
  // aggregate's unpredictability is governed by these shared terms —
  // synchronized task waves and cluster-level bursts.
  double cluster_noise_stddev = 0.0;   ///< shared AR(1) innovation stddev,
                                       ///< as a fraction of the mean load
  double cluster_ar_coeff = 0.9;       ///< persistence of the shared noise
  /// Diurnal modulation of the shared noise amplitude in [0, 1]: 0 keeps
  /// the noise homoskedastic, 1 makes busy hours far noisier than quiet
  /// ones. Production traces are heteroskedastic — volatility grows with
  /// load — which is what makes forecast uncertainty informative
  /// (paper Fig. 6).
  double cluster_noise_diurnal = 0.0;
  double cluster_burst_rate = 0.0;     ///< shared burst arrivals per step
  double cluster_burst_magnitude = 0.1;  ///< Pareto scale, fraction of mean
  double cluster_burst_pareto_alpha = 1.8;
  double cluster_burst_mean_duration = 6.0;
};

/// Alibaba-cluster-trace-like profile: strong, peaky diurnal cycle, clear
/// weekday/weekend contrast, moderate noise and occasional bursts — the
/// regime where all forecasters in the paper's Table I do comparatively
/// well (mean_wQL in the 1e-3..1e-2 range for the neural models).
TraceProfile AlibabaProfile();

/// Google-cluster-trace-like profile: weaker seasonality, much stronger
/// burstiness and dispersion — the regime where every model's error is an
/// order of magnitude worse (paper Table I).
TraceProfile GoogleProfile();

/// Resource-usage traces produced by one generator run (the paper
/// aggregates CPU, memory and disk for Alibaba; CPU and memory for Google).
struct ResourceTrace {
  ts::TimeSeries cpu;
  ts::TimeSeries memory;
  ts::TimeSeries disk;
};

/// Deterministic synthetic cluster-trace generator: simulates per-machine
/// load (diurnal + weekly cycles, AR(1) noise, Pareto bursts, drift),
/// aggregates across machines, and derives correlated memory/disk series.
class SyntheticTraceGenerator {
 public:
  SyntheticTraceGenerator(TraceProfile profile, uint64_t seed);

  /// Generates `num_steps` aggregated steps.
  ResourceTrace Generate(size_t num_steps) const;

  /// Only the CPU series (the scaling metric used throughout the paper's
  /// evaluation), equal to Generate(num_steps).cpu without the memory and
  /// disk series' work.
  ts::TimeSeries GenerateCpu(size_t num_steps) const;

  const TraceProfile& profile() const { return profile_; }

 private:
  TraceProfile profile_;
  uint64_t seed_;
};

}  // namespace rpas::trace

#endif  // RPAS_TRACE_GENERATOR_H_
