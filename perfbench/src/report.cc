#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/strings.h"
#include "tensor/kernels.h"

#ifndef RPAS_PERFBENCH_BUILD_TYPE
#define RPAS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr char kDriverCall[] = "driver.call";

/// Durations (ms), busy seconds inside driver calls and summed rows of one
/// span name.
struct SpanStats {
  std::vector<double> ms;
  double in_call_s = 0.0;
  int64_t rows = 0;
  int64_t deepar_rows = 0;

  double busy_s() const {
    double sum = 0.0;
    for (double v : ms) {
      sum += v / 1e3;
    }
    return sum;
  }
};

/// Groups spans by name. A span's in-call time is the part of it that lies
/// inside a "driver.call" span of the same pass, so work the benchmark does
/// around a call (set-up fits, the loops' restores, pre-warm loads) never
/// counts toward a share of the call.
std::map<std::string, SpanStats> GroupSpans(
    const std::vector<SpanRecord>& spans) {
  std::multimap<uint32_t, const SpanRecord*> calls;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, kDriverCall) == 0) {
      calls.emplace(s.pass, &s);
    }
  }
  std::map<std::string, SpanStats> by_name;
  for (const SpanRecord& s : spans) {
    SpanStats& st = by_name[s.name];
    st.ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    const auto [first, last] = calls.equal_range(s.pass);
    for (auto it = first; it != last; ++it) {
      const uint64_t lo = std::max(s.start_ns, it->second->start_ns);
      const uint64_t hi = std::min(s.end_ns, it->second->end_ns);
      st.in_call_s += hi > lo ? static_cast<double>(hi - lo) / 1e9 : 0.0;
    }
    st.rows += s.rows < 0 ? -s.rows : s.rows;
    st.deepar_rows += s.rows < 0 ? -s.rows : 0;
  }
  return by_name;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += rpas::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           i > 0 ? ", " : "", entries_[i].first.c_str(),
                           entries_[i].second.first,
                           entries_[i].second.second.c_str());
  }
  return out + "}";
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Pooled::Add(const PassOutcome& pass) {
  tenant_rounds += pass.tenant_rounds;
  fresh_rounds += pass.fresh_rounds;
  tenant_steps += pass.tenant_steps;
  slo_violated_steps += pass.slo_violated_steps;
  under_provision_steps += pass.under_provision_steps;
  over_provision_steps += pass.over_provision_steps;
  counts.Add(pass.counts);
}

MetricSet EndToEndMetrics(const std::vector<double>& rounds_per_s,
                          double setup_s, double peak_rss_mib,
                          const Pooled& pooled) {
  const double steps = static_cast<double>(pooled.tenant_steps);
  MetricSet m;
  m.Add("tenant_rounds_per_s", Median(rounds_per_s), "1/s");
  m.Add("setup_s", setup_s, "s");
  m.Add("peak_rss_mib", peak_rss_mib, "MiB");
  m.Add("slo_violation_rate",
        Ratio(static_cast<double>(pooled.slo_violated_steps), steps), "ratio");
  m.Add("under_provision_rate", Ratio(pooled.under_provision_steps, steps),
        "ratio");
  m.Add("over_provision_rate", Ratio(pooled.over_provision_steps, steps),
        "ratio");
  m.Add("fresh_round_share",
        Ratio(static_cast<double>(pooled.fresh_rounds),
              static_cast<double>(pooled.tenant_rounds)),
        "ratio");
  return m;
}

MetricSet PerLayerMetrics(const std::vector<SpanRecord>& spans,
                          uint64_t forecast_errors, const Pooled& pooled,
                          const ReplayTimes& replay, double traced_wall_s,
                          double trace_overhead, int threads) {
  std::map<std::string, SpanStats> by_name = GroupSpans(spans);
  const double capacity = traced_wall_s * static_cast<double>(threads);
  auto share = [&](double busy_s) { return Ratio(busy_s, capacity); };
  auto calls = [&](const char* name) {
    return static_cast<double>(by_name[name].ms.size());
  };
  const LayerCounts& c = pooled.counts;
  MetricSet m;

  // Every forecast-serving call, single (the loops) or batched (the fleets).
  SpanStats& predict = by_name["forecast.predict"];
  SpanStats& batch = by_name["forecast.batch"];
  std::vector<double> infer_ms = predict.ms;
  infer_ms.insert(infer_ms.end(), batch.ms.begin(), batch.ms.end());
  m.Add("forecast.infer.ms_p50", Percentile(infer_ms, 0.5), "ms");
  m.Add("forecast.infer.ms_p95", Percentile(infer_ms, 0.95), "ms");

  m.Add("forecast.predict.calls", calls("forecast.predict"), "count");
  m.Add("forecast.predict.share", share(predict.in_call_s), "ratio");

  m.Add("forecast.batch.calls", calls("forecast.batch"), "count");
  m.Add("forecast.batch.rows_mean",
        Ratio(static_cast<double>(batch.rows), calls("forecast.batch")),
        "rows");
  m.Add("forecast.batch.share", share(batch.in_call_s), "ratio");
  m.Add("forecast.batch.deepar_rows_share",
        Ratio(static_cast<double>(batch.deepar_rows),
              static_cast<double>(batch.rows)),
        "ratio");
  m.Add("forecast.errors", static_cast<double>(forecast_errors), "count");

  SpanStats& update = by_name["forecast.update"];
  m.Add("forecast.update.calls", calls("forecast.update"), "count");
  m.Add("forecast.update.grad_steps", static_cast<double>(update.rows),
        "count");
  m.Add("forecast.update.share", share(update.in_call_s), "ratio");

  // Set-up fits and in-call full retrains.
  SpanStats& fit = by_name["forecast.fit"];
  m.Add("forecast.fit.calls", calls("forecast.fit"), "count");
  m.Add("forecast.fit.busy_s", fit.busy_s(), "s");

  SpanStats& load = by_name["forecast.load"];
  m.Add("forecast.load.calls", calls("forecast.load"), "count");
  m.Add("forecast.load.ms_p50", Percentile(load.ms, 0.5), "ms");
  m.Add("forecast.load.share", share(load.in_call_s), "ratio");

  const double lookups =
      static_cast<double>(c.cache_hits + c.cache_misses);
  m.Add("serve.registry.hits", static_cast<double>(c.cache_hits), "count");
  m.Add("serve.registry.misses", static_cast<double>(c.cache_misses),
        "count");
  m.Add("serve.registry.evictions", static_cast<double>(c.cache_evictions),
        "count");
  m.Add("serve.registry.hit_rate",
        Ratio(static_cast<double>(c.cache_hits), lookups), "ratio");
  m.Add("serve.registry.resident_mib",
        static_cast<double>(c.resident_bytes) / (1 << 20), "MiB");
  m.Add("serve.registry.mapped_mib",
        static_cast<double>(c.mapped_bytes) / (1 << 20), "MiB");

  m.Add("serve.admission.admitted", static_cast<double>(c.admitted), "count");
  m.Add("serve.admission.throttled", static_cast<double>(c.throttled),
        "count");
  m.Add("serve.admission.shed", static_cast<double>(c.shed), "count");
  m.Add("serve.admission.admitted_share",
        Ratio(static_cast<double>(c.admitted),
              static_cast<double>(c.submitted)),
        "ratio");

  // Allocation: in-situ spans when the driver calls through the decorated
  // allocator (the loops), otherwise the replay (the fleets).
  SpanStats& allocate = by_name["core.allocate"];
  const bool allocate_spans = !allocate.ms.empty();
  const double allocate_busy =
      allocate_spans ? allocate.in_call_s : replay.allocate_busy_s;
  m.Add("core.allocate.calls", static_cast<double>(c.allocate_calls),
        "count");
  m.Add("core.allocate.ms_p50",
        allocate_spans
            ? Percentile(allocate.ms, 0.5)
            : Ratio(replay.allocate_busy_s * 1e3,
                    static_cast<double>(replay.allocate_calls)),
        "ms");
  m.Add("core.allocate.share", share(allocate_busy), "ratio");
  m.Add("core.degrade.fallback_rounds", static_cast<double>(c.fallback_rounds),
        "count");
  m.Add("core.degrade.stale_rounds", static_cast<double>(c.stale_rounds),
        "count");
  m.Add("core.degrade.retried_rounds", static_cast<double>(c.retried_rounds),
        "count");
  const double layers_busy = predict.in_call_s + batch.in_call_s +
                             update.in_call_s + fit.in_call_s +
                             load.in_call_s + allocate_busy +
                             replay.simdb_busy_s;
  m.Add("core.driver.self_share", std::max(0.0, 1.0 - share(layers_busy)),
        "ratio");

  m.Add("simdb.step.calls", static_cast<double>(c.simdb_steps), "count");
  m.Add("simdb.step.share", share(replay.simdb_busy_s), "ratio");

  m.Add("select.switches", static_cast<double>(c.tier_switches), "count");
  m.Add("select.promotions", static_cast<double>(c.tier_promotions), "count");
  m.Add("select.demotions", static_cast<double>(c.tier_demotions), "count");
  m.Add("select.prescale.activations",
        static_cast<double>(c.prescale_activations), "count");
  m.Add("select.prescale.floor_raised_steps",
        static_cast<double>(c.prescale_floor_raised_steps), "count");

  m.Add("stream.points_ingested", static_cast<double>(c.points_pushed),
        "count");
  m.Add("stream.points_dropped", static_cast<double>(c.points_dropped),
        "count");
  m.Add("stream.consumed_ratio",
        Ratio(static_cast<double>(c.points_consumed),
              static_cast<double>(c.points_pushed)),
        "ratio");
  m.Add("stream.refresh.fine_tunes", static_cast<double>(c.fine_tunes),
        "count");
  m.Add("stream.refresh.resyncs", static_cast<double>(c.resyncs), "count");
  m.Add("stream.refresh.full_retrains", static_cast<double>(c.full_retrains),
        "count");

  m.Add("trace.overhead", trace_overhead, "ratio");
  return m;
}

std::vector<std::string> CheckTracedCounts(
    const std::vector<SpanRecord>& spans, const LayerCounts& counts) {
  std::map<std::string, SpanStats> by_name = GroupSpans(spans);
  const uint64_t predictions = by_name["forecast.predict"].ms.size();
  const auto batch_rows = static_cast<uint64_t>(by_name["forecast.batch"].rows);
  const uint64_t loads = by_name["forecast.load"].ms.size();
  std::vector<std::string> violations;
  if (batch_rows != counts.admitted) {
    violations.push_back("traced: batch rows == admitted requests");
  }
  if (predictions + batch_rows != counts.allocate_calls + counts.error_rounds) {
    violations.push_back(
        "traced: forecasts served == allocations + error rounds");
  }
  if (loads != counts.cache_misses + counts.checkpoint_restores) {
    violations.push_back(
        "traced: checkpoint loads == registry misses + restores");
  }
  return violations;
}

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ProvenanceJson(const Provenance& p) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return rpas::StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
      "\"nproc\": %ld, \"rpas_threads\": %d, \"simd_level\": \"%s\", "
      "\"int8_gemm\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\"}",
      Escape(p.workload).c_str(), static_cast<unsigned long long>(p.seed),
      p.tiny ? "tiny" : "full", nproc, p.rpas_threads,
      rpas::tensor::kernels::LevelName(
          rpas::tensor::kernels::ActiveLevel()),
      rpas::tensor::kernels::GemmQuantInt8Enabled() ? "true" : "false",
      Escape(compiler).c_str(), RPAS_PERFBENCH_BUILD_TYPE,
      Escape(p.git_sha).c_str());
}

}  // namespace perfbench
