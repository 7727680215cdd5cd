#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "core/uncertainty.h"
#include "forecast/deepar.h"
#include "forecast/mlp.h"
#include "nn/qcheckpoint.h"
#include "serve/fleet.h"
#include "serve/registry.h"
#include "simdb/cluster.h"
#include "stream/ring.h"
#include "trace/generator.h"

namespace perfbench {
namespace {

using rpas::Result;
using rpas::Status;
namespace core = rpas::core;
namespace forecast = rpas::forecast;
namespace serve = rpas::serve;
namespace simdb = rpas::simdb;
namespace ts = rpas::ts;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// FNV-1a over the bytes of every deterministic output of a pass.
class Fingerprint {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    Bytes(&value, sizeof(value));
  }
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    Add(values.size());
    for (const T& v : values) {
      Add(v);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

Result<uint64_t> FileFingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot read " + path);
  }
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  Fingerprint fp;
  fp.Bytes(bytes.data(), bytes.size());
  return fp.value();
}

void Expect(bool ok, const std::string& what,
            std::vector<std::string>* violations) {
  if (!ok) {
    violations->push_back(what);
  }
}

void AddStepStats(const simdb::StepStats& s, Fingerprint* fp) {
  fp->Add(s.step);
  fp->Add(s.target_nodes);
  fp->Add(s.active_nodes);
  fp->Add(s.effective_nodes);
  fp->Add(s.workload);
  fp->Add(s.avg_utilization);
  fp->Add(s.p_latency_ms);
  fp->Add(s.under_provisioned);
  fp->Add(s.slo_violated);
  fp->Add(s.nodes_added);
  fp->Add(s.nodes_removed);
  fp->Add(s.nodes_failed);
  fp->Add(s.nodes_delayed);
  fp->Add(s.nodes_denied);
  fp->Add(s.spike_multiplier);
}

bool SameStepStats(const simdb::StepStats& a, const simdb::StepStats& b) {
  Fingerprint fa;
  Fingerprint fb;
  AddStepStats(a, &fa);
  AddStepStats(b, &fb);
  return fa.value() == fb.value();
}

/// Fits `model`; with `log` set, records the fit as a "forecast.fit" span.
Status FitModel(forecast::Forecaster* model, const ts::TimeSeries& train,
                SpanLog* log) {
  const uint64_t start = log != nullptr ? log->NowNs() : 0;
  Status status = model->Fit(train);
  if (log != nullptr) {
    log->Record("forecast.fit", start, 0);
  }
  return status;
}

/// Runs `call` and, with `log` set, records it as the "driver.call" span the
/// report clips layer busy time to. Returns the call's wall seconds.
template <typename Call>
double TimeDriverCall(SpanLog* log, Call&& call) {
  const uint64_t start = log != nullptr ? log->NowNs() : 0;
  rpas::Stopwatch watch;
  call();
  const double wall = watch.ElapsedSeconds();
  if (log != nullptr) {
    log->Record("driver.call", start, 0);
  }
  return wall;
}

/// The scaling quantile grid of paper §IV-C.
std::vector<double> ScalingLevels() {
  return {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
}

// ---------------------------------------------------------------------------
// Single-tenant online loops (core::RunOnlineLoop)
// ---------------------------------------------------------------------------

constexpr size_t kStepsPerDay = 144;
/// Seed of the training traces (fixed, see the workloads' Setup()).
constexpr uint64_t kTrainSeed = 2024;
/// Hourly replans at 10-minute steps.
constexpr size_t kLoopReplanEvery = 6;
/// Every tenant's theta is its mean load / 16: about sixteen nodes, fine
/// enough that under- and over-provisioned steps are common, which keeps
/// their rates steady across seeds.
constexpr double kThetaDivisor = 16.0;

/// DeepAR at the paper shape (context 72, horizon 72, 100 sampled
/// trajectories) with the full training budget of the paper benches.
forecast::DeepArForecaster::Options PaperDeepAr(bool tiny) {
  forecast::DeepArForecaster::Options o;
  o.context_length = 72;
  o.horizon = 72;
  o.hidden_dim = 32;
  o.batch_size = 8;
  o.num_samples = tiny ? 20 : 100;
  o.student_t_dof = 3.0;
  o.train.steps = tiny ? 100 : 300;
  o.train.lr = 1e-3;
  o.levels = ScalingLevels();
  o.seed = 11;
  // loop_stream fine-tunes every round; two gradient steps per round keep a
  // round near the cost of one forecast.
  o.fine_tune_steps = 2;
  return o;
}

class LoopWorkload final : public Workload {
 public:
  LoopWorkload(WorkloadConfig config, bool streaming)
      : config_(std::move(config)), streaming_(streaming) {
    train_steps_ = (config_.tiny ? 4 : 14) * kStepsPerDay;
    eval_steps_ = config_.tiny ? 48 : kStepsPerDay / 4;
    passes_ = config_.tiny ? 4 : (streaming ? 96 : 192);
    ckpt_path_ = config_.work_dir + (streaming ? "/loop_stream.ckpt"
                                               : "/loop_deepar.ckpt");
  }

  Status Setup(SpanLog* log) override {
    // The model is a fixed asset: it trains on a trace that does not depend
    // on the workload seed, so set-up work and model quality are the same
    // for every seed. The seed drives the tenant trace the loop serves.
    const rpas::trace::SyntheticTraceGenerator train_generator(
        rpas::trace::AlibabaProfile(), kTrainSeed);
    const ts::TimeSeries train = train_generator.GenerateCpu(train_steps_);
    const double train_theta = train.Mean() / kThetaDivisor;

    forecast::DeepArForecaster model(PaperDeepAr(config_.tiny));
    RPAS_RETURN_IF_ERROR(FitModel(&model, train, log));
    RPAS_RETURN_IF_ERROR(model.SaveCheckpoint(ckpt_path_));

    // Algorithm 1's threshold rho: the mean uncertainty of a probe forecast
    // at the end of training, so the allocator splits its steps between the
    // two levels.
    forecast::ForecastInput probe;
    probe.context.assign(
        train.values.end() - static_cast<long>(model.ContextLength()),
        train.values.end());
    probe.start_index = train.size() - model.ContextLength();
    probe.step_minutes = train.step_minutes;
    RPAS_ASSIGN_OR_RETURN(const ts::QuantileForecast fc,
                          model.PredictSeeded(probe, kTrainSeed));
    const std::vector<double> u = core::QuantileUncertaintyPerStep(fc);
    const double rho_per_theta = std::accumulate(u.begin(), u.end(), 0.0) /
                                 static_cast<double>(u.size()) / train_theta;

    // One tenant per distinct pass: a day of observed history, then the
    // evaluated steps. Node size and rho scale with the tenant's own load.
    RPAS_ASSIGN_OR_RETURN(const uint64_t ckpt_fp, FileFingerprint(ckpt_path_));
    Fingerprint fp;
    fp.Add(ckpt_fp);
    tenants_.clear();
    for (size_t p = 0; p < passes_; ++p) {
      const rpas::trace::SyntheticTraceGenerator generator(
          rpas::trace::AlibabaProfile(),
          rpas::DeriveSeed(config_.seed, 0x10 + p));
      Tenant tenant;
      tenant.series = generator.GenerateCpu(kLeadSteps + eval_steps_);
      tenant.scaling.theta =
          tenant.series.Slice(0, kLeadSteps).Mean() / kThetaDivisor;
      tenant.scaling.min_nodes = 1;
      tenant.rho = rho_per_theta * tenant.scaling.theta;
      fp.AddAll(tenant.series.values);
      fp.Add(tenant.rho);
      tenants_.push_back(std::move(tenant));
    }
    setup_fingerprint_ = fp.value();
    return Status::OK();
  }

  uint64_t SetupFingerprint() const override { return setup_fingerprint_; }
  size_t NumPasses() const override { return passes_; }
  /// One tenant's round gains nothing from the pool (the same throughput at
  /// one and four threads on an idle 4-vCPU host), while the pool's
  /// fork-join per sampling GEMM makes the call wait whenever any vCPU is
  /// busy elsewhere: on a shared host that moved loop_deepar by 40% between
  /// runs. One thread measures the loop's own work.
  int CallingThreads() const override { return 1; }

  Result<PassOutcome> RunPass(size_t pass, SpanLog* log) override {
    const size_t window = pass % passes_;
    const Tenant& tenant = tenants_[window];
    const size_t eval_start = kLeadSteps;

    // A fresh trainable model per pass: Predict advances DeepAR's sampling
    // stream and incremental refresh moves the weights, so reusing one
    // model would make every pass differ. Traced, the restore is a
    // checkpoint load outside the driver call.
    std::unique_ptr<forecast::Forecaster> model =
        std::make_unique<forecast::DeepArForecaster>(PaperDeepAr(config_.tiny));
    std::unique_ptr<core::QuantileAllocator> allocator =
        std::make_unique<core::AdaptiveQuantileAllocator>(kTau1, kTau2,
                                                          tenant.rho);
    if (log != nullptr) {
      model = std::make_unique<TracedForecaster>(std::move(model), log);
      allocator =
          std::make_unique<TracedAllocator>(std::move(allocator), log);
    }
    RPAS_RETURN_IF_ERROR(model->LoadCheckpoint(ckpt_path_));
    core::RobustAutoScalingManager manager(model.get(), std::move(allocator),
                                           tenant.scaling);

    core::OnlineLoopOptions options;
    options.replan_every = kLoopReplanEvery;
    options.degradation.fallback_plan_steps = kLoopReplanEvery;
    options.cluster.node_capacity = tenant.scaling.theta;
    options.cluster.initial_nodes = core::RequiredNodes(
        tenant.series.values[eval_start - 1], tenant.scaling);
    options.cluster.seed = rpas::DeriveSeed(config_.seed, 0xC100 + window);
    if (streaming_) {
      options.faults = StreamFaults(window);
      options.streaming.refresh_mode = core::RefreshMode::kIncremental;
      options.streaming.refresh_target = model.get();
      options.streaming.ring_capacity = kRingCapacity;
    }

    Result<core::OnlineLoopResult> result_or = Status::Internal("not run");
    const double wall = TimeDriverCall(log, [&] {
      result_or = core::RunOnlineLoop(manager, tenant.series, eval_start,
                                      eval_steps_, options);
    });
    RPAS_ASSIGN_OR_RETURN(const core::OnlineLoopResult result,
                          std::move(result_or));

    PassOutcome out;
    out.wall_s = wall;
    out.tenant_rounds = result.plans_made;
    out.fresh_rounds =
        result.plans_made - result.stale_plans - result.fallback_plans;
    out.tenant_steps = eval_steps_;
    for (const simdb::StepStats& s : result.steps) {
      out.slo_violated_steps += s.slo_violated ? 1 : 0;
    }
    out.under_provision_steps =
        result.under_provision_rate * static_cast<double>(eval_steps_);
    out.over_provision_steps =
        result.over_provision_rate * static_cast<double>(eval_steps_);

    LayerCounts& c = out.counts;
    c.fallback_rounds = result.fallback_plans;
    c.stale_rounds = result.stale_plans;
    c.retried_rounds = result.retried_plans;
    c.tier_switches = result.selection.selector.switches;
    c.tier_promotions = result.selection.selector.promotions;
    c.tier_demotions = result.selection.selector.probe_demotions +
                       result.selection.selector.fault_demotions +
                       result.selection.selector.drift_demotions;
    c.prescale_activations = result.selection.prescaler.activations;
    c.prescale_floor_raised_steps =
        result.selection.prescaler.floor_raised_steps;
    c.points_pushed = result.points_ingested;
    c.points_dropped = result.points_dropped;
    c.points_consumed = result.refresh.points_consumed;
    c.fine_tunes = result.refresh.fine_tunes;
    c.resyncs = result.refresh.resyncs;
    c.full_retrains = result.refresh.full_retrains;
    for (const simdb::FaultEvent& e : result.fault_events) {
      c.error_rounds += e.type == simdb::FaultType::kPlannerError ? 1 : 0;
    }
    c.allocate_calls = out.fresh_rounds;
    c.simdb_steps = result.steps.size();
    c.checkpoint_restores = 1;

    CheckInvariants(result, window, &out.violations);
    out.replay = ReplayCluster(result, tenant.series, eval_start, options,
                               &out.violations);
    if (log == nullptr) {
      out.replay = ReplayTimes{};
    }
    out.fingerprint = FingerprintOf(result);
    return out;
  }

 private:
  /// Ring capacity: an hourly round ingests 6 points, a post-stall burst
  /// ingests at least kStallSteps + 1, so only bursts overflow it.
  static constexpr size_t kRingCapacity = 8;
  /// Observed history before the first evaluated step.
  static constexpr size_t kLeadSteps = kStepsPerDay;
  /// Algorithm 1's optimistic and conservative quantile levels.
  static constexpr double kTau1 = 0.9;
  static constexpr double kTau2 = 0.99;

  struct Tenant {
    ts::TimeSeries series;
    core::ScalingConfig scaling;
    double rho = 0.0;  ///< Algorithm 1's uncertainty threshold
  };
  static constexpr int kStallSteps = 8;

  simdb::FaultPlan StreamFaults(size_t window) const {
    simdb::FaultPlan plan;
    plan.ingest_stall_rate = 0.01;
    plan.ingest_stall_steps = kStallSteps;
    plan.forecaster_timeout_rate = 0.02;
    plan.forecaster_timeout_attempts = 3;  // outlasts the 2 retries
    plan.forecaster_nan_rate = 0.02;       // one failed attempt, retried
    plan.seed = rpas::DeriveSeed(config_.seed, 0xFA00 + window);
    return plan;
  }

  void CheckInvariants(const core::OnlineLoopResult& r, size_t window,
                       std::vector<std::string>* v) const {
    Expect(r.allocation.size() == eval_steps_ && r.steps.size() == eval_steps_,
           "loop: allocation.size() == steps.size() == num_steps", v);
    const size_t expected_rounds =
        (eval_steps_ + kLoopReplanEvery - 1) / kLoopReplanEvery;
    Expect(r.plans_made == expected_rounds,
           "loop: one planning round per replan interval", v);
    Expect(r.stale_plans + r.fallback_plans <= r.plans_made,
           "loop: rounds = fresh + stale + fallback", v);
    size_t stale_events = 0;
    size_t fallback_events = 0;
    size_t retry_events = 0;
    for (const simdb::FaultEvent& e : r.fault_events) {
      stale_events += e.type == simdb::FaultType::kStaleForecast ? 1 : 0;
      fallback_events +=
          (e.action == simdb::FaultAction::kFallbackLastGood ||
           e.action == simdb::FaultAction::kFallbackReactive)
              ? 1
              : 0;
      retry_events += e.action == simdb::FaultAction::kRetrySucceeded ? 1 : 0;
    }
    Expect(stale_events == r.stale_plans &&
               fallback_events == r.fallback_plans &&
               retry_events == r.retried_plans,
           "loop: degraded-round counts match the fault event log", v);
    Expect(r.selection.prescaler.activations ==
               r.selection.prescaler.rollbacks,
           "loop: prescale activations == rollbacks", v);
    if (streaming_) {
      ReplayRing(r, window, v);
    }
  }

  /// Replays the loop's producer (stall queue, burst flush) and its
  /// once-per-round consumer over a public IngestRing/StreamCursor and
  /// checks delivered + dropped + unread + pending == produced, with each
  /// term matching the loop's own accounting.
  void ReplayRing(const core::OnlineLoopResult& r, size_t window,
                  std::vector<std::string>* v) const {
    const simdb::FaultInjector injector(StreamFaults(window));
    rpas::stream::IngestRing ring(kRingCapacity);
    rpas::stream::StreamCursor cursor(&ring);
    std::vector<double> queue;
    uint64_t pushed = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    for (size_t i = 0; i < eval_steps_; ++i) {
      if (i % kLoopReplanEvery == 0) {
        const auto batch = cursor.Poll(nullptr);
        delivered += batch.count;
        dropped += batch.missed;
      }
      if (injector.FaultsForStep(i).ingest_stalled) {
        queue.push_back(0.0);
        continue;
      }
      for (size_t q = 0; q <= queue.size(); ++q) {
        ring.Push(0.0);
        ++pushed;
      }
      queue.clear();
    }
    const auto tail = cursor.Poll(nullptr);
    Expect(pushed == r.points_ingested && dropped == r.points_dropped &&
               queue.size() == r.points_pending,
           "loop: ring replay matches pushed/dropped/pending", v);
    Expect(delivered + dropped + tail.count + tail.missed + queue.size() ==
               eval_steps_,
           "loop: ring delivered + dropped + pending = pushed", v);
    Expect(r.refresh.points_consumed <= delivered,
           "loop: refresher consumed at most what the ring delivered", v);
  }

  /// Re-steps a cluster with the pass's options over the applied allocation;
  /// it must reproduce result.steps exactly. Returns the replay's timing.
  static ReplayTimes ReplayCluster(const core::OnlineLoopResult& r,
                                   const ts::TimeSeries& series,
                                   size_t eval_start,
                                   const core::OnlineLoopOptions& options,
                                   std::vector<std::string>* v) {
    const bool inject = options.faults.Any();
    const simdb::FaultInjector injector(options.faults);
    simdb::Cluster cluster(options.cluster);
    bool same = r.steps.size() == r.allocation.size();
    rpas::Stopwatch watch;
    for (size_t i = 0; same && i < r.allocation.size(); ++i) {
      const simdb::StepFaults faults =
          inject ? injector.FaultsForStep(i) : simdb::StepFaults{};
      const simdb::StepStats stats = cluster.Step(
          r.allocation[i], series.values[eval_start + i], faults);
      same = SameStepStats(stats, r.steps[i]);
    }
    ReplayTimes times;
    times.simdb_busy_s = watch.ElapsedSeconds();
    times.simdb_calls = r.allocation.size();
    Expect(same, "loop: simdb replay reproduces result.steps", v);
    return times;
  }

  static uint64_t FingerprintOf(const core::OnlineLoopResult& r) {
    Fingerprint fp;
    fp.AddAll(r.allocation);
    for (const simdb::StepStats& s : r.steps) {
      AddStepStats(s, &fp);
    }
    fp.Add(r.under_provision_rate);
    fp.Add(r.over_provision_rate);
    fp.Add(r.mean_utilization);
    fp.Add(r.slo_violation_rate);
    fp.Add(r.total_node_steps);
    fp.Add(r.scale_events);
    fp.Add(r.direction_changes);
    fp.Add(r.plans_made);
    fp.Add(r.mean_uncertainty);
    fp.Add(r.fault_events.size());
    for (const simdb::FaultEvent& e : r.fault_events) {
      fp.Add(e.step);
      fp.Add(e.type);
      fp.Add(e.action);
      fp.Add(e.retries);
      fp.Add(e.magnitude);
    }
    fp.Add(r.forecaster_faults);
    fp.Add(r.retried_plans);
    fp.Add(r.fallback_plans);
    fp.Add(r.stale_plans);
    fp.Add(r.faulted_steps);
    fp.Add(r.degraded_steps);
    fp.Add(r.points_ingested);
    fp.Add(r.points_pending);
    fp.Add(r.points_dropped);
    fp.Add(r.ingest_stall_steps);
    fp.Add(r.ingest_bursts);
    fp.Add(r.refresh.refreshes);
    fp.Add(r.refresh.points_consumed);
    fp.Add(r.refresh.recursive_updates);
    fp.Add(r.refresh.fine_tunes);
    fp.Add(r.refresh.gradient_steps);
    fp.Add(r.refresh.resyncs);
    fp.Add(r.refresh.full_retrains);
    fp.Add(r.mean_staleness_points);
    fp.Add(r.max_staleness_points);
    return fp.value();
  }

  WorkloadConfig config_;
  bool streaming_;
  size_t train_steps_ = 0;
  size_t eval_steps_ = 0;
  size_t passes_ = 0;
  std::string ckpt_path_;
  std::vector<Tenant> tenants_;
  uint64_t setup_fingerprint_ = 0;
};

// ---------------------------------------------------------------------------
// Multi-tenant fleets (serve::RunFleet)
// ---------------------------------------------------------------------------

/// Serving shape of the fleet benches: short context and horizon.
constexpr size_t kServeContext = 24;
constexpr size_t kServeHorizon = 12;
constexpr size_t kFleetShards = 4;
constexpr double kFleetTau = 0.7;

forecast::MlpForecaster::Options ServeMlp(bool tiny) {
  forecast::MlpForecaster::Options o;
  o.context_length = kServeContext;
  o.horizon = kServeHorizon;
  o.hidden_dim = 48;
  o.num_hidden_layers = 1;
  o.batch_size = 16;
  o.train.steps = tiny ? 20 : 80;
  o.train.lr = 1e-3;
  o.levels = ScalingLevels();
  return o;
}

forecast::DeepArForecaster::Options ServeDeepAr(bool tiny) {
  forecast::DeepArForecaster::Options o;
  o.context_length = kServeContext;
  o.horizon = kServeHorizon;
  o.hidden_dim = 20;
  o.batch_size = 8;
  o.num_samples = 16;
  o.train.steps = tiny ? 20 : 80;
  o.train.lr = 1e-3;
  o.levels = ScalingLevels();
  return o;
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(WorkloadConfig config, bool adaptive)
      : config_(std::move(config)), adaptive_(adaptive) {
    num_tenants_ = config_.tiny ? 40 : 1000;
    num_steps_ = config_.tiny ? 16 : 48;
    const size_t versions = adaptive_ ? 2 : 12;
    for (size_t v = 0; v < versions; ++v) {
      const bool mlp = v % 2 == 0;
      models_.push_back({mlp ? "mlp" : "deepar", v + 1});
      paths_.push_back(rpas::StrFormat("%s/%s_v%zu.rpasq",
                                       config_.work_dir.c_str(),
                                       mlp ? "mlp" : "deepar", v + 1));
    }
  }

  Status Setup(SpanLog* log) override {
    const rpas::trace::SyntheticTraceGenerator generator(Profile(),
                                                         kTrainSeed);
    const ts::TimeSeries train =
        generator.GenerateCpu((config_.tiny ? 4 : 10) * kStepsPerDay);
    forecast::MlpForecaster mlp(ServeMlp(config_.tiny));
    RPAS_RETURN_IF_ERROR(FitModel(&mlp, train, log));
    forecast::DeepArForecaster deepar(ServeDeepAr(config_.tiny));
    RPAS_RETURN_IF_ERROR(FitModel(&deepar, train, log));

    // Every version is stored as rpasq.v1 block-q8. A version re-saves its
    // architecture's weights under its own file, so a version switch costs
    // a checkpoint map + load, which is what the registry cache amortizes.
    Fingerprint fp;
    total_bytes_ = 0;
    for (size_t v = 0; v < models_.size(); ++v) {
      const std::string text = paths_[v] + ".text";
      const forecast::Forecaster& fitted =
          v % 2 == 0 ? static_cast<const forecast::Forecaster&>(mlp) : deepar;
      RPAS_RETURN_IF_ERROR(fitted.SaveCheckpoint(text));
      RPAS_RETURN_IF_ERROR(rpas::nn::QuantizeCheckpointFile(
          text, paths_[v], rpas::tensor::DType::kQ8));
      std::remove(text.c_str());
      RPAS_ASSIGN_OR_RETURN(const uint64_t file_fp, FileFingerprint(paths_[v]));
      fp.Add(file_fp);
      std::ifstream in(paths_[v], std::ios::binary | std::ios::ate);
      total_bytes_ += static_cast<size_t>(in.tellg());
    }
    setup_fingerprint_ = fp.value();

    // Registry build and pre-warm, as a serving process would start up.
    RPAS_ASSIGN_OR_RETURN(std::unique_ptr<serve::ModelRegistry> registry,
                          MakeRegistry(nullptr, MainBudget()));
    return PreWarm(registry.get());
  }

  uint64_t SetupFingerprint() const override { return setup_fingerprint_; }
  size_t NumPasses() const override { return 1; }
  int CallingThreads() const override {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw, 1, 4);
  }

  Result<PassOutcome> RunPass(size_t /*pass*/, SpanLog* log) override {
    RPAS_ASSIGN_OR_RETURN(std::unique_ptr<serve::ModelRegistry> registry,
                          MakeRegistry(log, MainBudget()));
    RPAS_RETURN_IF_ERROR(PreWarm(registry.get()));
    const serve::FleetOptions options = Options(log);

    Result<serve::FleetResult> result_or = Status::Internal("not run");
    const double wall = TimeDriverCall(log, [&] {
      result_or = serve::RunFleet(registry.get(), models_, options);
    });
    RPAS_ASSIGN_OR_RETURN(const serve::FleetResult result,
                          std::move(result_or));

    PassOutcome out;
    out.wall_s = wall;
    out.tenant_steps = num_tenants_ * num_steps_;
    LayerCounts& c = out.counts;
    for (const serve::TenantSummary& t : result.tenants) {
      out.tenant_rounds += t.rounds;
      out.fresh_rounds += t.fresh_rounds;
      c.fallback_rounds += t.fallback_rounds;
      c.stale_rounds += t.stale_rounds;
      c.error_rounds += t.error_rounds;
      out.slo_violated_steps += static_cast<uint64_t>(
          t.slo_violation_rate * static_cast<double>(num_steps_) + 0.5);
      out.under_provision_steps +=
          t.under_provision_rate * static_cast<double>(num_steps_);
      out.over_provision_steps +=
          t.over_provision_rate * static_cast<double>(num_steps_);
    }
    c.submitted = result.requests_submitted;
    c.admitted = result.requests_admitted;
    c.throttled = result.requests_throttled;
    c.shed = result.requests_shed;
    c.cache_hits = static_cast<uint64_t>(result.cache.hits);
    c.cache_misses = static_cast<uint64_t>(result.cache.misses);
    c.cache_evictions = static_cast<uint64_t>(result.cache.evictions);
    c.resident_bytes = result.cache.resident_bytes;
    c.mapped_bytes = result.cache.mapped_bytes;
    c.tier_switches = result.tier_switches;
    c.tier_promotions = result.tier_promotions;
    c.tier_demotions = result.tier_demotions;
    c.prescale_activations = result.prescale_activations;
    c.prescale_floor_raised_steps = result.prescale_floor_raised_steps;
    c.points_pushed = result.stream_points + result.stream_dropped;
    c.points_dropped = result.stream_dropped;
    c.points_consumed = result.stream_points;
    c.fine_tunes = result.refresh.fine_tunes;
    c.resyncs = result.refresh.resyncs;
    c.full_retrains = result.refresh.full_retrains;
    c.allocate_calls = out.fresh_rounds;
    c.simdb_steps = out.tenant_steps;

    CheckInvariants(result, &out.violations);
    if (log != nullptr) {
      out.replay = Replay(*log, c);
    }
    out.fingerprint = FingerprintOf(result);
    return out;
  }

 private:
  rpas::trace::TraceProfile Profile() const {
    return adaptive_ ? rpas::trace::GoogleProfile()
                     : rpas::trace::AlibabaProfile();
  }

  /// fleet_adaptive: one shared registry that holds every version.
  /// fleet_thrash: the main registry only serves RunFleet's warm-up; each
  /// shard's own registry is budgeted for half of the versions.
  size_t MainBudget() const {
    return adaptive_ ? 4 * total_bytes_ : ShardBudget();
  }
  size_t ShardBudget() const {
    const double weight = serve::ModelRegistry::Options{}.mapped_byte_weight;
    return static_cast<size_t>(weight * static_cast<double>(total_bytes_) /
                               2.0);
  }

  Result<std::unique_ptr<serve::ModelRegistry>> MakeRegistry(
      SpanLog* log, size_t budget) const {
    serve::ModelRegistry::Options options;
    options.cache_budget_bytes = budget;
    auto registry = std::make_unique<serve::ModelRegistry>(options);
    const bool tiny = config_.tiny;
    for (size_t v = 0; v < models_.size(); ++v) {
      const bool mlp = v % 2 == 0;
      serve::ForecasterFactory factory =
          [mlp, tiny, log]() -> std::unique_ptr<forecast::Forecaster> {
        std::unique_ptr<forecast::Forecaster> model;
        if (mlp) {
          model = std::make_unique<forecast::MlpForecaster>(ServeMlp(tiny));
        } else {
          model =
              std::make_unique<forecast::DeepArForecaster>(ServeDeepAr(tiny));
        }
        if (log != nullptr) {
          model = std::make_unique<TracedForecaster>(std::move(model), log,
                                                     /*capture_batches=*/true);
        }
        return model;
      };
      RPAS_RETURN_IF_ERROR(
          registry->RegisterVersion(models_[v], paths_[v], std::move(factory)));
    }
    return registry;
  }

  Status PreWarm(serve::ModelRegistry* registry) const {
    if (!adaptive_) {
      return Status::OK();  // a thrashing cache has nothing to keep warm
    }
    for (const serve::ModelId& id : models_) {
      RPAS_RETURN_IF_ERROR(registry->Acquire(id).status());
    }
    return Status::OK();
  }

  serve::FleetOptions Options(SpanLog* log) const {
    serve::FleetOptions o;
    o.num_tenants = num_tenants_;
    o.num_steps = num_steps_;
    o.history_steps = 96;
    o.replan_every = 4;
    o.seed = rpas::DeriveSeed(config_.seed, 0x30);
    o.profile = Profile();
    // The 0.7 quantile, like the tenant sizing, keeps under- and
    // over-provisioned steps common.
    o.tau = kFleetTau;
    o.theta_divisor = kThetaDivisor;
    o.batched = true;
    o.num_shards = kFleetShards;
    if (adaptive_) {
      o.selection.enabled = true;
      o.selection.ladder = models_;
      o.selection.prescale = true;
      // A per-round budget below the tenant count makes deadline shed fire.
      o.admission.round_budget = num_tenants_ * 4 / 5;
      o.faults.crash_rate = 0.005;
      o.faults.actuation_delay_rate = 0.005;
      o.faults.spike_rate = 0.005;
      o.faults.forecaster_timeout_rate = 0.01;
      o.faults.forecaster_timeout_attempts = 3;
      o.faults.seed = rpas::DeriveSeed(config_.seed, 0x40);
    } else {
      const size_t budget = ShardBudget();
      o.shard_registry_factory = [this, log, budget] {
        auto registry = MakeRegistry(log, budget);
        return registry.ok() ? std::move(registry).value() : nullptr;
      };
    }
    return o;
  }

  void CheckInvariants(const serve::FleetResult& r,
                       std::vector<std::string>* v) const {
    bool rounds_ok = r.tenants.size() == num_tenants_;
    bool causes_ok = true;
    uint64_t shed = 0;
    uint64_t throttled = 0;
    uint64_t activations = 0;
    uint64_t rollbacks = 0;
    for (const serve::TenantSummary& t : r.tenants) {
      rounds_ok = rounds_ok && t.rounds == r.rounds &&
                  t.rounds == t.fresh_rounds + t.stale_rounds +
                                  t.fallback_rounds;
      causes_ok = causes_ok &&
                  t.fallback_rounds == t.shed_rounds + t.throttled_rounds +
                                           t.fault_rounds + t.error_rounds;
      shed += t.shed_rounds;
      throttled += t.throttled_rounds;
      activations += t.prescale.activations;
      rollbacks += t.prescale.rollbacks;
    }
    Expect(rounds_ok, "fleet: per-tenant rounds = fresh + stale + fallback",
           v);
    Expect(causes_ok, "fleet: every fallback round has exactly one cause", v);
    Expect(r.requests_submitted ==
               r.requests_admitted + r.requests_throttled + r.requests_shed,
           "fleet: submitted = admitted + throttled + shed", v);
    Expect(shed == r.requests_shed && throttled == r.requests_throttled,
           "fleet: tenant shed/throttled sums match the fleet totals", v);
    Expect(r.cache.loads == r.cache.misses, "fleet: cache.loads == misses", v);
    Expect(r.stream_points + r.stream_dropped == num_tenants_ * num_steps_,
           "fleet: stream_points + stream_dropped = pushed", v);
    Expect(activations == rollbacks &&
               r.prescale_activations == r.prescale_rollbacks,
           "fleet: prescale activations == rollbacks", v);
  }

  /// Times the layers RunFleet constructs internally by replaying their
  /// public calls: RobustQuantileAllocator over the forecasts the engine
  /// served, and simdb::Cluster over a trace of the fleet's profile. Both
  /// are scaled from the replayed sample to the pass's call counts.
  ReplayTimes Replay(const SpanLog& log, const LayerCounts& counts) const {
    ReplayTimes times;
    const std::vector<ts::QuantileForecast> served = log.captured();
    if (!served.empty()) {
      const core::RobustQuantileAllocator allocator(kFleetTau);
      rpas::Stopwatch watch;
      for (const ts::QuantileForecast& fc : served) {
        core::ScalingConfig config;
        config.theta = std::max(fc.ValueAtIndex(0, 0) / kThetaDivisor, 1e-9);
        if (!allocator.Allocate(fc, config).ok()) {
          break;  // served forecasts were allocated once already
        }
      }
      const double per_call =
          watch.ElapsedSeconds() / static_cast<double>(served.size());
      times.allocate_calls = counts.allocate_calls;
      times.allocate_busy_s =
          per_call * static_cast<double>(counts.allocate_calls);
    }
    const size_t sample = std::min<size_t>(counts.simdb_steps, 20000);
    const rpas::trace::SyntheticTraceGenerator generator(
        Profile(), rpas::DeriveSeed(config_.seed, 0x50));
    const ts::TimeSeries trace = generator.GenerateCpu(sample);
    core::ScalingConfig config;
    config.theta = trace.Mean() / kThetaDivisor;
    simdb::Cluster::Options cluster_options;
    cluster_options.node_capacity = config.theta;
    simdb::Cluster cluster(cluster_options);
    rpas::Stopwatch watch;
    for (size_t i = 0; i < sample; ++i) {
      cluster.Step(core::RequiredNodes(trace.values[i], config),
                   trace.values[i]);
    }
    times.simdb_calls = counts.simdb_steps;
    const double per_step =
        sample > 0 ? watch.ElapsedSeconds() / static_cast<double>(sample) : 0.0;
    times.simdb_busy_s = per_step * static_cast<double>(counts.simdb_steps);
    return times;
  }

  static uint64_t FingerprintOf(const serve::FleetResult& r) {
    Fingerprint fp;
    for (const serve::TenantSummary& t : r.tenants) {
      fp.Add(t.tenant_id);
      fp.Add(t.model.version);
      fp.Add(t.under_provision_rate);
      fp.Add(t.over_provision_rate);
      fp.Add(t.mean_utilization);
      fp.Add(t.slo_violation_rate);
      fp.Add(t.rounds);
      fp.Add(t.fresh_rounds);
      fp.Add(t.stale_rounds);
      fp.Add(t.fallback_rounds);
      fp.Add(t.shed_rounds);
      fp.Add(t.throttled_rounds);
      fp.Add(t.fault_rounds);
      fp.Add(t.error_rounds);
      fp.Add(t.faulted_steps);
      fp.Add(t.stream_points);
      fp.Add(t.stream_dropped);
      fp.Add(t.mean_staleness_steps);
      fp.Add(t.max_staleness_steps);
      fp.Add(t.final_tier);
      fp.Add(t.pattern);
      fp.Add(t.selector.switches);
      fp.Add(t.selector.promotions);
      fp.Add(t.prescale.activations);
      fp.Add(t.prescale.floor_raised_steps);
    }
    fp.Add(r.rounds);
    fp.Add(r.requests_submitted);
    fp.Add(r.requests_admitted);
    fp.Add(r.requests_throttled);
    fp.Add(r.requests_shed);
    fp.Add(r.cache.hits);
    fp.Add(r.cache.misses);
    fp.Add(r.cache.evictions);
    fp.Add(r.cache.loads);
    fp.Add(r.cache.resident_bytes);
    fp.Add(r.cache.mapped_bytes);
    return fp.value();
  }

  WorkloadConfig config_;
  bool adaptive_;
  size_t num_tenants_ = 0;
  size_t num_steps_ = 0;
  std::vector<serve::ModelId> models_;
  std::vector<std::string> paths_;
  size_t total_bytes_ = 0;
  uint64_t setup_fingerprint_ = 0;
};

}  // namespace

void LayerCounts::Add(const LayerCounts& o) {
  fallback_rounds += o.fallback_rounds;
  stale_rounds += o.stale_rounds;
  retried_rounds += o.retried_rounds;
  error_rounds += o.error_rounds;
  submitted += o.submitted;
  admitted += o.admitted;
  throttled += o.throttled;
  shed += o.shed;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  resident_bytes += o.resident_bytes;
  mapped_bytes += o.mapped_bytes;
  tier_switches += o.tier_switches;
  tier_promotions += o.tier_promotions;
  tier_demotions += o.tier_demotions;
  prescale_activations += o.prescale_activations;
  prescale_floor_raised_steps += o.prescale_floor_raised_steps;
  points_pushed += o.points_pushed;
  points_dropped += o.points_dropped;
  points_consumed += o.points_consumed;
  fine_tunes += o.fine_tunes;
  resyncs += o.resyncs;
  full_retrains += o.full_retrains;
  allocate_calls += o.allocate_calls;
  simdb_steps += o.simdb_steps;
  checkpoint_restores += o.checkpoint_restores;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "loop_deepar", "loop_stream", "fleet_thrash", "fleet_adaptive"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "loop_deepar" || name == "loop_stream") {
    return std::make_unique<LoopWorkload>(config, name == "loop_stream");
  }
  if (name == "fleet_thrash" || name == "fleet_adaptive") {
    return std::make_unique<FleetWorkload>(config, name == "fleet_adaptive");
  }
  return nullptr;
}

}  // namespace perfbench
