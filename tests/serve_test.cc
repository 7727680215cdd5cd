#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "forecast/deepar.h"
#include "forecast/mlp.h"
#include "forecast/tft.h"
#include "nn/qcheckpoint.h"
#include "serve/admission.h"
#include "serve/batching.h"
#include "serve/fleet.h"
#include "serve/registry.h"
#include "ts/metrics.h"

namespace rpas::serve {
namespace {

using forecast::DeepArForecaster;
using forecast::ForecastInput;
using forecast::MlpForecaster;
using forecast::TftForecaster;

constexpr size_t kContext = 12;
constexpr size_t kHorizon = 6;

ts::TimeSeries SineSeries(size_t num_steps, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 10.0;
  s.name = "sine";
  Rng rng(seed);
  for (size_t i = 0; i < num_steps; ++i) {
    const double phase =
        2.0 * M_PI * static_cast<double>(i % 144) / 144.0;
    s.values.push_back(10.0 + 4.0 * std::sin(phase) + 0.3 * rng.Normal());
  }
  return s;
}

MlpForecaster::Options SmallMlpOptions() {
  MlpForecaster::Options options;
  options.context_length = kContext;
  options.horizon = kHorizon;
  options.hidden_dim = 8;
  options.num_hidden_layers = 1;
  options.batch_size = 16;
  options.train.steps = 40;
  options.train.lr = 2e-3;
  return options;
}

DeepArForecaster::Options SmallDeepArOptions() {
  DeepArForecaster::Options options;
  options.context_length = kContext;
  options.horizon = kHorizon;
  options.hidden_dim = 8;
  options.batch_size = 8;
  options.num_samples = 16;
  options.train.steps = 30;
  options.train.lr = 5e-3;
  return options;
}

TftForecaster::Options SmallTftOptions() {
  TftForecaster::Options options;
  options.context_length = kContext;
  options.horizon = kHorizon;
  options.d_model = 4;
  options.batch_size = 2;
  options.train.steps = 10;
  return options;
}

/// Checkpoints of one tiny trained MLP and one tiny trained DeepAR,
/// written once per test binary (training dominates the suite's runtime).
struct TrainedCheckpoints {
  std::string mlp_path;
  std::string deepar_path;
};

/// ctest runs this binary's cases as separate concurrent processes that all
/// lazily rebuild these shared /tmp checkpoints. SaveCheckpoint commits by
/// atomic rename, so a sibling never reads a half-written file, and
/// training is deterministic, so every process writes identical bytes.
const TrainedCheckpoints& Checkpoints() {
  static const TrainedCheckpoints* checkpoints = [] {
    auto* c = new TrainedCheckpoints;
    c->mlp_path = "/tmp/rpas_serve_test_mlp.ckpt";
    c->deepar_path = "/tmp/rpas_serve_test_deepar.ckpt";
    const ts::TimeSeries train = SineSeries(400, 7);
    MlpForecaster mlp(SmallMlpOptions());
    RPAS_CHECK(mlp.Fit(train).ok());
    RPAS_CHECK(mlp.SaveCheckpoint(c->mlp_path).ok());
    DeepArForecaster deepar(SmallDeepArOptions());
    RPAS_CHECK(deepar.Fit(train).ok());
    RPAS_CHECK(deepar.SaveCheckpoint(c->deepar_path).ok());
    return c;
  }();
  return *checkpoints;
}

ForecasterFactory MlpFactory() {
  return [] { return std::make_unique<MlpForecaster>(SmallMlpOptions()); };
}

ForecasterFactory DeepArFactory() {
  return [] {
    return std::make_unique<DeepArForecaster>(SmallDeepArOptions());
  };
}

/// Registry with "mlp@v1" and "deepar@v1" served from the shared fp64
/// checkpoints. Mapped bytes are charged at full price (weight 1.0), so
/// every byte budget below is in file bytes.
struct TestRegistry {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<ModelRegistry> registry;
};

TestRegistry MakeRegistry(size_t cache_budget_bytes) {
  TestRegistry r;
  r.metrics = std::make_unique<obs::MetricsRegistry>(true);
  ModelRegistry::Options options;
  options.cache_budget_bytes = cache_budget_bytes;
  options.mapped_byte_weight = 1.0;
  options.metrics = r.metrics.get();
  r.registry = std::make_unique<ModelRegistry>(options);
  RPAS_CHECK(r.registry
                 ->RegisterVersion({"mlp", 1}, Checkpoints().mlp_path,
                                   MlpFactory())
                 .ok());
  RPAS_CHECK(r.registry
                 ->RegisterVersion({"deepar", 1}, Checkpoints().deepar_path,
                                   DeepArFactory())
                 .ok());
  return r;
}

ForecastInput MakeInput(uint64_t variant) {
  const ts::TimeSeries s = SineSeries(kContext + 40, 100 + variant);
  ForecastInput input;
  input.start_index = s.size() - kContext;
  input.step_minutes = s.step_minutes;
  input.context.assign(s.values.end() - static_cast<long>(kContext),
                       s.values.end());
  return input;
}

void ExpectForecastsBitIdentical(const ts::QuantileForecast& a,
                                 const ts::QuantileForecast& b) {
  ASSERT_EQ(a.Horizon(), b.Horizon());
  ASSERT_EQ(a.Levels(), b.Levels());
  for (size_t h = 0; h < a.Horizon(); ++h) {
    for (size_t q = 0; q < a.Levels().size(); ++q) {
      EXPECT_EQ(a.ValueAtIndex(h, q), b.ValueAtIndex(h, q))
          << "mismatch at step " << h << " level " << q;
    }
  }
}

// --------------------------------------------------------------- Registry ---

TEST(ModelRegistryTest, AcquireLoadsAndServesCheckpoint) {
  TestRegistry r = MakeRegistry(1 << 20);
  auto model = r.registry->Acquire({"mlp", 1});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto forecast = (*model)->PredictSeeded(MakeInput(0), 1);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast->Horizon(), kHorizon);

  // The checkpoint round-trip serves the same function as the fitted
  // model: an identically configured instance loaded from disk predicts
  // bit-identically.
  MlpForecaster fresh(SmallMlpOptions());
  ASSERT_TRUE(fresh.LoadCheckpoint(Checkpoints().mlp_path).ok());
  auto direct = fresh.PredictSeeded(MakeInput(0), 1);
  ASSERT_TRUE(direct.ok());
  ExpectForecastsBitIdentical(*forecast, *direct);
}

TEST(ModelRegistryTest, UnknownVersionIsNotFound) {
  TestRegistry r = MakeRegistry(1 << 20);
  EXPECT_EQ(r.registry->Acquire({"mlp", 99}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(r.registry->Acquire({"nope", 1}).status().code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, DuplicateAndMissingRegistrationsRejected) {
  TestRegistry r = MakeRegistry(1 << 20);
  EXPECT_EQ(r.registry
                ->RegisterVersion({"mlp", 1}, Checkpoints().mlp_path,
                                  MlpFactory())
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.registry
                ->RegisterVersion({"mlp", 2}, "/tmp/does_not_exist.ckpt",
                                  MlpFactory())
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, LatestReturnsHighestVersion) {
  TestRegistry r = MakeRegistry(1 << 20);
  ASSERT_TRUE(r.registry
                  ->RegisterVersion({"mlp", 7}, Checkpoints().mlp_path,
                                    MlpFactory())
                  .ok());
  auto latest = r.registry->Latest("mlp");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version, 7u);
  EXPECT_EQ(r.registry->Latest("absent").status().code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, LruRespectsByteBudgetAndCountsEvictions) {
  // Budget fits exactly one model: every alternation evicts.
  TestRegistry r = MakeRegistry(1 << 20);
  ASSERT_TRUE(r.registry->Acquire({"mlp", 1}).ok());
  const size_t one_model_bytes = r.registry->GetCacheStats().resident_bytes;
  ASSERT_GT(one_model_bytes, 0u);

  TestRegistry tight = MakeRegistry(one_model_bytes);
  ASSERT_TRUE(tight.registry->Acquire({"mlp", 1}).ok());     // miss
  ASSERT_TRUE(tight.registry->Acquire({"mlp", 1}).ok());     // hit
  ASSERT_TRUE(tight.registry->Acquire({"deepar", 1}).ok());  // miss + evict
  ASSERT_TRUE(tight.registry->Acquire({"mlp", 1}).ok());     // miss + evict

  const ModelRegistry::CacheStats stats = tight.registry->GetCacheStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.loads, 3);
  EXPECT_GE(stats.evictions, 2);
  EXPECT_LE(stats.resident_bytes, one_model_bytes);
  EXPECT_EQ(stats.resident_models, 1u);

  // The stats agree exactly with the injected metrics registry.
  EXPECT_EQ(tight.metrics->GetCounter("serve.registry.hits")->value(),
            stats.hits);
  EXPECT_EQ(tight.metrics->GetCounter("serve.registry.misses")->value(),
            stats.misses);
  EXPECT_EQ(tight.metrics->GetCounter("serve.registry.evictions")->value(),
            stats.evictions);
  EXPECT_EQ(tight.metrics->GetCounter("serve.registry.loads")->value(),
            stats.loads);
}

TEST(ModelRegistryTest, EvictedModelStaysAliveForHolders) {
  TestRegistry r = MakeRegistry(1 << 20);
  ASSERT_TRUE(r.registry->Acquire({"mlp", 1}).ok());
  const size_t one_model_bytes = r.registry->GetCacheStats().resident_bytes;

  TestRegistry tight = MakeRegistry(one_model_bytes);
  auto held = tight.registry->Acquire({"mlp", 1});
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(tight.registry->Acquire({"deepar", 1}).ok());  // evicts mlp
  // The holder's reference still serves.
  auto forecast = (*held)->PredictSeeded(MakeInput(1), 3);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
}

TEST(ModelRegistryTest, EvictionPrefersUnpinnedVictimsAndReportsPinned) {
  // Regression: eviction used to pick the plain LRU victim even when that
  // model was pinned by in-flight requests, which dropped the registry's
  // reference without freeing a byte while an unpinned (truly freeable)
  // model stayed resident. Budget fits exactly two MLP versions; mlp@1 is
  // the LRU-oldest resident but pinned by `held`, so loading mlp@3 must
  // evict the unpinned mlp@2 instead.
  TestRegistry sized = MakeRegistry(1 << 20);
  ASSERT_TRUE(sized.registry->Acquire({"mlp", 1}).ok());
  const size_t mlp_bytes = sized.registry->GetCacheStats().resident_bytes;
  ASSERT_GT(mlp_bytes, 0u);

  TestRegistry r = MakeRegistry(2 * mlp_bytes);
  for (uint64_t version : {2, 3}) {
    ASSERT_TRUE(r.registry
                    ->RegisterVersion({"mlp", version}, Checkpoints().mlp_path,
                                      MlpFactory())
                    .ok());
  }
  auto held = r.registry->Acquire({"mlp", 1});
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(r.registry->Acquire({"mlp", 2}).ok());  // resident, unpinned

  ModelRegistry::CacheStats stats = r.registry->GetCacheStats();
  EXPECT_EQ(stats.resident_models, 2u);
  EXPECT_EQ(stats.pinned_models, 1u);
  EXPECT_EQ(stats.pinned_bytes, mlp_bytes);

  auto also_held = r.registry->Acquire({"mlp", 3});  // over budget: evict one
  ASSERT_TRUE(also_held.ok());
  stats = r.registry->GetCacheStats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_models, 2u);
  EXPECT_EQ(stats.pinned_models, 2u);
  EXPECT_EQ(stats.pinned_bytes, 2 * mlp_bytes);
  // The pinned mlp@1 survived the eviction pass: acquiring it again is a
  // warm-cache hit (pre-fix it was the victim and this was a miss).
  const int64_t hits_before = stats.hits;
  ASSERT_TRUE(r.registry->Acquire({"mlp", 1}).ok());
  EXPECT_EQ(r.registry->GetCacheStats().hits, hits_before + 1);
  // The injected metrics registry tracks the pinned footprint.
  EXPECT_EQ(r.metrics->GetGauge("serve.registry.pinned_bytes")->value(),
            static_cast<double>(2 * mlp_bytes));
}

TEST(ModelRegistryTest, OversizedModelServedButNotCached) {
  TestRegistry tiny = MakeRegistry(/*cache_budget_bytes=*/1);
  auto model = tiny.registry->Acquire({"mlp", 1});
  ASSERT_TRUE(model.ok());
  const ModelRegistry::CacheStats stats = tiny.registry->GetCacheStats();
  EXPECT_EQ(stats.resident_models, 0u);
  EXPECT_LE(stats.resident_bytes, 1u);
  auto forecast = (*model)->PredictSeeded(MakeInput(2), 5);
  EXPECT_TRUE(forecast.ok());
}

// ------------------------------------------------------------ PredictSeeded ---

TEST(PredictSeededTest, DeepArIsPureFunctionOfSeed) {
  DeepArForecaster model(SmallDeepArOptions());
  ASSERT_TRUE(model.LoadCheckpoint(Checkpoints().deepar_path).ok());
  const ForecastInput input = MakeInput(3);
  auto a = model.PredictSeeded(input, 17);
  auto b = model.PredictSeeded(input, 17);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectForecastsBitIdentical(*a, *b);
  // A different seed samples different trajectories.
  auto c = model.PredictSeeded(input, 18);
  ASSERT_TRUE(c.ok());
  bool any_diff = false;
  for (size_t h = 0; h < a->Horizon() && !any_diff; ++h) {
    for (size_t q = 0; q < a->Levels().size() && !any_diff; ++q) {
      any_diff = a->ValueAtIndex(h, q) != c->ValueAtIndex(h, q);
    }
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------------- BatchEngine ---

std::vector<ForecastRequest> MixedSlate(size_t n) {
  std::vector<ForecastRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    ForecastRequest request;
    request.tenant_id = i;
    request.model =
        (i % 3 == 0) ? ModelId{"deepar", 1} : ModelId{"mlp", 1};
    request.input = MakeInput(i);
    request.seed = 1000 + i;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<ForecastResponse> RunEngine(bool batched, int threads,
                                        const std::vector<ForecastRequest>& slate) {
  SetRpasThreads(threads);
  TestRegistry r = MakeRegistry(1 << 20);
  BatchEngine::Options options;
  options.batch_across_tenants = batched;
  options.metrics = r.metrics.get();
  BatchEngine engine(r.registry.get(), options);
  std::vector<ForecastResponse> responses = engine.Execute(slate);
  SetRpasThreads(0);
  return responses;
}

TEST(BatchEngineTest, BatchedMatchesUnbatchedBitIdenticallyAcrossThreads) {
  const std::vector<ForecastRequest> slate = MixedSlate(9);
  const std::vector<ForecastResponse> unbatched_1 =
      RunEngine(/*batched=*/false, /*threads=*/1, slate);
  const std::vector<ForecastResponse> batched_1 =
      RunEngine(/*batched=*/true, /*threads=*/1, slate);
  const std::vector<ForecastResponse> batched_8 =
      RunEngine(/*batched=*/true, /*threads=*/8, slate);
  ASSERT_EQ(unbatched_1.size(), slate.size());
  for (size_t i = 0; i < slate.size(); ++i) {
    ASSERT_TRUE(unbatched_1[i].ok());
    ASSERT_TRUE(batched_1[i].ok());
    ASSERT_TRUE(batched_8[i].ok());
    ExpectForecastsBitIdentical(unbatched_1[i].forecast,
                                batched_1[i].forecast);
    ExpectForecastsBitIdentical(batched_1[i].forecast, batched_8[i].forecast);
  }
}

TEST(BatchEngineTest, ResponseIndependentOfBatchComposition) {
  // The same (model, input, seed) request must get a bit-identical answer
  // whether it is served alone or embedded in a larger mixed slate.
  const std::vector<ForecastRequest> big = MixedSlate(9);
  const std::vector<ForecastResponse> big_responses =
      RunEngine(/*batched=*/true, /*threads=*/2, big);
  for (size_t i : {0u, 4u, 8u}) {
    const std::vector<ForecastRequest> alone{big[i]};
    const std::vector<ForecastResponse> alone_response =
        RunEngine(/*batched=*/true, /*threads=*/2, alone);
    ASSERT_TRUE(alone_response[0].ok());
    ExpectForecastsBitIdentical(alone_response[0].forecast,
                                big_responses[i].forecast);
  }
}

TEST(BatchEngineTest, PerRequestErrorsDoNotPoisonTheBatch) {
  TestRegistry r = MakeRegistry(1 << 20);
  BatchEngine engine(r.registry.get(), {true, r.metrics.get()});
  std::vector<ForecastRequest> slate = MixedSlate(3);
  slate[1].model = ModelId{"unknown", 1};       // unregistered version
  slate[2].input.context.resize(kContext - 2);  // malformed context
  const std::vector<ForecastResponse> responses = engine.Execute(slate);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(responses[2].ok());
  EXPECT_EQ(r.metrics->GetCounter("serve.engine.request_errors")->value(), 2);
}

// --------------------------------------------------------------- Admission ---

TEST(AdmissionTest, TokenBucketThrottlesAndRecovers) {
  AdmissionController::Options options;
  options.bucket_capacity = 1.0;
  options.refill_per_round = 0.25;
  options.cost_per_request = 1.0;
  auto metrics = std::make_unique<obs::MetricsRegistry>(true);
  options.metrics = metrics.get();
  AdmissionController admission(options, 1);

  admission.BeginRound();
  EXPECT_EQ(admission.AdmitRound({0})[0], AdmissionVerdict::kAdmitted);
  // Bucket empty; 0.25/round refill needs three more rounds.
  for (int round = 0; round < 3; ++round) {
    admission.BeginRound();
    EXPECT_EQ(admission.AdmitRound({0})[0], AdmissionVerdict::kThrottled);
  }
  admission.BeginRound();
  EXPECT_EQ(admission.AdmitRound({0})[0], AdmissionVerdict::kAdmitted);
  EXPECT_EQ(metrics->GetCounter("serve.admission.admitted")->value(), 2);
  EXPECT_EQ(metrics->GetCounter("serve.admission.throttled")->value(), 3);
}

TEST(AdmissionTest, DeadlineShedRotatesFairly) {
  AdmissionController::Options options;
  options.bucket_capacity = 100.0;
  options.refill_per_round = 100.0;
  options.round_budget = 2;
  AdmissionController admission(options, 4);

  std::vector<int> admitted_count(4, 0);
  const std::vector<uint64_t> all{0, 1, 2, 3};
  for (int round = 0; round < 8; ++round) {
    admission.BeginRound();
    const std::vector<AdmissionVerdict> verdicts = admission.AdmitRound(all);
    int admitted = 0;
    for (size_t t = 0; t < all.size(); ++t) {
      if (verdicts[t] == AdmissionVerdict::kAdmitted) {
        ++admitted_count[t];
        ++admitted;
      } else {
        EXPECT_EQ(verdicts[t], AdmissionVerdict::kDeadlineShed);
      }
    }
    EXPECT_EQ(admitted, 2);
  }
  // Rotation shares the budget evenly: 8 rounds x 2 slots / 4 tenants.
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(admitted_count[t], 4) << "tenant " << t;
  }
}

TEST(AdmissionTest, UnboundedBudgetAdmitsAllWithTokens) {
  AdmissionController admission({}, 8);
  admission.BeginRound();
  const std::vector<AdmissionVerdict> verdicts =
      admission.AdmitRound({0, 1, 2, 3, 4, 5, 6, 7});
  for (AdmissionVerdict v : verdicts) {
    EXPECT_EQ(v, AdmissionVerdict::kAdmitted);
  }
}

// ------------------------------------------------------------------- Fleet ---

FleetOptions SmallFleetOptions() {
  FleetOptions options;
  options.num_tenants = 4;
  options.num_steps = 24;
  options.history_steps = 24;
  options.replan_every = 6;
  options.seed = 99;
  options.collect_decisions = true;
  return options;
}

TEST(FleetTest, ServesEveryTenantEveryRound) {
  TestRegistry r = MakeRegistry(1 << 20);
  FleetOptions options = SmallFleetOptions();
  options.metrics = r.metrics.get();
  auto result = RunFleet(r.registry.get(),
                         {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rounds, 4u);
  ASSERT_EQ(result->tenants.size(), 4u);
  for (const TenantSummary& tenant : result->tenants) {
    EXPECT_EQ(tenant.rounds, 4u);
    // Every round is served by exactly one disposition.
    EXPECT_EQ(tenant.rounds, tenant.fresh_rounds + tenant.stale_rounds +
                                 tenant.fallback_rounds);
    EXPECT_GE(tenant.mean_utilization, 0.0);
  }
  // One decision record per tenant per step.
  EXPECT_EQ(result->decisions.size(), 4u * 24u);
}

TEST(FleetTest, ResultIdenticalAcrossBatchingModeAndThreadCount) {
  auto run = [](bool batched, int threads) {
    SetRpasThreads(threads);
    TestRegistry r = MakeRegistry(1 << 20);
    FleetOptions options = SmallFleetOptions();
    options.batched = batched;
    options.metrics = r.metrics.get();
    auto result = RunFleet(r.registry.get(),
                           {{"mlp", 1}, {"deepar", 1}}, options);
    SetRpasThreads(0);
    RPAS_CHECK(result.ok());
    return std::move(*result);
  };
  const FleetResult batched_1 = run(true, 1);
  const FleetResult batched_8 = run(true, 8);
  const FleetResult unbatched = run(false, 1);
  for (const FleetResult* other : {&batched_8, &unbatched}) {
    ASSERT_EQ(batched_1.tenants.size(), other->tenants.size());
    for (size_t t = 0; t < batched_1.tenants.size(); ++t) {
      EXPECT_EQ(batched_1.tenants[t].under_provision_rate,
                other->tenants[t].under_provision_rate);
      EXPECT_EQ(batched_1.tenants[t].over_provision_rate,
                other->tenants[t].over_provision_rate);
      EXPECT_EQ(batched_1.tenants[t].mean_utilization,
                other->tenants[t].mean_utilization);
      EXPECT_EQ(batched_1.tenants[t].fresh_rounds,
                other->tenants[t].fresh_rounds);
    }
    ASSERT_EQ(batched_1.decisions.size(), other->decisions.size());
    for (size_t i = 0; i < batched_1.decisions.size(); ++i) {
      EXPECT_EQ(batched_1.decisions[i].target_nodes,
                other->decisions[i].target_nodes);
      EXPECT_EQ(batched_1.decisions[i].workload, other->decisions[i].workload);
      EXPECT_EQ(batched_1.decisions[i].utilization,
                other->decisions[i].utilization);
    }
  }
}

TEST(FleetTest, ShardAssignmentIsStableAndSpreadsTenants) {
  // Pure function of the id: one shard maps everything to 0, and repeated
  // calls agree (a tenant's shard — and so the composition of every
  // per-shard cache — never changes across runs).
  std::vector<size_t> counts(4, 0);
  for (uint64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(ShardOfTenant(t, 1), 0u);
    const size_t shard = ShardOfTenant(t, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, ShardOfTenant(t, 4));
    ++counts[shard];
  }
  // The SplitMix64 finalizer spreads consecutive ids: no empty shards.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(counts[s], 0u) << "shard " << s;
  }
}

void ExpectSameFleetResult(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_admitted, b.requests_admitted);
  EXPECT_EQ(a.requests_throttled, b.requests_throttled);
  EXPECT_EQ(a.requests_shed, b.requests_shed);
  EXPECT_EQ(a.mean_under_provision_rate, b.mean_under_provision_rate);
  EXPECT_EQ(a.mean_over_provision_rate, b.mean_over_provision_rate);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.mean_slo_violation_rate, b.mean_slo_violation_rate);
  EXPECT_EQ(a.stream_points, b.stream_points);
  EXPECT_EQ(a.stream_dropped, b.stream_dropped);
  EXPECT_EQ(a.mean_staleness_steps, b.mean_staleness_steps);
  EXPECT_EQ(a.max_staleness_steps, b.max_staleness_steps);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "tenant " << t);
    EXPECT_EQ(a.tenants[t].tenant_id, b.tenants[t].tenant_id);
    EXPECT_EQ(a.tenants[t].under_provision_rate,
              b.tenants[t].under_provision_rate);
    EXPECT_EQ(a.tenants[t].over_provision_rate,
              b.tenants[t].over_provision_rate);
    EXPECT_EQ(a.tenants[t].mean_utilization, b.tenants[t].mean_utilization);
    EXPECT_EQ(a.tenants[t].slo_violation_rate,
              b.tenants[t].slo_violation_rate);
    EXPECT_EQ(a.tenants[t].rounds, b.tenants[t].rounds);
    EXPECT_EQ(a.tenants[t].fresh_rounds, b.tenants[t].fresh_rounds);
    EXPECT_EQ(a.tenants[t].stale_rounds, b.tenants[t].stale_rounds);
    EXPECT_EQ(a.tenants[t].fallback_rounds, b.tenants[t].fallback_rounds);
    EXPECT_EQ(a.tenants[t].shed_rounds, b.tenants[t].shed_rounds);
    EXPECT_EQ(a.tenants[t].throttled_rounds, b.tenants[t].throttled_rounds);
    EXPECT_EQ(a.tenants[t].fault_rounds, b.tenants[t].fault_rounds);
    EXPECT_EQ(a.tenants[t].error_rounds, b.tenants[t].error_rounds);
    EXPECT_EQ(a.tenants[t].faulted_steps, b.tenants[t].faulted_steps);
    EXPECT_EQ(a.tenants[t].stream_points, b.tenants[t].stream_points);
    EXPECT_EQ(a.tenants[t].stream_dropped, b.tenants[t].stream_dropped);
    EXPECT_EQ(a.tenants[t].mean_staleness_steps,
              b.tenants[t].mean_staleness_steps);
    EXPECT_EQ(a.tenants[t].max_staleness_steps,
              b.tenants[t].max_staleness_steps);
  }
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].target_nodes, b.decisions[i].target_nodes);
    EXPECT_EQ(a.decisions[i].workload, b.decisions[i].workload);
    EXPECT_EQ(a.decisions[i].utilization, b.decisions[i].utilization);
  }
}

TEST(FleetTest, ResultIdenticalAcrossShardAndThreadCounts) {
  // Sharding changes scheduling, never results: the deadline shed runs
  // globally over the merged per-shard candidate lists and token buckets
  // are per-tenant, so every (num_shards, threads, registry topology)
  // combination must reproduce the unsharded serial run bit-for-bit. A
  // finite round budget forces sheds every round so the cross-shard
  // admission merge is actually exercised.
  auto run = [](size_t shards, int threads, bool sharded_registries) {
    SetRpasThreads(threads);
    TestRegistry r = MakeRegistry(1 << 20);
    FleetOptions options = SmallFleetOptions();
    options.num_tenants = 6;
    options.admission.round_budget = 4;  // 6 tenants want in: 2 shed
    options.metrics = r.metrics.get();
    options.num_shards = shards;
    if (sharded_registries) {
      obs::MetricsRegistry* metrics = r.metrics.get();
      options.shard_registry_factory = [metrics] {
        ModelRegistry::Options shard_options;
        shard_options.cache_budget_bytes = 1 << 20;
        shard_options.metrics = metrics;
        auto shard = std::make_unique<ModelRegistry>(shard_options);
        RPAS_CHECK(shard
                       ->RegisterVersion({"mlp", 1}, Checkpoints().mlp_path,
                                         MlpFactory())
                       .ok());
        RPAS_CHECK(shard
                       ->RegisterVersion({"deepar", 1},
                                         Checkpoints().deepar_path,
                                         DeepArFactory())
                       .ok());
        return shard;
      };
    }
    auto result = RunFleet(r.registry.get(),
                           {{"mlp", 1}, {"deepar", 1}}, options);
    SetRpasThreads(0);
    RPAS_CHECK(result.ok());
    return std::move(*result);
  };
  const FleetResult baseline = run(1, 1, false);
  EXPECT_GT(baseline.requests_shed, 0u);

  struct Case {
    size_t shards;
    int threads;
    bool sharded_registries;
  };
  for (const Case c : {Case{2, 1, false}, Case{3, 8, false},
                       Case{2, 8, true}, Case{3, 2, true},
                       Case{6, 4, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << c.shards << " threads=" << c.threads
                 << " sharded_registries=" << c.sharded_registries);
    ExpectSameFleetResult(baseline,
                          run(c.shards, c.threads, c.sharded_registries));
  }
}

TEST(FleetTest, DeadlineShedTenantsFallBackAndAreCounted) {
  TestRegistry r = MakeRegistry(1 << 20);
  FleetOptions options = SmallFleetOptions();
  options.metrics = r.metrics.get();
  options.admission.round_budget = 2;  // 4 tenants want in: 2 shed per round
  auto result = RunFleet(r.registry.get(),
                         {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests_shed, result->rounds * 2);
  size_t total_shed = 0;
  for (const TenantSummary& tenant : result->tenants) {
    total_shed += tenant.shed_rounds;
    // Shed rounds were served by the fallback, never dropped.
    EXPECT_EQ(tenant.rounds, tenant.fresh_rounds + tenant.stale_rounds +
                                 tenant.fallback_rounds);
    EXPECT_GE(tenant.fallback_rounds, tenant.shed_rounds);
  }
  EXPECT_EQ(total_shed, result->requests_shed);
  EXPECT_EQ(r.metrics->GetCounter("serve.admission.shed")->value(),
            static_cast<int64_t>(result->requests_shed));
}

TEST(FleetTest, InjectedFaultsDegradeGracefully) {
  TestRegistry r = MakeRegistry(1 << 20);
  FleetOptions options = SmallFleetOptions();
  options.num_steps = 36;
  options.metrics = r.metrics.get();
  options.faults = simdb::FaultPlan::Uniform(0.3, 77);
  auto result = RunFleet(r.registry.get(),
                         {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  size_t fault_rounds = 0;
  size_t faulted_steps = 0;
  for (const TenantSummary& tenant : result->tenants) {
    fault_rounds += tenant.fault_rounds + tenant.stale_rounds;
    faulted_steps += tenant.faulted_steps;
    EXPECT_EQ(tenant.rounds, tenant.fresh_rounds + tenant.stale_rounds +
                                 tenant.fallback_rounds);
  }
  // At a 30% per-type rate some rounds and steps must be affected.
  EXPECT_GT(fault_rounds + faulted_steps, 0u);
}

TEST(FleetTest, StreamIngestAndStalenessAccounted) {
  // Every realized workload observation flows through the tenant's ingest
  // ring and is drained once per round: with the default drop-free ring
  // (2 * replan_every) every tenant streams exactly num_steps points.
  TestRegistry r = MakeRegistry(1 << 20);
  FleetOptions options = SmallFleetOptions();
  options.metrics = r.metrics.get();
  auto result = RunFleet(r.registry.get(),
                         {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const TenantSummary& tenant : result->tenants) {
    EXPECT_EQ(tenant.stream_points, options.num_steps);
    EXPECT_EQ(tenant.stream_dropped, 0u);
    // Every round got a fresh plan, so staleness resets each round and is
    // bounded by the round length.
    EXPECT_EQ(tenant.rounds, tenant.fresh_rounds);
    EXPECT_LT(tenant.max_staleness_steps, options.replan_every);
  }
  EXPECT_EQ(result->stream_points,
            static_cast<uint64_t>(options.num_tenants * options.num_steps));
  EXPECT_EQ(result->stream_dropped, 0u);
  // Drop-free rounds of length L have per-step staleness 0..L-1.
  EXPECT_EQ(result->mean_staleness_steps,
            static_cast<double>(options.replan_every - 1) / 2.0);
  // The staleness histogram saw one observation per tenant-step.
  EXPECT_EQ(r.metrics->GetHistogram("serve.stream.staleness_steps")->count(),
            static_cast<uint64_t>(options.num_tenants * options.num_steps));

  // A one-slot ring cannot hold a round's worth of points: the drop-oldest
  // path must engage, and drops are reported per tenant and fleet-wide.
  TestRegistry tiny = MakeRegistry(1 << 20);
  options.metrics = tiny.metrics.get();
  options.stream_ring_capacity = 1;
  auto dropped = RunFleet(tiny.registry.get(),
                          {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  uint64_t total = 0;
  for (const TenantSummary& tenant : dropped->tenants) {
    // A one-slot ring retains only the newest point: each round's poll
    // reads exactly one and misses the rest — every pushed point is
    // accounted as read or missed.
    EXPECT_EQ(tenant.stream_points, dropped->rounds);
    EXPECT_EQ(tenant.stream_points + tenant.stream_dropped,
              options.num_steps);
    total += tenant.stream_dropped;
  }
  EXPECT_EQ(dropped->stream_dropped, total);
  // Provisioning results are untouched by the ring capacity — streaming
  // accounting observes the run, it never alters plans.
  EXPECT_EQ(result->mean_utilization, dropped->mean_utilization);
  EXPECT_EQ(result->mean_under_provision_rate,
            dropped->mean_under_provision_rate);
}

TEST(FleetTest, CacheThrashUnderTightBudgetStillServes) {
  TestRegistry sized = MakeRegistry(1 << 20);
  ASSERT_TRUE(sized.registry->Acquire({"mlp", 1}).ok());
  const size_t one_model = sized.registry->GetCacheStats().resident_bytes;

  TestRegistry tight = MakeRegistry(one_model);
  FleetOptions options = SmallFleetOptions();
  options.batched = false;  // arrival-order serving alternates versions
  options.metrics = tight.metrics.get();
  auto result = RunFleet(tight.registry.get(),
                         {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->cache.evictions, 0);
  EXPECT_GT(result->cache.misses, result->cache.hits);
  EXPECT_LE(result->cache.resident_bytes, one_model);
}

TEST(FleetTest, InvalidOptionsRejected) {
  TestRegistry r = MakeRegistry(1 << 20);
  FleetOptions options = SmallFleetOptions();
  options.history_steps = kContext - 1;  // cannot cover the context
  EXPECT_EQ(RunFleet(r.registry.get(), {{"mlp", 1}}, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunFleet(r.registry.get(), {}, SmallFleetOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunFleet(nullptr, {{"mlp", 1}}, SmallFleetOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A shard registry factory that produces no registry is a configuration
  // error, not a crash.
  FleetOptions null_factory = SmallFleetOptions();
  null_factory.num_shards = 2;
  null_factory.shard_registry_factory = [] {
    return std::unique_ptr<ModelRegistry>();
  };
  EXPECT_EQ(RunFleet(r.registry.get(), {{"mlp", 1}}, null_factory)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// A served model whose upper quantile is NaN at one step: what a diverged
/// fine-tune could hand the allocator.
class NanQuantileForecaster final : public forecast::Forecaster {
 public:
  Status Fit(const ts::TimeSeries&) override { return Status::OK(); }
  Status LoadCheckpoint(const std::string&) override { return Status::OK(); }
  bool SupportsCheckpoint() const override { return true; }
  Result<ts::QuantileForecast> Predict(const ForecastInput&) const override {
    std::vector<std::vector<double>> values(kHorizon, {1.0, 2.0});
    values[kHorizon / 2][1] = std::numeric_limits<double>::quiet_NaN();
    return ts::QuantileForecast(levels_, std::move(values));
  }
  size_t Horizon() const override { return kHorizon; }
  size_t ContextLength() const override { return kContext; }
  const std::vector<double>& Levels() const override { return levels_; }
  std::string Name() const override { return "NanQuantile"; }

 private:
  std::vector<double> levels_ = {0.5, 0.95};
};

TEST(FleetTest, NanQuantileRoundCountsAsErrorAndFallsBack) {
  // RunFleet allocates straight from the served forecast, so the solver's
  // own validation is what keeps a NaN from reaching the node-count cast.
  TestRegistry r = MakeRegistry(1 << 20);
  const std::string path = "/tmp/rpas_serve_test_nan_" +
                           std::to_string(static_cast<long>(getpid())) +
                           ".ckpt";
  {
    std::ofstream file(path);
    file << "stub\n";
  }
  ASSERT_TRUE(r.registry
                  ->RegisterVersion({"nan", 1}, path,
                                    [] {
                                      return std::make_unique<
                                          NanQuantileForecaster>();
                                    })
                  .ok());
  FleetOptions options = SmallFleetOptions();
  options.metrics = r.metrics.get();
  // Tenants alternate between a healthy MLP and the NaN model.
  auto result = RunFleet(r.registry.get(), {{"mlp", 1}, {"nan", 1}}, options);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tenants.size(), 4u);
  for (size_t t = 0; t < result->tenants.size(); ++t) {
    const TenantSummary& tenant = result->tenants[t];
    EXPECT_EQ(tenant.rounds, tenant.fresh_rounds + tenant.stale_rounds +
                                 tenant.fallback_rounds)
        << "tenant " << t;
    if (t % 2 == 1) {
      EXPECT_EQ(tenant.error_rounds, tenant.rounds) << "tenant " << t;
      EXPECT_EQ(tenant.fallback_rounds, tenant.rounds) << "tenant " << t;
      EXPECT_EQ(tenant.fresh_rounds, 0u) << "tenant " << t;
    } else {
      EXPECT_EQ(tenant.error_rounds, 0u) << "tenant " << t;
      EXPECT_EQ(tenant.fresh_rounds, tenant.rounds) << "tenant " << t;
    }
  }
  // Every step still got a valid node count from the fallback.
  for (const auto& decision : result->decisions) {
    EXPECT_GE(decision.target_nodes, 1);
  }
}

// -------------------------------------------------- Adaptive selection ---

TEST(FleetSelectionTest, DisabledSelectionIsBitIdenticalAcrossShardsAndThreads) {
  // A fully populated but disabled selection config must leave the fleet
  // byte-for-byte on the pre-selection path at every (shards, threads)
  // combination — the regression gate for the selection_mode=off contract.
  auto run = [](bool populate_selection, size_t shards, int threads) {
    SetRpasThreads(threads);
    TestRegistry r = MakeRegistry(1 << 20);
    FleetOptions options = SmallFleetOptions();
    options.num_tenants = 6;
    options.admission.round_budget = 4;  // force sheds: full merge path
    options.metrics = r.metrics.get();
    options.num_shards = shards;
    if (populate_selection) {
      options.selection.enabled = false;  // populated but OFF
      options.selection.ladder = {{"mlp", 1}, {"deepar", 1}};
      options.selection.selector.wql_bound = 0.01;
      options.selection.prescaler.lead_steps = 1;
    }
    auto result = RunFleet(r.registry.get(),
                           {{"mlp", 1}, {"deepar", 1}}, options);
    SetRpasThreads(0);
    RPAS_CHECK(result.ok());
    return std::move(*result);
  };
  const FleetResult baseline = run(false, 1, 1);
  EXPECT_GT(baseline.requests_shed, 0u);
  struct Case {
    size_t shards;
    int threads;
  };
  for (const Case c : {Case{1, 1}, Case{2, 8}, Case{3, 4}}) {
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << c.shards << " threads=" << c.threads);
    ExpectSameFleetResult(baseline, run(true, c.shards, c.threads));
  }
}

TEST(FleetSelectionTest, SelectionDoesNotPerturbAdmission) {
  // The selector is RNG-free and request seeds derive only from
  // (options.seed, tenant, round), so enabling selection may change which
  // model serves a tenant but never which requests are admitted, throttled,
  // or deadline-shed — the shed rotation must be unperturbed.
  auto run = [](bool enabled) {
    TestRegistry r = MakeRegistry(1 << 20);
    FleetOptions options = SmallFleetOptions();
    options.num_tenants = 6;
    options.num_steps = 48;
    options.admission.round_budget = 4;
    options.metrics = r.metrics.get();
    options.selection.enabled = enabled;
    options.selection.ladder = {{"mlp", 1}, {"deepar", 1}};
    auto result = RunFleet(r.registry.get(),
                           {{"mlp", 1}, {"deepar", 1}}, options);
    RPAS_CHECK(result.ok());
    return std::move(*result);
  };
  const FleetResult off = run(false);
  const FleetResult on = run(true);
  EXPECT_GT(off.requests_shed, 0u);
  EXPECT_EQ(on.requests_submitted, off.requests_submitted);
  EXPECT_EQ(on.requests_admitted, off.requests_admitted);
  EXPECT_EQ(on.requests_throttled, off.requests_throttled);
  EXPECT_EQ(on.requests_shed, off.requests_shed);
  ASSERT_EQ(on.tenants.size(), off.tenants.size());
  for (size_t t = 0; t < on.tenants.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "tenant " << t);
    EXPECT_EQ(on.tenants[t].shed_rounds, off.tenants[t].shed_rounds);
    EXPECT_EQ(on.tenants[t].throttled_rounds,
              off.tenants[t].throttled_rounds);
  }
}

TEST(FleetSelectionTest, SelectionOutcomeAccountedPerTenantAndFleetWide) {
  TestRegistry r = MakeRegistry(1 << 20);
  FleetOptions options = SmallFleetOptions();
  options.num_steps = 48;
  options.metrics = r.metrics.get();
  options.selection.enabled = true;
  options.selection.ladder = {{"mlp", 1}, {"deepar", 1}};
  auto result = RunFleet(r.registry.get(),
                         {{"mlp", 1}, {"deepar", 1}}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t switches = 0;
  uint64_t activations = 0;
  uint64_t rollbacks = 0;
  for (const TenantSummary& tenant : result->tenants) {
    EXPECT_EQ(tenant.selector.rounds, tenant.rounds);
    EXPECT_LT(tenant.final_tier, 2u);
    // Every pre-scale raise rolled back by the end of the run.
    EXPECT_EQ(tenant.prescale.activations, tenant.prescale.rollbacks);
    switches += tenant.selector.switches;
    activations += tenant.prescale.activations;
    rollbacks += tenant.prescale.rollbacks;
  }
  EXPECT_EQ(result->tier_switches, switches);
  EXPECT_EQ(result->prescale_activations, activations);
  EXPECT_EQ(result->prescale_rollbacks, rollbacks);
  EXPECT_EQ(
      r.metrics->GetCounter("serve.select.switches")->value(),
      static_cast<int64_t>(switches));
}

TEST(FleetSelectionTest, SelectionOptionsValidated) {
  TestRegistry r = MakeRegistry(1 << 20);
  // Enabled selection with an empty ladder is a configuration error.
  FleetOptions empty_ladder = SmallFleetOptions();
  empty_ladder.selection.enabled = true;
  EXPECT_EQ(RunFleet(r.registry.get(), {{"mlp", 1}}, empty_ladder)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Selection and incremental refresh are mutually exclusive.
  FleetOptions combo = SmallFleetOptions();
  combo.selection.enabled = true;
  combo.selection.ladder = {{"mlp", 1}};
  combo.refresh_mode = core::RefreshMode::kIncremental;
  combo.refresh_model_factory = [](const ModelId&) {
    return std::unique_ptr<forecast::Forecaster>(
        new MlpForecaster(SmallMlpOptions()));
  };
  EXPECT_EQ(RunFleet(r.registry.get(), {{"mlp", 1}}, combo).status().code(),
            StatusCode::kInvalidArgument);
  // Incremental refresh without a model factory cannot build per-tenant
  // forecasters.
  FleetOptions no_factory = SmallFleetOptions();
  no_factory.refresh_mode = core::RefreshMode::kIncremental;
  EXPECT_EQ(
      RunFleet(r.registry.get(), {{"mlp", 1}}, no_factory).status().code(),
      StatusCode::kInvalidArgument);
}

// ------------------------------------------------- Incremental refresh ---

TEST(FleetRefreshTest, IncrementalModeServesRefreshedModelsNotStaleRegistry) {
  // The PR 8 wiring-gap regression: with refresh_mode=incremental, rounds
  // must be served from each tenant's refreshed private forecaster, so
  // model staleness pins to zero while the batch fleet's registry model
  // ages by replan_every per round.
  auto run = [](core::RefreshMode mode) {
    TestRegistry r = MakeRegistry(1 << 20);
    FleetOptions options = SmallFleetOptions();
    options.metrics = r.metrics.get();
    options.refresh_mode = mode;
    if (mode == core::RefreshMode::kIncremental) {
      options.refresh_model_factory = [](const ModelId& id) {
        RPAS_CHECK(id.name == "mlp");
        return std::unique_ptr<forecast::Forecaster>(
            new MlpForecaster(SmallMlpOptions()));
      };
    }
    auto result = RunFleet(r.registry.get(), {{"mlp", 1}}, options);
    RPAS_CHECK(result.ok()) << result.status().ToString();
    return std::move(*result);
  };
  const FleetResult batch = run(core::RefreshMode::kBatch);
  const FleetResult incremental = run(core::RefreshMode::kIncremental);

  // Batch rounds replan at steps 0, 6, 12, 18 from a frozen registry
  // model: staleness grows linearly. Incremental folds the ring into the
  // tenant's own forecaster at the top of every round: staleness is 0.
  EXPECT_EQ(batch.max_model_staleness_steps, 18u);
  EXPECT_EQ(batch.mean_model_staleness_steps, 9.0);
  EXPECT_EQ(incremental.max_model_staleness_steps, 0u);
  EXPECT_EQ(incremental.mean_model_staleness_steps, 0.0);

  // The refresher actually ran and consumed the streamed points.
  EXPECT_EQ(batch.refresh.refreshes, 0u);
  EXPECT_GT(incremental.refresh.refreshes, 0u);
  EXPECT_GT(incremental.refresh.points_consumed, 0u);

  // Serving really switched source: the per-tenant forecasters (fitted on
  // each tenant's own short history) cannot reproduce the registry model's
  // allocations for every tenant.
  bool any_differs = false;
  ASSERT_EQ(batch.tenants.size(), incremental.tenants.size());
  for (size_t t = 0; t < batch.tenants.size(); ++t) {
    any_differs = any_differs ||
                  batch.tenants[t].mean_utilization !=
                      incremental.tenants[t].mean_utilization;
    // Every round still served, whatever the serving source.
    EXPECT_EQ(incremental.tenants[t].rounds,
              incremental.tenants[t].fresh_rounds +
                  incremental.tenants[t].stale_rounds +
                  incremental.tenants[t].fallback_rounds);
  }
  EXPECT_TRUE(any_differs);
}

TEST(FleetRefreshTest, IncrementalModeIsDeterministicAcrossThreads) {
  auto run = [](int threads) {
    SetRpasThreads(threads);
    TestRegistry r = MakeRegistry(1 << 20);
    FleetOptions options = SmallFleetOptions();
    options.metrics = r.metrics.get();
    options.refresh_mode = core::RefreshMode::kIncremental;
    options.refresh_model_factory = [](const ModelId&) {
      return std::unique_ptr<forecast::Forecaster>(
          new MlpForecaster(SmallMlpOptions()));
    };
    auto result = RunFleet(r.registry.get(), {{"mlp", 1}}, options);
    SetRpasThreads(0);
    RPAS_CHECK(result.ok()) << result.status().ToString();
    return std::move(*result);
  };
  const FleetResult serial = run(1);
  const FleetResult parallel = run(8);
  ExpectSameFleetResult(serial, parallel);
  EXPECT_EQ(serial.refresh.refreshes, parallel.refresh.refreshes);
  EXPECT_EQ(serial.refresh.points_consumed, parallel.refresh.points_consumed);
}

// ----------------------------------------------------- Quantized serving ---

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return 0;
  }
  const std::streamoff size = in.tellg();
  return size > 0 ? static_cast<size_t>(size) : 0;
}

/// rpasq.v1 conversions of the shared trained checkpoints, one pair per
/// storage dtype. Shared /tmp paths are safe for the same reason the fp64
/// checkpoints are: conversion is deterministic and the writer commits via
/// atomic rename, so concurrent ctest processes always see complete,
/// identical bytes.
struct QuantCheckpoints {
  std::string mlp_q8, deepar_q8;
  std::string mlp_f16, deepar_f16;
};

const QuantCheckpoints& QuantCkpts() {
  static const QuantCheckpoints* paths = [] {
    auto* p = new QuantCheckpoints;
    p->mlp_q8 = "/tmp/rpas_serve_test_mlp_q8.rpasq";
    p->deepar_q8 = "/tmp/rpas_serve_test_deepar_q8.rpasq";
    p->mlp_f16 = "/tmp/rpas_serve_test_mlp_f16.rpasq";
    p->deepar_f16 = "/tmp/rpas_serve_test_deepar_f16.rpasq";
    using tensor::DType;
    RPAS_CHECK(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, p->mlp_q8,
                                          DType::kQ8)
                   .ok());
    RPAS_CHECK(nn::QuantizeCheckpointFile(Checkpoints().deepar_path,
                                          p->deepar_q8, DType::kQ8)
                   .ok());
    RPAS_CHECK(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, p->mlp_f16,
                                          DType::kF16)
                   .ok());
    RPAS_CHECK(nn::QuantizeCheckpointFile(Checkpoints().deepar_path,
                                          p->deepar_f16, DType::kF16)
                   .ok());
    return p;
  }();
  return *paths;
}

/// Like MakeRegistry() but with explicit checkpoint paths, so a test can
/// serve the same architectures from any on-disk format. The default
/// mapped_byte_weight of 1.0 keeps byte-accounting assertions in terms of
/// raw file sizes; pass the weight explicitly to exercise the discounted
/// eviction budget.
TestRegistry MakeRegistryAt(const std::string& mlp_path,
                            const std::string& deepar_path,
                            size_t cache_budget_bytes,
                            double mapped_byte_weight = 1.0) {
  TestRegistry r;
  r.metrics = std::make_unique<obs::MetricsRegistry>(true);
  ModelRegistry::Options options;
  options.cache_budget_bytes = cache_budget_bytes;
  options.mapped_byte_weight = mapped_byte_weight;
  options.metrics = r.metrics.get();
  r.registry = std::make_unique<ModelRegistry>(options);
  RPAS_CHECK(
      r.registry->RegisterVersion({"mlp", 1}, mlp_path, MlpFactory()).ok());
  RPAS_CHECK(r.registry
                 ->RegisterVersion({"deepar", 1}, deepar_path, DeepArFactory())
                 .ok());
  return r;
}

/// Scores a model over a fixed, seeded set of evaluation windows. The
/// window set and the per-window sampling seeds are identical across
/// calls, so any wQL difference between two models is due to their
/// weights alone (for quantized models: the storage dtype).
ts::AccuracyReport EvalWql(const forecast::Forecaster& model) {
  const ts::TimeSeries series = SineSeries(kContext + kHorizon + 60, 4242);
  std::vector<ts::QuantileForecast> forecasts;
  std::vector<std::vector<double>> actuals;
  for (size_t start = 0; start + kContext + kHorizon <= series.size();
       start += 3) {
    ForecastInput input;
    input.start_index = start + kContext;
    input.step_minutes = series.step_minutes;
    input.context.assign(
        series.values.begin() + static_cast<long>(start),
        series.values.begin() + static_cast<long>(start + kContext));
    auto forecast = model.PredictSeeded(input, 1000 + start);
    RPAS_CHECK(forecast.ok()) << forecast.status().ToString();
    forecasts.push_back(*forecast);
    actuals.emplace_back(
        series.values.begin() + static_cast<long>(start + kContext),
        series.values.begin() +
            static_cast<long>(start + kContext + kHorizon));
  }
  return ts::EvaluateForecasts(forecasts, actuals, {0.5, 0.9});
}

double RegistryWql(const std::string& mlp_path,
                   const std::string& deepar_path) {
  TestRegistry r = MakeRegistryAt(mlp_path, deepar_path, 1 << 20);
  double total = 0.0;
  for (const char* name : {"mlp", "deepar"}) {
    auto model = r.registry->Acquire({name, 1});
    RPAS_CHECK(model.ok()) << model.status().ToString();
    total += EvalWql(**model).mean_wql;
  }
  return total / 2.0;
}

// The serving accuracy contract: quantizing the fleet's weights must not
// move wQL by more than 0.5% (q8) / 0.05% (fp16) relative to
// the exact fp64 checkpoints.
TEST(QuantizedServingTest, WqlDeltaWithinDtypeBounds) {
  const double base =
      RegistryWql(Checkpoints().mlp_path, Checkpoints().deepar_path);
  ASSERT_GT(base, 0.0);
  const double q8 = RegistryWql(QuantCkpts().mlp_q8, QuantCkpts().deepar_q8);
  const double f16 =
      RegistryWql(QuantCkpts().mlp_f16, QuantCkpts().deepar_f16);
  EXPECT_LE(std::fabs(q8 - base) / base, 0.005)
      << "q8 wQL " << q8 << " vs fp64 " << base;
  EXPECT_LE(std::fabs(f16 - base) / base, 0.0005)
      << "f16 wQL " << f16 << " vs fp64 " << base;
}

TEST(QuantizedServingTest, MappedBytesAccountedSeparatelyFromHeap) {
  // TFT has no mapped serving path, so the registry restores it onto the
  // heap through LoadCheckpoint and charges its whole file as heap bytes.
  const std::string tft_path = StrFormat("/tmp/rpas_serve_test_tft_%ld.ckpt",
                                         static_cast<long>(getpid()));
  TftForecaster tft(SmallTftOptions());
  ASSERT_TRUE(tft.Fit(SineSeries(400, 7)).ok());
  obs::MetricsRegistry heap_metrics(true);
  ModelRegistry::Options heap_options;
  heap_options.metrics = &heap_metrics;
  ModelRegistry heap(heap_options);
  ASSERT_TRUE(heap.RegisterTrained({"tft", 1}, tft_path, tft, [] {
                    return std::make_unique<TftForecaster>(SmallTftOptions());
                  })
                  .ok());
  auto restored = heap.Acquire({"tft", 1});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->PredictSeeded(MakeInput(0), 1).ok());
  const ModelRegistry::CacheStats heap_stats = heap.GetCacheStats();
  EXPECT_EQ(heap_stats.mapped_bytes, 0u);
  EXPECT_EQ(heap_stats.heap_bytes, heap_stats.resident_bytes);
  EXPECT_EQ(heap_stats.resident_bytes, FileBytes(tft_path));
  EXPECT_EQ(heap_stats.charged_bytes, heap_stats.heap_bytes);
  std::remove(tft_path.c_str());

  TestRegistry quant =
      MakeRegistryAt(QuantCkpts().mlp_q8, QuantCkpts().deepar_q8, 1 << 20);
  ASSERT_TRUE(quant.registry->Acquire({"mlp", 1}).ok());
  ASSERT_TRUE(quant.registry->Acquire({"deepar", 1}).ok());
  const ModelRegistry::CacheStats stats = quant.registry->GetCacheStats();
  EXPECT_GT(stats.mapped_bytes, 0u);
  EXPECT_EQ(stats.mapped_bytes + stats.heap_bytes, stats.resident_bytes);
  EXPECT_EQ(stats.resident_bytes,
            FileBytes(QuantCkpts().mlp_q8) + FileBytes(QuantCkpts().deepar_q8));
  EXPECT_EQ(quant.metrics->GetGauge("serve.registry.mapped_bytes")->value(),
            static_cast<double>(stats.mapped_bytes));
  EXPECT_EQ(quant.metrics->GetGauge("serve.registry.heap_bytes")->value(),
            static_cast<double>(stats.heap_bytes));
}

// Admission and deadline-shed decisions depend on request flow, not on
// forecast values, so swapping the fleet's checkpoints for quantized ones
// must leave every admission outcome unchanged.
TEST(QuantizedServingTest, AdmissionAndShedInvariantAcrossDtypes) {
  FleetOptions options = SmallFleetOptions();
  options.admission.round_budget = 2;  // force sheds every round

  TestRegistry f64 = MakeRegistry(1 << 20);
  options.metrics = f64.metrics.get();
  auto base = RunFleet(f64.registry.get(), {{"mlp", 1}, {"deepar", 1}},
                       options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  TestRegistry quant =
      MakeRegistryAt(QuantCkpts().mlp_q8, QuantCkpts().deepar_q8, 1 << 20);
  options.metrics = quant.metrics.get();
  auto q8 = RunFleet(quant.registry.get(), {{"mlp", 1}, {"deepar", 1}},
                     options);
  ASSERT_TRUE(q8.ok()) << q8.status().ToString();

  EXPECT_EQ(base->requests_admitted, q8->requests_admitted);
  EXPECT_EQ(base->requests_throttled, q8->requests_throttled);
  EXPECT_EQ(base->requests_shed, q8->requests_shed);
  ASSERT_EQ(base->tenants.size(), q8->tenants.size());
  for (size_t i = 0; i < base->tenants.size(); ++i) {
    EXPECT_EQ(base->tenants[i].shed_rounds, q8->tenants[i].shed_rounds)
        << "tenant " << i;
    EXPECT_EQ(base->tenants[i].fallback_rounds,
              q8->tenants[i].fallback_rounds)
        << "tenant " << i;
  }
}

// Regression for the registered-size-goes-stale eviction bug: the byte
// count charged to the cache (and later credited back by eviction) must be
// the size of the file actually loaded, not the size recorded at
// registration time — the file can be atomically replaced in between.
TEST(ModelRegistryTest, CacheChargesLoadedBytesNotRegisteredBytes) {
  const std::string swap = StrFormat("/tmp/rpas_serve_swap_%ld.rpasq",
                                     static_cast<long>(getpid()));
  // Measure the f64 size up front (the budget must be fixed at registry
  // construction), then register while the file holds the smaller q8 form.
  ASSERT_TRUE(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, swap,
                                         tensor::DType::kF64)
                  .ok());
  const size_t f64_bytes = FileBytes(swap);
  ASSERT_TRUE(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, swap,
                                         tensor::DType::kQ8)
                  .ok());
  const size_t q8_bytes = FileBytes(swap);
  ASSERT_GT(f64_bytes, q8_bytes);

  const size_t deepar_bytes = FileBytes(QuantCkpts().deepar_q8);
  TestRegistry r =
      MakeRegistryAt(swap, QuantCkpts().deepar_q8,
                     f64_bytes + deepar_bytes - 1);
  // Grow the file before the first load: the size recorded at registration
  // time (q8_bytes) is now stale.
  ASSERT_TRUE(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, swap,
                                         tensor::DType::kF64)
                  .ok());
  ASSERT_EQ(FileBytes(swap), f64_bytes);

  {
    auto model = r.registry->Acquire({"mlp", 1});
    ASSERT_TRUE(model.ok()) << model.status().ToString();
  }
  EXPECT_EQ(r.registry->GetCacheStats().resident_bytes, f64_bytes);

  // The budget fits the f64 model xor the DeepAR model. Loading DeepAR
  // must evict the swapped model and credit back its *loaded* size: a
  // registry that charged q8_bytes would now report a phantom residue
  // (f64_bytes - q8_bytes) that eventually pins the cache.
  auto deepar = r.registry->Acquire({"deepar", 1});
  ASSERT_TRUE(deepar.ok()) << deepar.status().ToString();
  const ModelRegistry::CacheStats stats = r.registry->GetCacheStats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_bytes, deepar_bytes);
  EXPECT_EQ(stats.mapped_bytes, deepar_bytes);
  EXPECT_EQ(stats.heap_bytes, 0u);
  std::remove(swap.c_str());
}

// The eviction budget is charged in weighted bytes: mapped (page-cache
// backed, kernel-reclaimable) checkpoint bytes cost mapped_byte_weight of
// a heap byte. Under a budget that evicts when every byte costs full
// price, discounted mapped models must both stay resident — and the
// charged_bytes accounting must agree between CacheStats and the gauge.
TEST(ModelRegistryTest, MappedBytesChargedAtDiscountAgainstBudget) {
  const size_t mlp_bytes = FileBytes(QuantCkpts().mlp_q8);
  const size_t deepar_bytes = FileBytes(QuantCkpts().deepar_q8);
  const size_t budget = mlp_bytes + deepar_bytes - 1;
  const double weight = 0.25;

  // Full price: the second load must evict the first.
  TestRegistry full = MakeRegistryAt(QuantCkpts().mlp_q8,
                                     QuantCkpts().deepar_q8, budget,
                                     /*mapped_byte_weight=*/1.0);
  ASSERT_TRUE(full.registry->Acquire({"mlp", 1}).ok());
  ASSERT_TRUE(full.registry->Acquire({"deepar", 1}).ok());
  const ModelRegistry::CacheStats full_stats =
      full.registry->GetCacheStats();
  EXPECT_EQ(full_stats.evictions, 1);
  EXPECT_EQ(full_stats.resident_models, 1u);
  EXPECT_EQ(full_stats.charged_bytes, full_stats.resident_bytes);

  // Discounted: both models fit — the budget bounds charged, not raw,
  // bytes, so resident_bytes may exceed the budget by design.
  TestRegistry disc = MakeRegistryAt(QuantCkpts().mlp_q8,
                                     QuantCkpts().deepar_q8, budget, weight);
  ASSERT_TRUE(disc.registry->Acquire({"mlp", 1}).ok());
  ASSERT_TRUE(disc.registry->Acquire({"deepar", 1}).ok());
  const ModelRegistry::CacheStats stats = disc.registry->GetCacheStats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.resident_models, 2u);
  EXPECT_EQ(stats.resident_bytes, mlp_bytes + deepar_bytes);
  const size_t expect_charged =
      static_cast<size_t>(std::llround(mlp_bytes * weight)) +
      static_cast<size_t>(std::llround(deepar_bytes * weight));
  EXPECT_EQ(stats.charged_bytes, expect_charged);
  EXPECT_LE(stats.charged_bytes, budget);
  EXPECT_EQ(disc.metrics->GetGauge("serve.registry.charged_bytes")->value(),
            static_cast<double>(stats.charged_bytes));

  // Eviction credits the weighted charge back: acquiring a third version
  // under a one-model budget leaves charged == the survivor's charge.
  TestRegistry tight = MakeRegistryAt(
      QuantCkpts().mlp_q8, QuantCkpts().deepar_q8,
      static_cast<size_t>(std::llround(deepar_bytes * weight)), weight);
  ASSERT_TRUE(tight.registry->Acquire({"mlp", 1}).ok());
  ASSERT_TRUE(tight.registry->Acquire({"deepar", 1}).ok());
  const ModelRegistry::CacheStats tight_stats =
      tight.registry->GetCacheStats();
  EXPECT_GE(tight_stats.evictions, 1);
  EXPECT_EQ(tight_stats.resident_models, 1u);
  EXPECT_EQ(tight_stats.charged_bytes,
            static_cast<size_t>(std::llround(deepar_bytes * weight)));
}

// A model whose checkpoint vanishes between registration and first load
// must fail with a typed IoError and leave the cache untouched; recreating
// the file heals the version with no re-registration.
TEST(ModelRegistryTest, DeletedCheckpointFailsTypedThenRecovers) {
  const std::string path = StrFormat("/tmp/rpas_serve_gone_%ld.rpasq",
                                     static_cast<long>(getpid()));
  ASSERT_TRUE(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, path,
                                         tensor::DType::kQ8)
                  .ok());
  TestRegistry r = MakeRegistryAt(path, QuantCkpts().deepar_q8, 1 << 20);
  ASSERT_EQ(::unlink(path.c_str()), 0);

  auto missing = r.registry->Acquire({"mlp", 1});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  const ModelRegistry::CacheStats after_fail = r.registry->GetCacheStats();
  EXPECT_EQ(after_fail.resident_models, 0u);
  EXPECT_EQ(after_fail.resident_bytes, 0u);
  EXPECT_EQ(after_fail.mapped_bytes, 0u);

  ASSERT_TRUE(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, path,
                                         tensor::DType::kQ8)
                  .ok());
  auto healed = r.registry->Acquire({"mlp", 1});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_TRUE((*healed)->PredictSeeded(MakeInput(0), 1).ok());
  EXPECT_EQ(r.registry->GetCacheStats().resident_models, 1u);
  std::remove(path.c_str());
}

// Race a checkpoint's deletion/atomic replacement against concurrent
// Acquires (run under TSan in CI). Every Acquire must either succeed and
// serve a usable model — mmap keeps the replaced inode's pages valid — or
// fail with a typed IoError while the file is briefly absent.
TEST(ModelRegistryTest, AcquireRacesCheckpointReplacement) {
  const std::string path = StrFormat("/tmp/rpas_serve_race_%ld.rpasq",
                                     static_cast<long>(getpid()));
  ASSERT_TRUE(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, path,
                                         tensor::DType::kQ8)
                  .ok());
  // Budget 0: nothing stays resident, so every Acquire re-opens the file.
  TestRegistry r = MakeRegistryAt(path, QuantCkpts().deepar_q8, 0);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (int i = 0; i < 25; ++i) {
      ::unlink(path.c_str());
      RPAS_CHECK(nn::QuantizeCheckpointFile(Checkpoints().mlp_path, path,
                                            tensor::DType::kQ8)
                     .ok());
      // Leave the file in place long enough for the readers to land some
      // successful loads between replacements.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<int> served{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        auto model = r.registry->Acquire({"mlp", 1});
        if (model.ok()) {
          auto forecast =
              (*model)->PredictSeeded(MakeInput(static_cast<uint64_t>(t)), 1);
          ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
          served.fetch_add(1);
        } else {
          ASSERT_EQ(model.status().code(), StatusCode::kIoError)
              << model.status().ToString();
        }
      }
    });
  }
  mutator.join();
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_GT(served.load(), 0);
  auto final_model = r.registry->Acquire({"mlp", 1});
  EXPECT_TRUE(final_model.ok()) << final_model.status().ToString();
  std::remove(path.c_str());
}

// ------------------------------------------------- Snapshot concurrency ---

// The headline property of the snapshot registry: once a version is warm,
// Acquire() never takes a mutex. MutexAcquisitions() counts every registry
// mutex and per-version latch acquisition, so the probe catches any lock
// sneaking back onto the hit path.
TEST(ModelRegistryTest, WarmHitAcquireTakesNoMutex) {
  TestRegistry r = MakeRegistry(1 << 20);
  ASSERT_TRUE(r.registry->Acquire({"mlp", 1}).ok());

  const uint64_t locks_after_load = r.registry->MutexAcquisitions();
  ASSERT_GT(locks_after_load, 0u);  // the cold load itself took locks
  constexpr int kWarmHits = 200;
  for (int i = 0; i < kWarmHits; ++i) {
    auto model = r.registry->Acquire({"mlp", 1});
    ASSERT_TRUE(model.ok());
  }
  EXPECT_EQ(r.registry->MutexAcquisitions(), locks_after_load);

  const ModelRegistry::CacheStats stats = r.registry->GetCacheStats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kWarmHits));
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.loads, 1u);
}

// Concurrent Acquires of one cold version collapse onto a single load via
// the per-version latch: exactly one thread loads, the riders block on the
// latch and count as hits (they are served from cache, just a cache that
// was filled microseconds ago). loads == misses stays an invariant.
TEST(ModelRegistryTest, LatchCollapsesConcurrentColdLoads) {
  TestRegistry r = MakeRegistry(1 << 20);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const forecast::Forecaster>> models(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      auto model = r.registry->Acquire({"mlp", 1});
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      models[static_cast<size_t>(t)] = *model;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[static_cast<size_t>(t)].get(), models[0].get());
  }
  const ModelRegistry::CacheStats stats = r.registry->GetCacheStats();
  EXPECT_EQ(stats.loads, stats.misses);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_GE(stats.loads, 1u);
  // Whatever interleaving happened, at most one thread can have loaded:
  // the latch serializes same-version loads and the re-check under the
  // latch turns every rider into a hit.
  EXPECT_EQ(stats.loads, 1u);
}

// Readers racing version registration, eviction churn, and cold loads (run
// under TSan in CI). A tight budget forces the mlp/deepar alternation to
// evict continuously while a mutator registers fresh versions; every
// Acquire must succeed and the hit/miss/load ledger must stay consistent.
TEST(ModelRegistryTest, ReadersRaceRegistrationAndEviction) {
  // Budget fits roughly one model, so concurrent Acquires of two models
  // keep the eviction path hot.
  TestRegistry r = MakeRegistry(10000);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acquires{0};

  std::thread mutator([&] {
    for (uint32_t v = 2; v <= 20; ++v) {
      ASSERT_TRUE(r.registry
                      ->RegisterVersion({"mlp", v}, Checkpoints().mlp_path,
                                        MlpFactory())
                      .ok());
      ASSERT_TRUE(r.registry->Acquire({"mlp", v}).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load()) {
        const ModelId id = (t + i) % 2 == 0 ? ModelId{"mlp", 1}
                                            : ModelId{"deepar", 1};
        auto model = r.registry->Acquire(id);
        ASSERT_TRUE(model.ok()) << model.status().ToString();
        acquires.fetch_add(1);
        ++i;
        // Latest() and NumRegistered() are lock-free snapshot reads; mix
        // them in so TSan sees them racing the mutator's republishes.
        ASSERT_TRUE(r.registry->Latest("mlp").ok());
        ASSERT_GE(r.registry->NumRegistered(), 2u);
      }
    });
  }
  mutator.join();
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_GT(acquires.load(), 0u);
  const ModelRegistry::CacheStats stats = r.registry->GetCacheStats();
  EXPECT_EQ(stats.loads, stats.misses);
  // 19 mutator acquires + everything the readers did.
  EXPECT_EQ(stats.hits + stats.misses, acquires.load() + 19u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace rpas::serve
