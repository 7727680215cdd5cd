// Adaptive selection benchmark: strategy x tenant-mix grid.
//
// A mixed tenant fleet (mostly Alibaba-like seasonal tenants plus a
// minority of Google-like bursty ones) runs the online scaling loop under
// four planning strategies:
//   - all-seasonal:       every round planned by the seasonal-naive tier;
//   - all-deepar:         every round planned by the DeepAR tier;
//   - adaptive:           per-tenant ladder (seasonal-naive -> ARIMA ->
//                         MLP -> DeepAR) driven by rolling wQL, with TRUE
//                         pre-scaling (raised capacity floor ahead of
//                         predicted spikes, auto-rollback);
//   - adaptive-noprescale: the same ladder with the pre-scaler disabled
//                         (isolates the floor-raise contribution).
// The ladder is fitted ONCE per profile class and shared by that class's
// tenants, except that each run restores its own DeepAR from the class's
// fitted checkpoint: DeepAR's Predict advances the model's sampling stream,
// so one instance shared by concurrently running tenants would race and
// make the forecasts depend on thread timing. Runs inject actuation-delay
// faults so scale-out lag (the situation pre-scaling exists for) is
// realistic.
//
// Each class's selector accuracy SLO (wql_bound) is derived from tier
// baselines measured on the class's pre-eval calibration window, the way
// an operator would budget it: target the cheapest tier competitive with
// the top tier, and place the promote trigger between that tier's observed
// prefix wQL and the next cheaper tier's.
//
// The primary accuracy metric is IN-FORCE wQL: each plan is scored on the
// kReplanEvery steps it actually controls before the next replan replaces
// it — the same prefix window the selector observes and the only part of a
// forecast that ever drives scaling. Full-horizon wQL is reported alongside
// for context (it includes forecast steps that are never acted on).
//
// Reported per (tenant, strategy): steady-state held-out in-force wQL of
// the plans the strategy actually served (the adaptive row re-scores the
// tier that was active each round; the leading adaptation-warmup rounds
// are excluded for every strategy alike), planning microseconds per
// round, a static $-cost proxy (per-round tier cost units), overall and
// spike-window SLO violations, and the selector/pre-scaler accounting.
//
// Named checks (exit 1 on violation):
//   - fleet-mean adaptive in-force wQL <= 1.02 x all-DeepAR's;
//   - all-DeepAR planning $-cost >= 3 x adaptive's (tier cost units);
//   - adaptive spike-window SLO violations <= adaptive-noprescale;
//   - every pre-scaler activation rolled back (activations == rollbacks),
//     and the pre-scaler activated at least once;
//   - each class's derived wql_bound is positive over all four tiers, and
//     every tenant ran all four strategies.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "forecast/seasonal_naive.h"
#include "obs/metrics.h"
#include "select/selector.h"
#include "trace/generator.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

constexpr size_t kSelHorizon = 36;    // 6 hours: tighter replan cadence
constexpr size_t kReplanEvery = 12;   // 2 hours between planning rounds
constexpr uint64_t kEvalSeedBase = 0xADA7;
constexpr double kSpikeWorkloadRatio = 1.15;  // spike step: >= ratio * mean
/// A cheaper tier is "competitive" when its calibration-window in-force
/// wQL is within this slack of the top tier's; the class SLO targets the
/// cheapest competitive tier.
constexpr double kCompetitiveSlack = 0.05;
/// The promote trigger sits at least this far above the settle tier's own
/// prefix wQL, so rolling-window noise does not push the settled tenant up
/// the ladder.
constexpr double kHoldMargin = 1.4;

/// Static $-cost proxy per planning round by ladder tier (relative serving
/// cost of keeping that model hot: table lookup, closed-form recursion,
/// small net, sampled RNN rollout).
constexpr double kTierCostUnits[] = {1.0, 4.0, 20.0, 100.0};

constexpr const char* kTierNames[] = {"seasonal-naive", "arima", "mlp",
                                      "deepar"};

enum class Strategy {
  kAllSeasonal = 0,
  kAllDeepar = 1,
  kAdaptive = 2,
  kAdaptiveNoPrescale = 3,
};

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAllSeasonal: return "all-seasonal";
    case Strategy::kAllDeepar: return "all-deepar";
    case Strategy::kAdaptive: return "adaptive";
    case Strategy::kAdaptiveNoPrescale: return "adaptive-noprescale";
  }
  return "?";
}

constexpr Strategy kStrategies[] = {
    Strategy::kAllSeasonal, Strategy::kAllDeepar, Strategy::kAdaptive,
    Strategy::kAdaptiveNoPrescale};

/// One profile class: the ladder is fitted once on a representative trace
/// of the class and shared by every tenant drawn from that profile.
struct ProfileClass {
  std::string name;
  trace::TraceProfile profile;
  core::ScalingConfig config;
  std::vector<std::unique_ptr<forecast::Forecaster>> models;
  /// Managers of the shared, deterministic tiers (all but DeepAR).
  std::vector<std::unique_ptr<core::RobustAutoScalingManager>> managers;
  /// The fitted DeepAR tier's checkpoint, and the bench mode its options
  /// were made for: every run restores a DeepAR of its own from it.
  std::string deepar_checkpoint;
  bool quick = false;
  /// Accuracy SLO the selector is run with, derived per class from the
  /// calibration-window tier baselines (see DeriveWqlBound).
  double wql_bound = 0.15;
};

ProfileClass MakeProfileClass(const trace::TraceProfile& profile,
                              const BenchOptions& options) {
  ProfileClass cls;
  cls.name = profile.name;
  cls.profile = profile;
  const Dataset dataset = MakeDataset(profile, options.seed);
  cls.config = MakeScalingConfig(dataset);

  forecast::SeasonalNaiveForecaster::Options naive;
  naive.context_length = kContext;
  naive.horizon = kSelHorizon;
  naive.season = kStepsPerDay;
  naive.levels = ScalingLevels();
  cls.models.push_back(
      std::make_unique<forecast::SeasonalNaiveForecaster>(naive));
  cls.models.push_back(MakeArima(kSelHorizon, ScalingLevels()));
  cls.models.push_back(
      MakeMlp(kSelHorizon, ScalingLevels(), options.quick, /*run=*/0));
  cls.models.push_back(
      MakeDeepAr(kSelHorizon, ScalingLevels(), options.quick, /*run=*/0));
  for (auto& model : cls.models) {
    RPAS_CHECK(model->Fit(dataset.train).ok()) << cls.name;
    if (model != cls.models.back()) {
      cls.managers.push_back(std::make_unique<core::RobustAutoScalingManager>(
          model.get(),
          std::make_unique<core::RobustQuantileAllocator>(0.95), cls.config));
    }
  }
  cls.quick = options.quick;
  cls.deepar_checkpoint =
      StrFormat("/tmp/rpas_adaptive_%s_%d_deepar.ckpt", cls.name.c_str(),
                static_cast<int>(getpid()));
  RPAS_CHECK(cls.models.back()->SaveCheckpoint(cls.deepar_checkpoint).ok());
  return cls;
}

struct CellResult {
  std::string cls;
  size_t tenant = 0;
  Strategy strategy = Strategy::kAllSeasonal;
  double wql = 0.0;          ///< in-force (prefix-window) wQL — primary
  double horizon_wql = 0.0;  ///< full-horizon wQL — context
  double us_per_round = 0.0;
  double cost_units = 0.0;
  double slo_violation_rate = 0.0;
  size_t spike_steps = 0;
  size_t spike_violations = 0;
  size_t rounds = 0;
  size_t final_tier = 0;
  std::string pattern = "-";
  uint64_t switches = 0;
  uint64_t prescale_activations = 0;
  uint64_t prescale_rollbacks = 0;
  bool rollback_ok = true;
};

core::SelectionOptions MakeSelection(
    const ProfileClass& cls,
    std::vector<const core::RobustAutoScalingManager*> ladder, bool prescale) {
  core::SelectionOptions selection;
  selection.mode = core::SelectionMode::kAdaptive;
  selection.ladder = std::move(ladder);
  selection.classifier.season = kStepsPerDay;
  selection.selector.wql_window = 6;
  selection.selector.min_dwell = 2;
  selection.selector.probe_cooldown = 6;
  selection.selector.wql_bound = cls.wql_bound;
  selection.prescale = prescale;
  selection.prescaler.lead_steps = 3;
  selection.prescaler.spike_ratio = 1.2;
  selection.prescaler.min_spike_nodes = 1;
  selection.prescaler.peak_hold = 2;
  selection.prescaler.hold_timeout = 4 * kReplanEvery;
  return selection;
}

struct ServedScore {
  double wql = 0.0;         ///< full-horizon mean wQL
  double prefix_wql = 0.0;  ///< first-replan-window wQL (what the selector sees)
};

/// Re-scores the forecasts the strategy actually served: for each planning
/// round past the warmup, predict from the tier that was active that round
/// (fixed for the all-X strategies, `tier_by_round` for adaptive) with a
/// deterministic per-round seed, and evaluate against the realized horizon.
/// `warmup_rounds` excludes the adaptation transient uniformly for every
/// strategy, so the comparison is between steady-state operating points.
ServedScore ScoreServedWql(const ProfileClass& cls,
                           const ts::TimeSeries& series, size_t eval_start,
                           size_t rounds,
                           const std::vector<size_t>& tier_by_round,
                           size_t warmup_rounds) {
  std::vector<ts::QuantileForecast> forecasts;
  std::vector<std::vector<double>> actuals;
  double prefix_sum = 0.0;
  for (size_t r = warmup_rounds; r < rounds; ++r) {
    const size_t at = eval_start + r * kReplanEvery;
    if (at + kSelHorizon > series.size() || at < kContext) {
      continue;
    }
    const forecast::Forecaster* model =
        cls.models[tier_by_round.empty() ? 0 : tier_by_round[r]].get();
    const forecast::ForecastInput input =
        forecast::ForecastInput::Window(series, at, kContext);
    auto forecast = model->PredictSeeded(input, kEvalSeedBase + r);
    RPAS_CHECK(forecast.ok()) << forecast.status().ToString();
    std::vector<double> prefix(
        series.values.begin() + static_cast<long>(at),
        series.values.begin() + static_cast<long>(at + kReplanEvery));
    prefix_sum += ts::PrefixMeanWql(*forecast, prefix);
    forecasts.push_back(std::move(*forecast));
    actuals.emplace_back(
        series.values.begin() + static_cast<long>(at),
        series.values.begin() + static_cast<long>(at + kSelHorizon));
  }
  RPAS_CHECK(!forecasts.empty());
  ServedScore score;
  score.wql = ts::EvaluateForecasts(forecasts, actuals, ScalingLevels()).mean_wql;
  score.prefix_wql = prefix_sum / static_cast<double>(forecasts.size());
  return score;
}

/// Steady-state accuracy of every ladder tier on a class-representative
/// tenant trace: the data the bench derives each class's accuracy SLO from
/// (and the numbers an operator would budget tiers with).
std::vector<ServedScore> MeasureTierBaselines(const ProfileClass& cls,
                                              const ts::TimeSeries& series,
                                              size_t eval_start,
                                              size_t rounds,
                                              size_t warmup_rounds) {
  std::vector<ServedScore> baselines;
  for (size_t tier = 0; tier < cls.models.size(); ++tier) {
    const std::vector<size_t> fixed(rounds, tier);
    baselines.push_back(ScoreServedWql(cls, series, eval_start, rounds,
                                       fixed, warmup_rounds));
  }
  return baselines;
}

/// Derives the class accuracy SLO from calibration-window tier baselines,
/// emulating an operator that budgets per-tenant targets: the settle tier
/// is the cheapest tier whose full-horizon wQL is competitive with the top
/// tier's, and the promote trigger is placed between the settle tier's
/// prefix wQL (what the selector observes) and the next cheaper tier's, so
/// the ladder climbs exactly that far and holds in the dead band.
double DeriveWqlBound(const std::vector<ServedScore>& baselines) {
  const size_t top = baselines.size() - 1;
  size_t settle = top;
  for (size_t t = 0; t < top; ++t) {
    if (baselines[t].prefix_wql <=
        (1.0 + kCompetitiveSlack) * baselines[top].prefix_wql) {
      settle = t;
      break;
    }
  }
  double trigger = 0.0;
  if (settle == top) {
    // Nothing cheaper is competitive: place the trigger safely below every
    // lower tier's accuracy so the ladder climbs briskly to the top (which
    // cannot promote further, so no hold margin is needed there).
    double floor = baselines[0].prefix_wql;
    for (size_t t = 1; t < top; ++t) {
      floor = std::min(floor, baselines[t].prefix_wql);
    }
    trigger = 0.8 * floor;
  } else if (settle == 0) {
    trigger = kHoldMargin * baselines[0].prefix_wql;
  } else {
    // Hold at the settle tier with margin against rolling-window noise,
    // while staying below the next cheaper tier so it still promotes.
    trigger = std::max(kHoldMargin * baselines[settle].prefix_wql,
                       std::sqrt(baselines[settle].prefix_wql *
                                 baselines[settle - 1].prefix_wql));
    trigger = std::min(trigger, 0.9 * baselines[settle - 1].prefix_wql);
  }
  return trigger / (1.0 + select::SelectorOptions().promote_hysteresis);
}

CellResult RunCell(const ProfileClass& cls, size_t tenant,
                   Strategy strategy, const ts::TimeSeries& series,
                   size_t eval_start, size_t num_steps) {
  core::OnlineLoopOptions loop;
  loop.replan_every = kReplanEvery;
  loop.cluster.node_capacity = cls.config.theta;
  loop.cluster.initial_nodes = 2;
  // Scale-out lag: 40% of steps defer requested adds by two steps — the
  // actuation environment TRUE pre-scaling is designed for (capacity must
  // be requested ahead of the spike to be standing when it arrives).
  loop.faults.actuation_delay_rate = 0.4;
  loop.faults.actuation_delay_steps = 2;
  loop.faults.seed = 77 + tenant;

  // This run's ladder: the class's shared deterministic tiers, then a
  // DeepAR restored from the class checkpoint, which starts from the
  // model's seeded sampling stream whatever ran before or beside it.
  std::unique_ptr<forecast::Forecaster> deepar =
      MakeDeepAr(kSelHorizon, ScalingLevels(), cls.quick, /*run=*/0);
  RPAS_CHECK(deepar->LoadCheckpoint(cls.deepar_checkpoint).ok()) << cls.name;
  const core::RobustAutoScalingManager deepar_manager(
      deepar.get(), std::make_unique<core::RobustQuantileAllocator>(0.95),
      cls.config);
  std::vector<const core::RobustAutoScalingManager*> ladder;
  for (const auto& manager : cls.managers) {
    ladder.push_back(manager.get());
  }
  ladder.push_back(&deepar_manager);

  size_t fixed_tier = 0;
  switch (strategy) {
    case Strategy::kAllSeasonal:
      fixed_tier = 0;
      break;
    case Strategy::kAllDeepar:
      fixed_tier = ladder.size() - 1;
      break;
    case Strategy::kAdaptive:
      loop.selection = MakeSelection(cls, ladder, /*prescale=*/true);
      break;
    case Strategy::kAdaptiveNoPrescale:
      loop.selection = MakeSelection(cls, ladder, /*prescale=*/false);
      break;
  }
  const bool adaptive = loop.selection.mode == core::SelectionMode::kAdaptive;
  const core::RobustAutoScalingManager* base =
      adaptive ? ladder[0] : ladder[fixed_tier];

  // A private registry times the planning rounds: the loop observes each
  // round's planning wall time into "online.plan_ms".
  obs::MetricsRegistry timing(/*enabled=*/true);
  loop.metrics = &timing;
  auto result =
      core::RunOnlineLoop(*base, series, eval_start, num_steps, loop);
  RPAS_CHECK(result.ok()) << result.status().ToString();

  CellResult cell;
  cell.cls = cls.name;
  cell.tenant = tenant;
  cell.strategy = strategy;
  cell.rounds = result->plans_made;
  cell.us_per_round = 1000.0 *
                      timing.GetHistogram("online.plan_ms", {}, false)->sum() /
                      static_cast<double>(std::max<size_t>(1, cell.rounds));
  cell.slo_violation_rate = result->slo_violation_rate;

  // Spike-window SLO violations: steps whose realized workload runs at or
  // above kSpikeWorkloadRatio x the tenant's history mean.
  const double spike_level =
      kSpikeWorkloadRatio * series.Slice(0, eval_start).Mean();
  for (const auto& step : result->steps) {
    if (step.workload >= spike_level) {
      ++cell.spike_steps;
      cell.spike_violations += step.slo_violated ? 1 : 0;
    }
  }

  std::vector<size_t> tier_by_round;
  if (adaptive) {
    tier_by_round = result->selection.tier_by_round;
    const auto& sel = result->selection;
    cell.final_tier = sel.final_tier;
    cell.pattern = std::string(WorkloadPatternToString(sel.pattern));
    cell.switches = sel.selector.switches;
    cell.prescale_activations = sel.prescaler.activations;
    cell.prescale_rollbacks = sel.prescaler.rollbacks;
    cell.rollback_ok = sel.prescaler.activations == sel.prescaler.rollbacks;
    for (size_t tier : tier_by_round) {
      cell.cost_units += kTierCostUnits[tier];
    }
  } else {
    cell.final_tier = fixed_tier;
    tier_by_round.assign(cell.rounds, fixed_tier);
    cell.cost_units =
        static_cast<double>(cell.rounds) * kTierCostUnits[fixed_tier];
  }
  // Steady state: the leading 40% of rounds is adaptation warmup
  // (classifier seeding + ladder climb) and is excluded from the wQL
  // comparison for every strategy alike.
  const ServedScore score = ScoreServedWql(
      cls, series, eval_start, cell.rounds, tier_by_round,
      2 * cell.rounds / 5);
  cell.wql = score.prefix_wql;
  cell.horizon_wql = score.wql;
  return cell;
}

struct Aggregate {
  Strategy strategy = Strategy::kAllSeasonal;
  double mean_wql = 0.0;
  double mean_us_per_round = 0.0;
  double cost_units = 0.0;
  size_t spike_violations = 0;
};

void RunAdaptiveSelection(const BenchOptions& options, Report* report) {
  std::vector<ProfileClass> classes;
  classes.push_back(MakeProfileClass(trace::AlibabaProfile(), options));
  classes.push_back(MakeProfileClass(trace::GoogleProfile(), options));

  // Fleet mix skews easy: most tenants are seasonal Alibaba-like, a
  // minority are bursty Google-like (index = count per class).
  const size_t easy_tenants = options.quick ? 3 : 6;
  const size_t hard_tenants = options.quick ? 1 : 2;
  const size_t history_days = 2;
  const size_t eval_days = options.quick ? 2 : 4;
  const size_t eval_start = history_days * kStepsPerDay;
  const size_t num_steps = eval_days * kStepsPerDay;

  // Per-class tier baselines on the class's first tenant. The calibration
  // window (tenant history before eval_start) is what an operator has at
  // budgeting time; it derives the class accuracy SLO. The eval window is
  // reported for context only.
  const size_t eval_rounds = num_steps / kReplanEvery;
  const size_t calib_rounds =
      (eval_start - kSelHorizon - kContext) / kReplanEvery + 1;
  Table& tiers_table = report->AddTable(
      "tiers", "Tier baselines (calibration window derives the SLO)",
      {"class", "tier", "model", "calib_wQL", "calib_prefix", "eval_wQL",
       "eval_prefix"});
  for (size_t c = 0; c < classes.size(); ++c) {
    ProfileClass& cls = classes[c];
    const size_t first_tenant = c == 0 ? 0 : easy_tenants;
    trace::SyntheticTraceGenerator gen(
        cls.profile, options.seed + 7919 * (first_tenant + 1));
    const ts::TimeSeries series = gen.GenerateCpu(
        (history_days + eval_days) * kStepsPerDay + kSelHorizon);
    const std::vector<ServedScore> calib = MeasureTierBaselines(
        cls, series, kContext, calib_rounds, /*warmup_rounds=*/0);
    const std::vector<ServedScore> eval = MeasureTierBaselines(
        cls, series, eval_start, eval_rounds, 2 * eval_rounds / 5);
    cls.wql_bound = DeriveWqlBound(calib);
    for (size_t t = 0; t < calib.size(); ++t) {
      tiers_table.AddRow({cls.name, Int(t), kTierNames[t],
                          Real(calib[t].wql, 5), Real(calib[t].prefix_wql, 5),
                          Real(eval[t].wql, 5), Real(eval[t].prefix_wql, 5)});
    }
    report->Check(cls.name + "_wql_bound",
                  cls.wql_bound > 0.0 && calib.size() == std::size(kTierNames),
                  StrFormat("derived from %zu tiers: %.5f > 0", calib.size(),
                            cls.wql_bound));
  }
  tiers_table.Print();
  for (const ProfileClass& cls : classes) {
    std::printf("%s: derived selector wql_bound = %.5f\n", cls.name.c_str(),
                cls.wql_bound);
  }
  std::fflush(stdout);

  struct TenantSpec {
    const ProfileClass* cls = nullptr;
    size_t tenant = 0;
  };
  std::vector<TenantSpec> tenants;
  for (size_t t = 0; t < easy_tenants; ++t) {
    tenants.push_back({&classes[0], t});
  }
  for (size_t t = 0; t < hard_tenants; ++t) {
    tenants.push_back({&classes[1], easy_tenants + t});
  }

  // One cell per tenant; the four strategies run back-to-back inside a
  // cell so their wall-clock ratios see the same pool contention.
  std::vector<std::vector<CellResult>> per_tenant(tenants.size());
  RunScenarios(tenants.size(), [&](size_t i) {
    const TenantSpec& spec = tenants[i];
    trace::SyntheticTraceGenerator gen(
        spec.cls->profile, options.seed + 7919 * (spec.tenant + 1));
    const ts::TimeSeries series = gen.GenerateCpu(
        (history_days + eval_days) * kStepsPerDay + kSelHorizon);
    for (Strategy strategy : kStrategies) {
      per_tenant[i].push_back(RunCell(*spec.cls, spec.tenant, strategy,
                                      series, eval_start, num_steps));
    }
  });

  Table& table = report->AddTable(
      "grid", "Adaptive selection: strategy x tenant-mix grid",
      {"class", "tenant", "strategy", "wQL", "hzn_wQL", "us/round", "$cost",
       "slo_viol", "spike_viol", "tier", "pattern", "switches", "prescale"});
  std::vector<Aggregate> aggregates;
  for (Strategy strategy : kStrategies) {
    Aggregate agg;
    agg.strategy = strategy;
    aggregates.push_back(agg);
  }
  bool rollback_ok = true;
  bool all_strategies = true;
  uint64_t adaptive_activations = 0;
  for (const auto& tenant_cells : per_tenant) {
    all_strategies =
        all_strategies && tenant_cells.size() == std::size(kStrategies);
    for (const CellResult& c : tenant_cells) {
      table.AddRow(
          {c.cls, Int(c.tenant), StrategyName(c.strategy), Real(c.wql, 5),
           Real(c.horizon_wql, 5), Real(c.us_per_round), Real(c.cost_units),
           Real(c.slo_violation_rate),
           StrFormat("%zu/%zu", c.spike_violations, c.spike_steps),
           Int(c.final_tier), c.pattern, Int(c.switches),
           StrFormat("%llu/%llu",
                     static_cast<unsigned long long>(c.prescale_rollbacks),
                     static_cast<unsigned long long>(
                         c.prescale_activations))});
      if (c.strategy == Strategy::kAdaptive) {
        adaptive_activations += c.prescale_activations;
      }
      Aggregate& agg = aggregates[static_cast<size_t>(c.strategy)];
      agg.mean_wql += c.wql;
      agg.mean_us_per_round += c.us_per_round;
      agg.cost_units += c.cost_units;
      agg.spike_violations += c.spike_violations;
      rollback_ok = rollback_ok && c.rollback_ok;
    }
  }
  const double n = static_cast<double>(tenants.size());
  for (Aggregate& agg : aggregates) {
    agg.mean_wql /= n;
    agg.mean_us_per_round /= n;
  }

  const Aggregate& deepar =
      aggregates[static_cast<size_t>(Strategy::kAllDeepar)];
  const Aggregate& adaptive =
      aggregates[static_cast<size_t>(Strategy::kAdaptive)];
  const Aggregate& noprescale =
      aggregates[static_cast<size_t>(Strategy::kAdaptiveNoPrescale)];
  const double speedup =
      adaptive.mean_us_per_round > 0.0
          ? deepar.mean_us_per_round / adaptive.mean_us_per_round
          : 0.0;
  table.Print();
  std::printf(
      "\nfleet means: adaptive in-force wQL %.5f vs all-deepar %.5f "
      "(%.1f%%), "
      "us/round %.1f vs %.1f (%.1fx), $cost %.0f vs %.0f, spike "
      "violations %zu (prescale) vs %zu (noprescale)\n",
      adaptive.mean_wql, deepar.mean_wql,
      deepar.mean_wql > 0.0
          ? 100.0 * (adaptive.mean_wql - deepar.mean_wql) / deepar.mean_wql
          : 0.0,
      adaptive.mean_us_per_round, deepar.mean_us_per_round, speedup,
      adaptive.cost_units, deepar.cost_units, adaptive.spike_violations,
      noprescale.spike_violations);
  report->Check("wql_within_1.02x_deepar",
                adaptive.mean_wql <= 1.02 * deepar.mean_wql,
                StrFormat("adaptive in-force wQL %.5f <= 1.02 x all-deepar "
                          "%.5f",
                          adaptive.mean_wql, deepar.mean_wql));
  // The bound reads the deterministic tier cost units the strategies
  // served, not us/round: the tenants run concurrently, so a round's wall
  // time also counts whatever shares its core, and identical full runs
  // read 3.3x to 8.9x. The units price a DeepAR round at 100
  // seasonal-naive rounds, below the 120-240 it measures, so the unit
  // ratio understates the time ratio.
  const double cost_ratio = adaptive.cost_units > 0.0
                                ? deepar.cost_units / adaptive.cost_units
                                : 0.0;
  report->Check("planning_speedup_3x", cost_ratio >= 3.0,
                StrFormat("all-deepar / adaptive $cost %.2fx >= 3x "
                          "(us/round %.2fx)",
                          cost_ratio, speedup));
  report->Check("prescale_spike_violations",
                adaptive.spike_violations <= noprescale.spike_violations,
                StrFormat("prescale %zu <= noprescale %zu",
                          adaptive.spike_violations,
                          noprescale.spike_violations));
  report->Check("floor_rollbacks", rollback_ok,
                "activations == rollbacks in every row");
  report->Check("prescaler_activated", adaptive_activations > 0,
                StrFormat("%llu adaptive pre-scale activations > 0",
                          static_cast<unsigned long long>(
                              adaptive_activations)));
  report->Check("strategies_ran", all_strategies,
                "every tenant ran all four strategies");
  for (const ProfileClass& cls : classes) {
    std::remove(cls.deepar_checkpoint.c_str());
  }
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Adaptive selection: per-tenant classifier + forecaster ladder + TRUE "
      "pre-scaling vs fixed all-seasonal / all-DeepAR strategies");
  rpas::bench::Report report("adaptive_selection", options);
  rpas::bench::RunAdaptiveSelection(options, &report);
  return report.Finish();
}
