#ifndef RPAS_BENCH_BENCH_COMMON_H_
#define RPAS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scaling_config.h"
#include "forecast/arima.h"
#include "forecast/deepar.h"
#include "forecast/forecaster.h"
#include "forecast/mlp.h"
#include "forecast/qb5000.h"
#include "forecast/tft.h"
#include "obs/export.h"
#include "trace/generator.h"
#include "ts/time_series.h"

namespace rpas::bench {

/// Paper experimental constants (§IV-A/B): context and prediction length of
/// 12 hours at 10-minute aggregation = 72 steps.
inline constexpr size_t kContext = 72;
inline constexpr size_t kHorizon = 72;
inline constexpr size_t kStepsPerDay = 144;

/// Quantile grids from the paper: A = {0.1..0.9} for forecasting accuracy
/// (§IV-B), {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99} for scaling (§IV-C).
std::vector<double> AccuracyLevels();
std::vector<double> ScalingLevels();

/// Run-mode knobs shared by every bench binary. `--quick` shrinks training
/// budgets for smoke runs; `--json=PATH` writes the run's report (schema
/// rpas_bench.v1, see Report); `--metrics-out=PATH` enables the global
/// metrics registry and trace buffer for the run and writes a structured
/// JSONL export to PATH (plus a flat CSV next to it) at exit.
struct BenchOptions {
  bool quick = false;
  uint64_t seed = 2024;
  std::string json;
  std::string metrics_out;
};

/// A bench-specific integer flag `--name=N` understood by ParseArgs beside
/// the shared set. N must be a whole integer in [min, max]; `*value` is
/// left as it was when the flag is absent.
struct IntFlag {
  std::string flag;  ///< e.g. "--tenants="
  std::string help;  ///< one-line description for --help
  int64_t min = 1;
  int64_t max = std::numeric_limits<int64_t>::max();
  int64_t* value = nullptr;
};

/// Parses the shared flags (--quick, --seed=N, --json=PATH,
/// --metrics-out=PATH) plus any `extra` bench-specific flags, and turns on
/// the global obs::MetricsRegistry and obs::TraceBuffer when --metrics-out
/// was given. `--help`/`-h` prints a usage summary built from
/// `description` and the flag table, then exits 0. An unknown argument, or
/// a malformed or out-of-range number, is an error: usage goes to stderr
/// naming the flag and the process exits 2 — a typoed flag must never
/// silently run the default configuration.
BenchOptions ParseArgs(int argc, char** argv,
                       const std::string& description = "",
                       const std::vector<IntFlag>& extra = {});

// The bench binaries' two timers (common::Stopwatch underneath). Each timed
// block runs under one obs::Span named `span_name` (a string literal), so
// hand-rolled Stopwatch loops and span instrumentation cannot drift apart.

/// Times one call of `fn` and returns its wall-clock milliseconds: for
/// stateful calls that must not repeat, such as a fleet run, a cold
/// acquire or a refresh.
double TimedMillis(const char* span_name, const std::function<void()>& fn);

/// A repeat timer's result: the mean over the final timed block.
struct Timing {
  double ms = 0.0;         ///< mean wall-clock milliseconds per call
  int64_t iterations = 0;  ///< calls in the final timed block
};

/// Times repeated calls of `fn`: one untimed warm-up call (first touch,
/// lazy allocations), then timed blocks whose call count grows until a
/// block lasts at least 15 ms (`quick`) or 80 ms, long enough for the
/// clock's resolution to be noise. Each block's span is tagged with its
/// call count.
Timing TimedRepeats(const char* span_name, bool quick,
                    const std::function<void()>& fn);

/// Makes `value` observable to the compiler, so that a timed call whose
/// result is otherwise unused cannot be optimized away: an empty asm
/// statement that may read it through its address.
template <typename T>
inline void KeepObservable(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// One benchmark dataset: the full trace plus its train/test split
/// (test = last `test_days` days).
struct Dataset {
  std::string name;
  ts::TimeSeries full;
  ts::TimeSeries train;
  ts::TimeSeries test;
};

/// Builds the Alibaba-like and Google-like CPU traces used throughout the
/// benches (35 days of 10-minute samples; last 6 days held out).
Dataset MakeDataset(const trace::TraceProfile& profile, uint64_t seed);
std::vector<Dataset> MakeBothDatasets(uint64_t seed);

/// Paper model lineup with fixed hyperparameters (the paper fixes
/// hyperparameters across horizons and sets lr = 1e-3 for all models).
/// `levels` selects the quantile grid each model is trained/queried for;
/// `run` perturbs initialization seeds (Table I averages 3 runs).
std::unique_ptr<forecast::Forecaster> MakeArima(
    size_t horizon, std::vector<double> levels);
std::unique_ptr<forecast::Forecaster> MakeMlp(
    size_t horizon, std::vector<double> levels, bool quick, int run);
std::unique_ptr<forecast::Forecaster> MakeDeepAr(
    size_t horizon, std::vector<double> levels, bool quick, int run);
std::unique_ptr<forecast::Forecaster> MakeTft(
    size_t horizon, std::vector<double> levels, bool quick, int run,
    const std::string& name = "TFT");
std::unique_ptr<forecast::Forecaster> MakeQb5000(size_t horizon, bool quick,
                                                 int run);

/// Scaling configuration used by the auto-scaling benches: theta chosen so
/// the average trace demands ~4 compute nodes.
core::ScalingConfig MakeScalingConfig(const Dataset& dataset);

/// Parallel scenario runner: executes `fn(i)` for every i in [0, count),
/// fanning the cells across the RPAS thread pool (RPAS_NUM_THREADS
/// workers; 1 = serial). Cells must be independent: each writes only its
/// own result slot and derives any randomness from its own index, so the
/// emitted tables are identical at every thread count. Used by the bench
/// binaries to sweep model x dataset x run grids concurrently.
void RunScenarios(size_t count, const std::function<void(size_t)>& fn);

// ---------------------------------------------------------------------------
// Run report: the tables a bench prints, its named checks, and its
// --json / --metrics-out outputs.
// ---------------------------------------------------------------------------

/// One table cell: text, an integer, a real or a flag, made by the string
/// constructor or Int/Real/Bool. It holds its printed form and its JSON
/// value. A default cell is "not applicable": printed "-", written null.
struct Cell {
  Cell() = default;
  Cell(const std::string& s);  // NOLINT(runtime/explicit)
  Cell(const char* s) : Cell(std::string(s)) {}  // NOLINT

  std::string text = "-";
  std::string json = "null";
};

Cell Int(int64_t value);
/// Printed %.*g at `precision` (as Num); written at full precision.
Cell Real(double value, int precision = 4);
/// Printed "yes"/"no"; written true/false.
Cell Bool(bool value);

/// An aligned-text table owned by a Report. Every row has one cell per
/// column, so every row of the JSON table has the same keys.
class Table {
 public:
  void AddRow(std::vector<Cell> row);
  /// Prints the title and the aligned table to stdout.
  void Print() const;

 private:
  friend class Report;
  Table(std::string name, std::string title, std::vector<std::string> columns)
      : name_(std::move(name)),
        title_(std::move(title)),
        columns_(std::move(columns)) {}

  std::string name_;
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// One bench run's report. A bench adds its tables and named checks, then
/// returns Finish() from main. The --json file (schema `rpas_bench.v1`)
/// holds `bench`, a `provenance` block (RpasThreads(), hardware threads,
/// SIMD level, compiler, build type, quick, seed), `tables` (name, title,
/// columns, rows keyed by column), `checks` (name, ok, detail) and `ok`,
/// the conjunction of the checks. Each bound a bench enforces is one named
/// check, so it is written once and reported by every run.
class Report {
 public:
  Report(std::string bench, BenchOptions options);

  /// Adds a table keyed `name` in the JSON that prints under `title`. The
  /// reference stays valid for the report's lifetime.
  Table& AddTable(std::string name, std::string title,
                  std::vector<std::string> columns);

  /// Records a named check with a human-readable account of the values it
  /// compared. Returns `ok`.
  bool Check(std::string name, bool ok, std::string detail = "");

  /// Prints every check (failures also to stderr), writes the --json
  /// report and the --metrics-out export (global registry, trace buffer
  /// and `decisions`), and returns the exit code: 0 when every check
  /// passed, 1 otherwise. An output that cannot be written is logged and
  /// does not change the exit code.
  int Finish(std::vector<obs::ScalingDecision> decisions = {});

 private:
  struct CheckResult {
    std::string name;
    bool ok = true;
    std::string detail;
  };

  std::string ToJson() const;

  std::string bench_;
  BenchOptions options_;
  std::deque<Table> tables_;
  std::vector<CheckResult> checks_;
};

/// One call that TimeCalls times. `name` labels its row and its span (a
/// string literal).
struct TimedCall {
  const char* name;
  std::function<void()> call;
};

/// Times each call with TimedRepeats, in order, into a new report table
/// with the columns `benchmark`, `real_ms` (mean per call) and
/// `iterations`, prints the table and records the check
/// `timings_positive`. Tables II and III are made this way.
void TimeCalls(Report* report, bool quick, std::string name,
               std::string title, const std::vector<TimedCall>& calls);

/// Formats a double with %.4g-style compactness.
std::string Num(double value, int precision = 4);

}  // namespace rpas::bench

#endif  // RPAS_BENCH_BENCH_COMMON_H_
