#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tensor/kernels.h"

namespace rpas::bench {

std::vector<double> AccuracyLevels() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

std::vector<double> ScalingLevels() {
  return {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
}

namespace {

void PrintUsage(std::FILE* out, const char* program,
                const std::string& description,
                const std::vector<IntFlag>& extra) {
  std::fprintf(out, "usage: %s [flags]\n", program);
  if (!description.empty()) {
    std::fprintf(out, "%s\n", description.c_str());
  }
  std::fprintf(out, "\nflags:\n");
  std::fprintf(out, "  --quick             shrink training budgets (smoke run)\n");
  std::fprintf(out, "  --seed=N            base seed for traces and models (default 2024)\n");
  std::fprintf(out, "  --json=PATH         write the run report (rpas_bench.v1 JSON)\n");
  std::fprintf(out, "  --metrics-out=PATH  write a structured JSONL+CSV run export\n");
  for (const IntFlag& spec : extra) {
    std::fprintf(out, "  %-18s  %s\n", (spec.flag + "N").c_str(),
                 spec.help.c_str());
  }
  std::fprintf(out, "  --help, -h          print this message and exit\n");
}

/// Parses `text` as a whole base-10 integer in [min, max].
bool ParseIntInRange(const char* text, int64_t min, int64_t max,
                     int64_t* out) {
  const Result<int64_t> parsed = ParseInt64(text);
  if (!parsed.ok() || *parsed < min || *parsed > max) {
    return false;
  }
  *out = *parsed;
  return true;
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv, const std::string& description,
                       const std::vector<IntFlag>& extra) {
  BenchOptions options;
  auto usage_error = [&](const char* arg, const std::string& what) {
    std::fprintf(stderr, "%s: %s '%s'\n\n", argv[0], what.c_str(), arg);
    PrintUsage(stderr, argv[0], description, extra);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout, argv[0], description, extra);
      std::exit(0);
    }
    if (std::strcmp(arg, "--quick") == 0) {
      options.quick = true;
      continue;
    }
    if (StartsWith(arg, "--seed=")) {
      int64_t seed = 0;
      if (!ParseIntInRange(arg + 7, 0, std::numeric_limits<int64_t>::max(),
                           &seed)) {
        usage_error(arg, "want an integer >= 0, got");
      }
      options.seed = static_cast<uint64_t>(seed);
      continue;
    }
    if (StartsWith(arg, "--json=")) {
      options.json = arg + 7;
      continue;
    }
    if (StartsWith(arg, "--metrics-out=")) {
      options.metrics_out = arg + std::strlen("--metrics-out=");
      continue;
    }
    const auto spec =
        std::find_if(extra.begin(), extra.end(), [arg](const IntFlag& f) {
          return StartsWith(arg, f.flag);
        });
    if (spec == extra.end()) {
      usage_error(arg, "unknown flag");
    }
    if (!ParseIntInRange(arg + spec->flag.size(), spec->min, spec->max,
                         spec->value)) {
      usage_error(arg, StrFormat("want an integer in [%lld, %lld], got",
                                 static_cast<long long>(spec->min),
                                 static_cast<long long>(spec->max)));
    }
  }
  if (!options.metrics_out.empty()) {
    obs::MetricsRegistry::Global().SetEnabled(true);
    obs::TraceBuffer::Global().SetEnabled(true);
  }
  return options;
}

namespace {

/// Wall-clock milliseconds of `calls` back-to-back calls of `fn`, under one
/// span tagged with the call count.
double BlockMillis(const char* span_name, int64_t calls,
                   const std::function<void()>& fn) {
  obs::Span span(span_name, calls);
  Stopwatch watch;
  for (int64_t i = 0; i < calls; ++i) {
    fn();
  }
  return watch.ElapsedMillis();
}

}  // namespace

double TimedMillis(const char* span_name, const std::function<void()>& fn) {
  return BlockMillis(span_name, 1, fn);
}

Timing TimedRepeats(const char* span_name, bool quick,
                    const std::function<void()>& fn) {
  fn();  // untimed warm-up
  const double target_ms = quick ? 15.0 : 80.0;
  int64_t calls = 1;
  for (;;) {
    const double ms = BlockMillis(span_name, calls, fn);
    if (ms >= target_ms || calls >= (int64_t{1} << 24)) {
      return {ms / static_cast<double>(calls), calls};
    }
    // A block far below the target grows 16x; one near it is sized to
    // overshoot the target by a fifth.
    calls = ms < target_ms / 16.0
                ? calls * 16
                : static_cast<int64_t>(static_cast<double>(calls) *
                                       (1.2 * target_ms / ms)) +
                      1;
  }
}

Dataset MakeDataset(const trace::TraceProfile& profile, uint64_t seed) {
  constexpr size_t kTotalDays = 35;
  constexpr size_t kTestDays = 6;
  trace::SyntheticTraceGenerator gen(profile, seed);
  Dataset dataset;
  dataset.name = profile.name;
  dataset.full = gen.GenerateCpu(kTotalDays * kStepsPerDay);
  auto [train, test] = dataset.full.SplitTail(kTestDays * kStepsPerDay);
  dataset.train = std::move(train);
  dataset.test = std::move(test);
  return dataset;
}

std::vector<Dataset> MakeBothDatasets(uint64_t seed) {
  std::vector<Dataset> datasets;
  datasets.push_back(MakeDataset(trace::AlibabaProfile(), seed));
  datasets.push_back(MakeDataset(trace::GoogleProfile(), seed + 1));
  return datasets;
}

std::unique_ptr<forecast::Forecaster> MakeArima(size_t horizon,
                                                std::vector<double> levels) {
  forecast::ArimaForecaster::Options options;
  options.p = 3;
  options.d = 1;
  options.q = 2;
  options.context_length = kContext;
  options.horizon = horizon;
  options.levels = std::move(levels);
  return std::make_unique<forecast::ArimaForecaster>(options);
}

std::unique_ptr<forecast::Forecaster> MakeMlp(size_t horizon,
                                              std::vector<double> levels,
                                              bool quick, int run) {
  forecast::MlpForecaster::Options options;
  options.context_length = kContext;
  options.horizon = horizon;
  options.hidden_dim = 24;
  options.num_hidden_layers = 1;      // GluonTS SimpleFeedForward parity
  options.batch_size = 32;
  options.train.steps = quick ? 100 : 200;
  options.train.lr = 1e-3;  // paper §IV-A
  options.use_time_features = false;  // GluonTS SimpleFeedForward parity
  options.levels = std::move(levels);
  options.seed = 7 + static_cast<uint64_t>(run) * 1000;
  return std::make_unique<forecast::MlpForecaster>(options);
}

std::unique_ptr<forecast::Forecaster> MakeDeepAr(size_t horizon,
                                                 std::vector<double> levels,
                                                 bool quick, int run) {
  forecast::DeepArForecaster::Options options;
  options.context_length = kContext;
  options.horizon = horizon;
  options.hidden_dim = 32;
  options.batch_size = 8;
  options.num_samples = 100;
  options.student_t_dof = 3.0;
  options.train.steps = quick ? 60 : 300;
  options.train.lr = 1e-3;
  options.levels = std::move(levels);
  options.seed = 11 + static_cast<uint64_t>(run) * 1000;
  return std::make_unique<forecast::DeepArForecaster>(options);
}

std::unique_ptr<forecast::Forecaster> MakeTft(size_t horizon,
                                              std::vector<double> levels,
                                              bool quick, int run,
                                              const std::string& name) {
  forecast::TftForecaster::Options options;
  options.context_length = kContext;
  options.horizon = horizon;
  options.d_model = 16;
  options.num_heads = 2;
  options.batch_size = 3;
  options.train.steps = quick ? 80 : 900;
  options.train.lr = 1e-3;
  options.levels = std::move(levels);
  options.seed = 23 + static_cast<uint64_t>(run) * 1000;
  options.name = name;
  return std::make_unique<forecast::TftForecaster>(options);
}

std::unique_ptr<forecast::Forecaster> MakeQb5000(size_t horizon, bool quick,
                                                 int run) {
  forecast::Qb5000Forecaster::Options options;
  options.context_length = kContext;
  options.horizon = horizon;
  options.lstm_hidden = 24;
  options.batch_size = 8;
  options.train.steps = quick ? 60 : 250;
  options.train.lr = 1e-3;
  options.seed = 31 + static_cast<uint64_t>(run) * 1000;
  return std::make_unique<forecast::Qb5000Forecaster>(options);
}

core::ScalingConfig MakeScalingConfig(const Dataset& dataset) {
  core::ScalingConfig config;
  config.theta = dataset.full.Mean() / 4.0;
  config.min_nodes = 1;
  return config;
}

void RunScenarios(size_t count, const std::function<void(size_t)>& fn) {
  // Grain 1: scenario cells (full train/evaluate pipelines) are heavyweight
  // and few, so each gets its own pool task.
  ParallelFor(0, count, 1, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
  });
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  *out += obs::JsonEscape(s);
  *out += '"';
}

/// Writes one output file. A run's outputs never change its exit code, so
/// a failure is logged and reported as false.
bool WriteOutput(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return static_cast<bool>(out);
}

Cell MakeCell(std::string text, std::string json) {
  Cell cell;
  cell.text = std::move(text);
  cell.json = std::move(json);
  return cell;
}

}  // namespace

Cell::Cell(const std::string& s) : text(s), json() { AppendJsonString(&json, s); }

Cell Int(int64_t value) {
  const std::string text = StrFormat("%lld", static_cast<long long>(value));
  return MakeCell(text, text);
}

Cell Real(double value, int precision) {
  return MakeCell(Num(value, precision), obs::FormatDouble(value));
}

Cell Bool(bool value) {
  return MakeCell(value ? "yes" : "no", value ? "true" : "false");
}

void Table::AddRow(std::vector<Cell> row) {
  RPAS_CHECK(row.size() == columns_.size())
      << name_ << ": row of " << row.size() << " cells, " << columns_.size()
      << " columns";
  rows_.push_back(std::move(row));
}

void Table::Print() const {
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].text.size());
    }
  }
  std::printf("\n=== %s ===\n", title_.c_str());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  std::printf("\n%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].text.c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

Report::Report(std::string bench, BenchOptions options)
    : bench_(std::move(bench)), options_(std::move(options)) {}

Table& Report::AddTable(std::string name, std::string title,
                        std::vector<std::string> columns) {
  tables_.push_back(
      Table(std::move(name), std::move(title), std::move(columns)));
  return tables_.back();
}

bool Report::Check(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
  return ok;
}

std::string Report::ToJson() const {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  std::string out = "{\"schema\":\"rpas_bench.v1\",\"bench\":";
  AppendJsonString(&out, bench_);
  out += StrFormat(
      ",\n\"provenance\":{\"rpas_threads\":%d,\"hardware_threads\":%u,"
      "\"simd\":\"%s\",\"compiler\":",
      RpasThreads(), std::thread::hardware_concurrency(),
      tensor::kernels::LevelName(tensor::kernels::ActiveLevel()));
  AppendJsonString(&out, compiler);
  out += ",\"build_type\":";
  AppendJsonString(&out, RPAS_BUILD_TYPE);
  out += StrFormat(",\"quick\":%s,\"seed\":%llu},\n\"tables\":[",
                   options_.quick ? "true" : "false",
                   static_cast<unsigned long long>(options_.seed));
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t];
    out += t > 0 ? ",\n{\"name\":" : "\n{\"name\":";
    AppendJsonString(&out, table.name_);
    out += ",\"title\":";
    AppendJsonString(&out, table.title_);
    out += ",\"columns\":[";
    for (size_t c = 0; c < table.columns_.size(); ++c) {
      out += c > 0 ? "," : "";
      AppendJsonString(&out, table.columns_[c]);
    }
    out += "],\"rows\":[";
    for (size_t r = 0; r < table.rows_.size(); ++r) {
      out += r > 0 ? ",\n{" : "\n{";
      for (size_t c = 0; c < table.columns_.size(); ++c) {
        out += c > 0 ? "," : "";
        AppendJsonString(&out, table.columns_[c]);
        out += ":";
        out += table.rows_[r][c].json;
      }
      out += "}";
    }
    out += "]}";
  }
  out += "],\n\"checks\":[";
  bool ok = true;
  for (size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& check = checks_[i];
    out += i > 0 ? ",\n{\"name\":" : "\n{\"name\":";
    AppendJsonString(&out, check.name);
    out += check.ok ? ",\"ok\":true,\"detail\":" : ",\"ok\":false,\"detail\":";
    AppendJsonString(&out, check.detail);
    out += "}";
    ok = ok && check.ok;
  }
  out += StrFormat("],\n\"ok\":%s}\n", ok ? "true" : "false");
  return out;
}

int Report::Finish(std::vector<obs::ScalingDecision> decisions) {
  bool ok = true;
  for (const CheckResult& check : checks_) {
    std::printf("check %s: %s  %s\n", check.name.c_str(),
                check.ok ? "ok" : "FAILED", check.detail.c_str());
    if (!check.ok) {
      std::fprintf(stderr, "%s: check %s failed: %s\n", bench_.c_str(),
                   check.name.c_str(), check.detail.c_str());
    }
    ok = ok && check.ok;
  }
  if (!options_.json.empty() && WriteOutput(options_.json, ToJson())) {
    std::printf("report: %s\n", options_.json.c_str());
  }
  if (!options_.metrics_out.empty()) {
    const obs::RunExport run_export(&obs::MetricsRegistry::Global(),
                                    &obs::TraceBuffer::Global(),
                                    std::move(decisions));
    std::string csv_path = options_.metrics_out;
    const size_t dot = csv_path.find_last_of('.');
    const size_t slash = csv_path.find_last_of('/');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
      csv_path.resize(dot);
    }
    csv_path += ".csv";
    if (WriteOutput(options_.metrics_out, run_export.ToJsonl()) &&
        WriteOutput(csv_path, run_export.ToCsv())) {
      std::printf("metrics export: %s (+ %s)\n",
                  options_.metrics_out.c_str(), csv_path.c_str());
    }
  }
  std::fflush(stdout);
  return ok ? 0 : 1;
}

void TimeCalls(Report* report, bool quick, std::string name,
               std::string title, const std::vector<TimedCall>& calls) {
  Table& table = report->AddTable(std::move(name), std::move(title),
                                  {"benchmark", "real_ms", "iterations"});
  bool timed = true;
  for (const TimedCall& call : calls) {
    const Timing timing = TimedRepeats(call.name, quick, call.call);
    table.AddRow({call.name, Real(timing.ms), Int(timing.iterations)});
    timed = timed && timing.ms > 0.0;
  }
  table.Print();
  report->Check("timings_positive", timed,
                StrFormat("real_ms > 0 for all %zu rows", calls.size()));
}

std::string Num(double value, int precision) {
  return StrFormat("%.*g", precision, value);
}

}  // namespace rpas::bench
