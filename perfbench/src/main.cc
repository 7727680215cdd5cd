// Repository benchmark driver. Runs one named workload through the
// program's public drivers and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}:
//
//   rpas_perfbench --workload loop_deepar --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an uninstrumented run.
// --trace 1 runs the same timed calls, then one traced set-up and the
// distinct calls again with the decorators injected, and reports the
// per-layer metrics (spans go to --trace-out). Exit status is 0 only when
// every invariant held and every repeated call reproduced its outputs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "hostspeed.h"
#include "report.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: rpas_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR] "
               "[--trace-out FILE] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      end = const_cast<char*>(value) + std::strlen(value);
      if (!args.trace && std::strcmp(value, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (args.seconds <= 0.0) {
    Usage("--seconds must be positive");
  }
  return args;
}

/// Run state shared by the timed and traced phases.
class Runner {
 public:
  explicit Runner(Workload* workload) : workload_(workload) {}

  /// Runs the workload's set-up at least three times and until two seconds
  /// are spent (at most nine), and stores the median duration in reference
  /// seconds (hostspeed.h; set-up runs on one thread).
  bool Setup(double* setup_s) {
    const HostSpeed speed(1);
    std::vector<double> times;
    rpas::Stopwatch total;
    double before = speed.Probe();
    for (int r = 0; r < 3 || (r < 9 && total.ElapsedSeconds() < 2.0); ++r) {
      rpas::Stopwatch watch;
      const bool ok = SetupOnce(nullptr);
      const double wall = watch.ElapsedSeconds();
      if (!ok) {
        return false;
      }
      const double after = speed.Probe();
      times.push_back(HostSpeed::ToReference(wall, before, after));
      std::fprintf(stderr, "set-up %d: %.4f s raw, %.4f s reference\n", r,
                   wall, times.back());
      before = after;
    }
    *setup_s = Median(times);
    return true;
  }

  /// One set-up; every set-up must rebuild the first one's state exactly.
  bool SetupOnce(SpanLog* log) {
    const rpas::Status status = workload_->Setup(log);
    if (!status.ok()) {
      Fail("set-up failed: " + status.ToString());
      return false;
    }
    const uint64_t fingerprint = workload_->SetupFingerprint();
    if (!setup_fingerprint_.has_value()) {
      setup_fingerprint_ = fingerprint;
    } else if (*setup_fingerprint_ != fingerprint) {
      Fail("set-up is not deterministic: repeated set-up built different "
           "inputs or checkpoints");
    }
    return true;
  }

  /// One driver call; checks its invariants and that a repeated call
  /// reproduces the first call's outputs bit for bit.
  bool Pass(size_t index, SpanLog* log, PassOutcome* out) {
    auto outcome = workload_->RunPass(index, log);
    if (!outcome.ok()) {
      Fail("driver call failed: " + outcome.status().ToString());
      return false;
    }
    *out = std::move(outcome).value();
    for (const std::string& v : out->violations) {
      Fail("invariant violated: " + v);
    }
    const size_t slot = index % workload_->NumPasses();
    auto [it, inserted] = fingerprints_.emplace(slot, out->fingerprint);
    if (!inserted && it->second != out->fingerprint) {
      Fail(std::string(log != nullptr ? "traced" : "repeated") +
           " driver call did not reproduce the timed call's outputs");
    }
    return true;
  }

  void Fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    correct_ = false;
  }

  bool correct() const { return correct_; }

 private:
  Workload* workload_;
  std::optional<uint64_t> setup_fingerprint_;
  std::map<size_t, uint64_t> fingerprints_;
  bool correct_ = true;
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadConfig config;
  config.seed = args.seed;
  config.tiny = args.tiny;
  config.work_dir = args.work_dir;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, config);
  if (workload == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }

  rpas::SetRpasThreads(workload->CallingThreads());

  Provenance provenance;
  provenance.workload = args.workload;
  provenance.seed = args.seed;
  provenance.tiny = args.tiny;
  provenance.git_sha = args.git_sha;
  provenance.rpas_threads = rpas::RpasThreads();
  const std::string provenance_json = ProvenanceJson(provenance);
  std::printf("provenance %s\n", provenance_json.c_str());
  std::fflush(stdout);

  Runner runner(workload.get());
  double setup_s = 0.0;
  if (!runner.Setup(&setup_s)) {
    return 1;
  }

  // Timed phase: the distinct passes first, then repeats until the time
  // budget is spent (at least three calls, so the median has a middle).
  // Every call is bracketed by host-speed probes on as many threads as the
  // call uses, and its wall time is converted to reference seconds.
  const size_t distinct = workload->NumPasses();
  const HostSpeed speed(workload->CallingThreads());
  Pooled pooled;
  std::vector<double> rounds_per_s;
  std::vector<double> raw_rounds_per_s;
  std::vector<double> probes;
  std::vector<std::vector<double>> slot_walls(distinct);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  rpas::Stopwatch budget;
  const size_t min_calls = std::max<size_t>(distinct, 3);
  double before = speed.Probe();
  for (size_t p = 0;
       p < min_calls || budget.ElapsedSeconds() < args.seconds; ++p) {
    PassOutcome out;
    if (!runner.Pass(p, nullptr, &out)) {
      return 1;
    }
    const double after = speed.Probe();
    const double reference_wall =
        HostSpeed::ToReference(out.wall_s, before, after);
    probes.push_back(after);
    before = after;
    slot_walls[p % distinct].push_back(reference_wall);
    if (p < distinct) {
      pooled.Add(out);
      std::fprintf(stderr,
                   "pass %zu: rounds %llu fresh %llu steps %llu slo %llu "
                   "under %.6g over %.6g wall %.4fs\n",
                   p, static_cast<unsigned long long>(out.tenant_rounds),
                   static_cast<unsigned long long>(out.fresh_rounds),
                   static_cast<unsigned long long>(out.tenant_steps),
                   static_cast<unsigned long long>(out.slo_violated_steps),
                   out.under_provision_steps, out.over_provision_steps,
                   out.wall_s);
    }
    const double rounds = static_cast<double>(out.tenant_rounds);
    rounds_per_s.push_back(rounds / reference_wall);
    raw_rounds_per_s.push_back(rounds / out.wall_s);
    attempted += out.tenant_rounds;
    failed += out.counts.error_rounds;
  }
  std::fprintf(stderr,
               "timed: %zu calls, median %.6g rounds/s raw, %.6g at the "
               "reference host speed; median probe %.4f ms per thread "
               "(reference %.4f ms)\n",
               rounds_per_s.size(), Median(raw_rounds_per_s),
               Median(rounds_per_s), Median(probes) * 1e3,
               HostSpeed::kReferenceProbeS * 1e3);

  MetricSet metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(rounds_per_s, setup_s, PeakRssMib(), pooled);
  } else {
    // Traced phase: one set-up that records the model fits (pass 0, outside
    // every driver call), then the same distinct calls with the decorators
    // injected.
    SpanLog log;
    if (!runner.SetupOnce(&log)) {
      return 1;
    }
    Pooled traced;
    ReplayTimes replay;
    double traced_wall = 0.0;
    double traced_reference = 0.0;
    double timed_reference = 0.0;
    before = speed.Probe();
    for (size_t p = 0; p < distinct; ++p) {
      log.SetPass(static_cast<uint32_t>(p + 1));
      PassOutcome out;
      if (!runner.Pass(p, &log, &out)) {
        return 1;
      }
      const double after = speed.Probe();
      traced.Add(out);
      traced_wall += out.wall_s;
      traced_reference += HostSpeed::ToReference(out.wall_s, before, after);
      before = after;
      timed_reference += Median(slot_walls[p]);
      replay.simdb_calls += out.replay.simdb_calls;
      replay.simdb_busy_s += out.replay.simdb_busy_s;
      replay.allocate_calls += out.replay.allocate_calls;
      replay.allocate_busy_s += out.replay.allocate_busy_s;
    }
    const std::vector<SpanRecord> spans = log.spans();
    for (const std::string& v : CheckTracedCounts(spans, traced.counts)) {
      runner.Fail("invariant violated: " + v);
    }
    metrics = PerLayerMetrics(spans, log.errors(), traced, replay,
                              traced_wall,
                              traced_reference / timed_reference - 1.0,
                              workload->CallingThreads());
    if (!args.trace_out.empty() &&
        !log.WriteJsonl(args.trace_out,
                        "{\"provenance\": " + provenance_json + "}")) {
      runner.Fail("cannot write " + args.trace_out);
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      runner.correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return runner.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
