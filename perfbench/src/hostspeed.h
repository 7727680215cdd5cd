#ifndef PERFBENCH_HOSTSPEED_H_
#define PERFBENCH_HOSTSPEED_H_

// Host-speed probe. The benchmark shares its machine with other work whose
// load moves the speed of the same code by up to 2x within a minute, so a
// raw wall time says as much about the neighbours as about the program. Each
// timed interval is therefore bracketed by two probes: a fixed,
// benchmark-owned kernel shaped like the forecasters' inner loop (a small
// LSTM-style recurrence: GEMV, tanh/exp, normal sampling, one allocation per
// step), run on as many threads as the timed work uses. Intervals are
// reported in reference seconds: the time they would take on a host where
// one probe takes kReferenceProbeS per thread. The kernel is not program
// code, so a faster program still reads faster.

namespace perfbench {

class HostSpeed {
 public:
  /// Per-thread probe time of the reference host.
  static constexpr double kReferenceProbeS = 2e-3;

  /// `threads` probes run concurrently, one per thread that does the timed
  /// work (1 for the single-tenant loops, the pool size for the fleets).
  explicit HostSpeed(int threads) : threads_(threads < 1 ? 1 : threads) {}

  /// Runs one probe and returns its mean per-thread wall time.
  double Probe() const;

  /// `seconds` measured between probes that took `before` and `after`,
  /// expressed in reference seconds.
  static double ToReference(double seconds, double before, double after) {
    return seconds * kReferenceProbeS / (0.5 * (before + after));
  }

 private:
  int threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTSPEED_H_
