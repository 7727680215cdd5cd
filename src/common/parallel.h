#ifndef RPAS_COMMON_PARALLEL_H_
#define RPAS_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rpas {

/// Number of threads a ParallelFor may use, the calling thread included.
/// Resolution order: SetRpasThreads() override > RPAS_NUM_THREADS
/// environment variable > hardware concurrency. Always >= 1; a value of 1
/// forces every parallel construct down its serial path.
int RpasThreads();

/// Largest thread count RPAS_NUM_THREADS, ParseThreadCount and
/// SetRpasThreads will yield.
/// Oversubscription beyond this is never useful and huge values would
/// make the shared pool spawn unbounded workers.
inline constexpr int kMaxRpasThreads = 256;

/// Strict parser for thread-count configuration strings (the
/// RPAS_NUM_THREADS format). Accepts a base-10 integer that consumes the
/// whole token and is >= 1, clamping to kMaxRpasThreads; anything else —
/// empty string, trailing garbage ("8x"), zero/negative values, numbers
/// that overflow long — returns `fallback`. Pure function, no logging;
/// DefaultThreads() adds the warning when it rejects an environment value.
int ParseThreadCount(const char* text, int fallback);

/// Process-wide thread-count override for tests and benchmarks that
/// compare serial and parallel execution in one process. Pass 0 to restore
/// the environment/hardware default. Values < 0 are treated as 0; values
/// above kMaxRpasThreads are clamped to it.
void SetRpasThreads(int num_threads);

/// Work-queue thread pool. Workers are started in the constructor and
/// joined in the destructor after draining the queue. Tasks must not
/// throw — ParallelFor wraps user callbacks and captures their exceptions
/// before they reach the pool.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// Grows the pool to at least `num_threads` workers (never shrinks).
  void EnsureThreads(int num_threads);

  int num_threads() const;

  /// Scheduling statistics, maintained with cheap atomics on the submit /
  /// execute paths. These describe scheduling, not work semantics — task
  /// counts and queue depths depend on the thread count, so observability
  /// exports treat them as non-deterministic (see obs/metrics.h).
  struct Stats {
    uint64_t tasks_submitted = 0;
    uint64_t tasks_executed = 0;
    size_t queue_depth = 0;      ///< tasks currently waiting
    size_t max_queue_depth = 0;  ///< high-water mark since construction
    int threads = 0;
  };
  Stats GetStats() const;

  /// The process-wide pool used by ParallelFor. Created on first use and
  /// resized on demand to serve RpasThreads() - 1 concurrent helpers (the
  /// calling thread always participates in the work).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  size_t max_queue_depth_ = 0;  // guarded by mu_
};

/// Splits [begin, end) into consecutive chunks of at most `grain`
/// iterations and runs `fn(chunk_begin, chunk_end)` for every chunk,
/// fanning chunks across the shared thread pool. Blocks until all chunks
/// have finished.
///
/// Determinism contract: the partition depends only on (begin, end,
/// grain) — never on the thread count — so a loop whose chunks write
/// disjoint outputs produces bit-identical results for every value of
/// RPAS_NUM_THREADS. Chunks are claimed dynamically, so `fn` must not
/// depend on which thread runs a chunk or in which order chunks run.
///
/// The first exception thrown by `fn` is rethrown on the calling thread
/// after all in-flight chunks have completed (remaining chunks are
/// abandoned). An empty range returns immediately without invoking `fn`;
/// `grain` >= the range size yields a single chunk. `grain` 0 is treated
/// as 1. Parallelism has one level: a call on a pool worker, or on a thread
/// that is running chunks of its own fanned-out call, runs serially on the
/// calling thread, as does every call at RpasThreads() == 1.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace rpas

#endif  // RPAS_COMMON_PARALLEL_H_
