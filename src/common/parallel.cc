#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/logging.h"

namespace rpas {

namespace {

// Set on pool workers for their lifetime, and on a ParallelFor's calling
// thread while it runs chunks beside the call's helpers. A ParallelFor on
// a marked thread runs serially: parallelism has one level, and a pool
// worker never blocks on work that needs pool workers to make progress.
thread_local bool tls_in_parallel_region = false;

std::atomic<int> g_thread_override{0};

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int DefaultThreads() {
  const int fallback = HardwareThreads();
  if (const char* env = std::getenv("RPAS_NUM_THREADS")) {
    const int parsed = ParseThreadCount(env, -1);
    if (parsed < 0) {
      RPAS_LOG(kWarning) << "ignoring invalid RPAS_NUM_THREADS=\"" << env
                         << "\" (want an integer in [1, " << kMaxRpasThreads
                         << "]); using hardware concurrency " << fallback;
      return fallback;
    }
    return parsed;
  }
  return fallback;
}

}  // namespace

int ParseThreadCount(const char* text, int fallback) {
  if (text == nullptr || *text == '\0') {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  // The whole token must be the number: "8x" or "2,4" silently becoming 8
  // or 2 hides a misconfigured deployment. Range errors (errno == ERANGE)
  // and non-positive counts are rejected the same way; values above the
  // cap are clamped rather than rejected (the intent — "as many threads as
  // possible" — is clear).
  if (end == text || *end != '\0' || errno == ERANGE || parsed < 1) {
    return fallback;
  }
  return static_cast<int>(std::min<long>(parsed, kMaxRpasThreads));
}

int RpasThreads() {
  const int override_threads = g_thread_override.load(std::memory_order_relaxed);
  if (override_threads > 0) {
    return override_threads;
  }
  // The environment is read once; later changes go through SetRpasThreads.
  static const int default_threads = DefaultThreads();
  return default_threads;
}

void SetRpasThreads(int num_threads) {
  g_thread_override.store(std::clamp(num_threads, 0, kMaxRpasThreads),
                          std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads) {
  EnsureThreads(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  RPAS_CHECK(task != nullptr) << "ThreadPool::Submit: empty task";
  {
    std::lock_guard<std::mutex> lock(mu_);
    RPAS_CHECK(!shutdown_) << "ThreadPool::Submit after shutdown";
    // Counted before the task becomes visible to workers: a task can only
    // execute after the push below, so tasks_executed <= tasks_submitted
    // holds in every GetStats() snapshot (the monotonic invariant the
    // rpas_obs pool gauges export).
    tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(std::move(task));
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::EnsureThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(0);  // leaked: outlives statics
  return *pool;
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    // Release pairs with GetStats()'s acquire load: a reader that sees
    // this increment also sees the submission increment that preceded it
    // (ordered by the queue mutex), keeping executed <= submitted in
    // every snapshot.
    tasks_executed_.fetch_add(1, std::memory_order_release);
  }
}

ThreadPool::Stats ThreadPool::GetStats() const {
  Stats stats;
  // Executed is read before submitted: every execution is preceded by its
  // submission, so this order (with acquire pairing the worker's release
  // increment) can never observe tasks_executed > tasks_submitted even
  // while tasks are in flight between the two loads.
  stats.tasks_executed = tasks_executed_.load(std::memory_order_acquire);
  stats.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queue_.size();
    stats.max_queue_depth = max_queue_depth_;
    stats.threads = static_cast<int>(workers_.size());
  }
  return stats;
}

namespace {

// State shared between the caller and the helper tasks of one ParallelFor.
// Completion is tracked per *chunk*, not per helper: the caller claims
// chunks itself, so it never waits on a helper that is still queued behind
// unrelated pool work. Helpers hold the state via shared_ptr — one that is
// scheduled after the call already returned finds no chunks left (or the
// failure flag set) and exits without touching `fn`.
struct ParallelForState {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next_chunk{0};
  size_t num_chunks = 0;

  std::mutex mu;
  std::condition_variable done_cv;
  size_t done_chunks = 0;   // chunks whose fn finished (or threw)
  size_t executing = 0;     // workers currently inside fn
  bool failed = false;
  std::exception_ptr first_exception;

  void RunWorker() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (failed) {
          return;  // abandon remaining chunks after a failure
        }
        ++executing;
      }
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) {
        std::lock_guard<std::mutex> lock(mu);
        --executing;
        if (Done()) {
          done_cv.notify_all();  // a waiter may have seen executing > 0
        }
        return;
      }
      const size_t chunk_begin = begin + chunk * grain;
      const size_t chunk_end = std::min(chunk_begin + grain, end);
      std::exception_ptr error;
      try {
        (*fn)(chunk_begin, chunk_end);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        --executing;
        ++done_chunks;
        if (error != nullptr && !failed) {
          failed = true;
          first_exception = error;
        }
        if (Done()) {
          done_cv.notify_all();
        }
      }
    }
  }

  // Caller may return once no fn is executing and either every chunk ran
  // or a failure abandoned the rest. Must hold mu.
  bool Done() const {
    return executing == 0 && (failed || done_chunks == num_chunks);
  }
};

}  // namespace

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  if (grain == 0) {
    grain = 1;
  }
  const size_t range = end - begin;
  const size_t num_chunks = (range + grain - 1) / grain;
  const size_t threads = std::min(
      static_cast<size_t>(RpasThreads()), num_chunks);

  if (threads <= 1 || tls_in_parallel_region) {
    // Serial path: same chunking as the parallel path so `fn` observes
    // identical subranges regardless of the thread count.
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const size_t chunk_begin = begin + chunk * grain;
      fn(chunk_begin, std::min(chunk_begin + grain, end));
    }
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->fn = &fn;
  state->num_chunks = num_chunks;

  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureThreads(static_cast<int>(threads) - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    pool.Submit([state] { state->RunWorker(); });
  }
  // The caller participates and claims chunks itself; RunWorker catches
  // what fn throws, so the mark is always cleared.
  tls_in_parallel_region = true;
  state->RunWorker();
  tls_in_parallel_region = false;

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->Done(); });
  if (state->first_exception != nullptr) {
    std::rethrow_exception(state->first_exception);
  }
}

}  // namespace rpas
