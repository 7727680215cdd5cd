#ifndef RPAS_SERVE_REGISTRY_H_
#define RPAS_SERVE_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "forecast/forecaster.h"
#include "obs/metrics.h"

namespace rpas::serve {

/// Identity of one immutable model version in the registry. Versions are
/// append-only: retraining a tenant's forecaster registers a new version
/// under the same name rather than mutating the old one, so an in-flight
/// request always serves against exactly the weights it asked for.
struct ModelId {
  std::string name;
  uint64_t version = 1;

  bool operator==(const ModelId& other) const {
    return version == other.version && name == other.name;
  }
  bool operator<(const ModelId& other) const {
    if (name != other.name) {
      return name < other.name;
    }
    return version < other.version;
  }
  /// "name@v<version>", used in errors and logs.
  std::string ToString() const;
};

/// Creates an unfitted forecaster configured identically to the one that
/// wrote the version's checkpoint (LoadCheckpoint verifies the
/// architecture signature, so a mismatched factory fails loudly).
using ForecasterFactory =
    std::function<std::unique_ptr<forecast::Forecaster>()>;

/// Versioned checkpoint store with a bounded warm-model cache.
///
/// Registration records where a version's checkpoint lives and how to
/// rebuild its architecture; Acquire() returns a ready-to-serve model,
/// loading the checkpoint on a cache miss and keeping recently used models
/// warm under an LRU policy bounded by a byte budget (checkpoint file
/// size is the accounting unit). Eviction only drops the registry's
/// reference — callers holding a shared_ptr keep serving the evicted
/// model; it is freed when the last request finishes.
///
/// Concurrency (DESIGN.md §15): readers resolve against an immutable
/// snapshot published through an atomic shared_ptr, so a warm-cache
/// Acquire() — the fleet hot path — performs ZERO mutex acquisitions
/// (snapshot load, map lookup, one relaxed LRU-tick store, striped
/// counter increment). Cache misses take a per-version load latch: the
/// first thread to find a version cold loads the checkpoint outside every
/// lock while later callers of the *same* version wait on that version's
/// latch (and count as hits when the load lands, exactly as they would
/// have under the old serialized mutex); callers of *other* versions —
/// warm or cold — are never blocked. All bookkeeping (byte accounting,
/// LRU eviction, snapshot rebuild) happens on the mutator path under a
/// single registry mutex that the hot path never touches. The
/// MutexAcquisitions() probe counts every internal mutex acquisition so
/// tests can assert the warm path stays lock-free.
class ModelRegistry {
 public:
  struct Options {
    /// Upper bound on the summed checkpoint bytes of warm (resident)
    /// models. The bound always holds after Acquire() returns — a version
    /// larger than the whole budget is served but never kept resident.
    size_t cache_budget_bytes = 1 << 20;
    /// Relative budget charge of memory-mapped checkpoint bytes. Mapped
    /// rpasq.v1 weights live in the page cache — shareable across
    /// processes and reclaimable by the kernel under pressure — so a
    /// mapped byte costs the serving host less than a private heap byte.
    /// An entry's budget charge is heap + round(mapped * weight), clamped
    /// to [0, 1]; 1.0 restores the old bytes-are-bytes accounting and 0.0
    /// makes mapped models free. Eviction satisfies
    /// charged_bytes <= cache_budget_bytes (resident_bytes may exceed the
    /// budget when mapped models are discounted — by design).
    double mapped_byte_weight = 0.25;
    /// Metrics sink for the serve.registry.* instruments; null routes to
    /// obs::MetricsRegistry::Global(). Must outlive the registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Cache effectiveness counters; values agree exactly with the
  /// serve.registry.* metrics when a dedicated registry is injected.
  struct CacheStats {
    int64_t hits = 0;        ///< Acquire() served from the warm cache
    int64_t misses = 0;      ///< Acquire() had to load a checkpoint
    int64_t evictions = 0;   ///< warm models dropped to respect the budget
    int64_t loads = 0;       ///< checkpoint loads (== misses)
    size_t resident_bytes = 0;
    size_t resident_models = 0;
    /// Split of resident_bytes by backing store. mapped_bytes counts
    /// rpasq.v1 checkpoints served straight from their file mapping —
    /// page-cache-shareable, reclaimable by the kernel; heap_bytes counts
    /// private allocations (models restored through LoadCheckpoint, plus
    /// the no-mmap fallback buffer). mapped_bytes + heap_bytes ==
    /// resident_bytes.
    size_t mapped_bytes = 0;
    size_t heap_bytes = 0;
    /// Budget-weighted residency: heap_bytes plus the mapped_byte_weight
    /// share of mapped_bytes. This — not resident_bytes — is what
    /// eviction bounds by cache_budget_bytes.
    size_t charged_bytes = 0;
    /// Models whose weights are still alive because a caller holds a
    /// shared_ptr — warm entries with outstanding references plus evicted
    /// entries whose last holder has not finished. Eviction cannot free
    /// these, so real memory use is resident_bytes + the bytes of evicted
    /// pinned models, not resident_bytes alone. Under concurrent readers
    /// this is conservative (a reader holding a just-superseded snapshot
    /// can make a model look pinned for the instant of the overlap);
    /// quiesced, it is exact.
    size_t pinned_models = 0;
    size_t pinned_bytes = 0;  ///< summed checkpoint bytes of pinned models
  };

  explicit ModelRegistry(Options options);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a version whose checkpoint already exists at `path`.
  /// The factory must produce a model whose SupportsCheckpoint() is true
  /// and whose configuration matches the checkpoint. Fails with
  /// FailedPrecondition on a duplicate id and InvalidArgument when the
  /// checkpoint file is missing or empty.
  ///
  /// The load path follows the model's capability: a model whose
  /// SupportsQuantizedCheckpoint() is true (MLP, DeepAR) is served in place
  /// from the memory-mapped rpasq.v1 file at any storage dtype, including
  /// the fp64 files SaveCheckpoint() writes; any other model restores onto
  /// the heap through LoadCheckpoint(). Because files are mapped, the file
  /// at `path` must only ever be replaced by atomic rename (as
  /// SaveCheckpoint() and the converter do) — truncating or rewriting it in
  /// place while a model serves from the mapping is undefined behavior
  /// (SIGBUS on a shrunk file).
  Status RegisterVersion(const ModelId& id, const std::string& path,
                         ForecasterFactory factory);

  /// Persists `fitted` to `path` via SaveCheckpoint(), then registers the
  /// version. The fitted model itself is NOT cached — the first Acquire()
  /// round-trips through the checkpoint, proving the version is servable
  /// from disk alone.
  Status RegisterTrained(const ModelId& id, const std::string& path,
                         const forecast::Forecaster& fitted,
                         ForecasterFactory factory);

  /// Returns a ready-to-serve model for the version, loading and caching
  /// it if cold. NotFound for unregistered ids; load errors propagate.
  /// Warm hits are lock-free (see the class comment).
  Result<std::shared_ptr<const forecast::Forecaster>> Acquire(
      const ModelId& id);

  /// Highest registered version for `name`; NotFound when absent.
  /// Lock-free (reads the current snapshot).
  Result<ModelId> Latest(const std::string& name) const;

  size_t NumRegistered() const;
  CacheStats GetCacheStats() const;
  const Options& options() const { return options_; }

  /// Test probe: total internal mutex acquisitions (registry mutex plus
  /// every per-version load latch) since construction. A warm-hit
  /// Acquire() leaves this unchanged — the lock-free hot-path guarantee
  /// is asserted against this counter, not inferred from code review.
  uint64_t MutexAcquisitions() const {
    return mutex_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  /// Registration-time identity shared between the master table and every
  /// snapshot generation. Immutable except for the atomics and the
  /// latch-guarded load flag; outlives any snapshot that references it.
  struct VersionInfo {
    std::string path;
    ForecasterFactory factory;
    /// Checkpoint file size recorded at registration, refreshed from the
    /// actually-loaded file on a successful load (the two can differ when
    /// the checkpoint was replaced on disk in between). Atomic because
    /// the cold-load path reads it outside the registry mutex.
    std::atomic<size_t> registered_bytes{0};
    /// Logical LRU clock, touched with a relaxed store on every Acquire —
    /// shared across snapshot generations so hits never take a lock.
    std::atomic<uint64_t> last_used{0};
    /// Per-version load latch: serializes cold loads of THIS version only.
    /// `loading` is guarded by `load_mu`; waiters block on `load_cv` and
    /// re-check the published snapshot on wake.
    std::mutex load_mu;
    std::condition_variable load_cv;
    bool loading = false;
  };

  /// One reader-visible version entry: identity plus the strong resident
  /// reference (null = cold in this snapshot).
  struct SnapshotEntry {
    std::shared_ptr<VersionInfo> info;
    std::shared_ptr<const forecast::Forecaster> resident;
  };

  /// Immutable generation of the registry, swapped atomically on every
  /// mutation (registration, load commit, eviction). Readers resolve
  /// wholly against one snapshot; old generations die when the last
  /// in-flight reader drops them.
  struct Snapshot {
    std::map<ModelId, SnapshotEntry> entries;
  };

  /// Mutator-side (mu_-guarded) state for one version.
  struct Entry {
    std::shared_ptr<VersionInfo> info;
    size_t bytes = 0;    ///< accounting size while resident
    size_t mapped = 0;   ///< mmap-backed share of `bytes` while resident
    size_t heap = 0;     ///< heap-backed share of `bytes` while resident
    size_t charged = 0;  ///< heap + weighted mapped; the entry's budget cost
    std::shared_ptr<const forecast::Forecaster> resident;  ///< null = cold
    /// Observes the model after eviction: while callers still hold the
    /// shared_ptr the weights stay in memory even though `resident` is
    /// null, and this entry counts toward pinned_bytes until it expires.
    std::weak_ptr<const forecast::Forecaster> alive;
    /// True when the current snapshot carries a strong reference to
    /// `resident` (set by RebuildSnapshotLocked) — the pinned-ness
    /// use_count threshold must discount that internal reference.
    bool in_snapshot = false;

    /// True when callers outside the registry keep the weights alive.
    /// Internal references: the master `resident` plus (when published)
    /// the current snapshot's copy. Call with mu_ held.
    bool PinnedLocked() const {
      if (resident != nullptr) {
        const long internal = in_snapshot ? 2 : 1;
        return resident.use_count() > internal;
      }
      return !alive.expired();
    }
  };

  /// Locks the registry mutex, counting the acquisition for the probe.
  std::unique_lock<std::mutex> LockRegistry() const {
    mutex_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(mu_);
  }
  /// Locks a version's load latch, counting the acquisition.
  std::unique_lock<std::mutex> LockLatch(VersionInfo* info) const {
    mutex_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(info->load_mu);
  }

  /// Miss path: waits on / claims the per-version latch, loads the
  /// checkpoint outside all locks, commits under mu_ and republishes the
  /// snapshot. `info` pins the version identity across the load.
  Result<std::shared_ptr<const forecast::Forecaster>> AcquireCold(
      const ModelId& id, std::shared_ptr<VersionInfo> info);

  /// Builds the fully-loaded model (mapped or heap, by the model's
  /// capability) into the out-params without touching registry state —
  /// any failure returns a typed Status with the registry bit-for-bit
  /// unchanged, so a checkpoint deleted or corrupted between registration
  /// and first Acquire() is an error on that call, not a poisoned cache.
  /// Runs outside every lock (the caller holds only the per-version
  /// `loading` claim).
  Status LoadVersion(const ModelId& id, VersionInfo* info,
                     std::shared_ptr<const forecast::Forecaster>* out,
                     size_t* bytes_out, size_t* mapped_out,
                     size_t* heap_out) const;

  /// Drops least-recently-used warm models until the budget holds,
  /// preferring unpinned victims (evicting a pinned model cannot free its
  /// bytes until the last in-flight request drops the shared_ptr).
  /// Call with mu_ held; callers must RebuildSnapshotLocked() after.
  void EvictToBudgetLocked();

  /// Fills `pinned_models` / `pinned_bytes` on `stats` from the current
  /// entry table. Call with mu_ held.
  void FillPinnedLocked(CacheStats* stats) const;

  /// Publishes a fresh immutable snapshot built from entries_ and marks
  /// which entries the new generation pins. Call with mu_ held.
  void RebuildSnapshotLocked();

  /// Publishes resident/mapped/heap/pinned byte totals to the gauges.
  /// Call with mu_ held.
  void PublishBytesLocked();

  Options options_;
  mutable std::mutex mu_;
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
  std::map<ModelId, Entry> entries_;
  size_t resident_bytes_ = 0;
  size_t mapped_bytes_ = 0;
  size_t heap_bytes_ = 0;
  size_t charged_bytes_ = 0;
  std::atomic<uint64_t> tick_{0};
  std::atomic<int64_t> stat_hits_{0};
  std::atomic<int64_t> stat_misses_{0};
  std::atomic<int64_t> stat_evictions_{0};
  std::atomic<int64_t> stat_loads_{0};
  mutable std::atomic<uint64_t> mutex_acquisitions_{0};
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* loads_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
  obs::Gauge* mapped_bytes_gauge_ = nullptr;
  obs::Gauge* heap_bytes_gauge_ = nullptr;
  obs::Gauge* charged_bytes_gauge_ = nullptr;
  obs::Gauge* pinned_bytes_gauge_ = nullptr;
};

}  // namespace rpas::serve

#endif  // RPAS_SERVE_REGISTRY_H_
