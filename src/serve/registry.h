#ifndef RPAS_SERVE_REGISTRY_H_
#define RPAS_SERVE_REGISTRY_H_

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
/// Concurrency (DESIGN.md §15): one mutex guards the entry table, the
/// byte accounting and the hit/miss ledger. Acquire() holds it across the
/// lookup, a cold load, the commit and eviction, so concurrent Acquires of
/// one cold version load it once and the rest count as hits (loads ==
/// misses always holds). Cold loads of *different* versions on one shared
/// registry serialize too; no in-tree workload does that — per-shard
/// registries each serve only their own shard, and a shared registry is
/// pre-warmed — so give each concurrent loader its own registry
/// (FleetOptions::shard_registry_factory) rather than sharing a cold one.
/// A ForecasterFactory runs under the mutex and must not call back into
/// the registry.
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
    /// An entry's budget charge is heap + round(mapped * weight), with the
    /// weight clamped to [0, 1] (±Inf clamp; NaN is a programming error and
    /// aborts the constructor); 1.0 restores the old bytes-are-bytes
    /// accounting and 0.0 makes mapped models free. Eviction satisfies
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
    /// pinned models, not resident_bytes alone.
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
  Result<std::shared_ptr<const forecast::Forecaster>> Acquire(
      const ModelId& id);

  /// Highest registered version for `name`; NotFound when absent.
  Result<ModelId> Latest(const std::string& name) const;

  size_t NumRegistered() const;
  CacheStats GetCacheStats() const;
  const Options& options() const { return options_; }

 private:
  /// One registered version: its registration, LRU tick and residency.
  struct Entry {
    std::string path;
    ForecasterFactory factory;
    /// Checkpoint file size recorded at registration, refreshed from the
    /// actually-loaded file on a successful load (the two can differ when
    /// the checkpoint was replaced on disk in between).
    size_t registered_bytes = 0;
    uint64_t last_used = 0;  ///< logical LRU clock of the last Acquire
    size_t bytes = 0;    ///< accounting size while resident
    size_t mapped = 0;   ///< mmap-backed share of `bytes` while resident
    size_t heap = 0;     ///< heap-backed share of `bytes` while resident
    size_t charged = 0;  ///< heap + weighted mapped; the entry's budget cost
    std::shared_ptr<const forecast::Forecaster> resident;  ///< null = cold
    /// Observes the model after eviction: while callers still hold the
    /// shared_ptr the weights stay in memory even though `resident` is
    /// null, and this entry counts toward pinned_bytes until it expires.
    std::weak_ptr<const forecast::Forecaster> alive;

    /// True when callers outside the registry keep the weights alive.
    /// `resident` is the registry's only reference, so any other owner is
    /// a caller.
    bool Pinned() const {
      return resident != nullptr ? resident.use_count() > 1
                                 : !alive.expired();
    }
  };

  /// Builds the fully-loaded model (mapped or heap, by the model's
  /// capability) into the out-params without touching registry state —
  /// any failure returns a typed Status with the registry bit-for-bit
  /// unchanged, so a checkpoint deleted or corrupted between registration
  /// and first Acquire() is an error on that call, not a poisoned cache.
  Status LoadVersion(const ModelId& id, const Entry& entry,
                     std::shared_ptr<const forecast::Forecaster>* out,
                     size_t* bytes_out, size_t* mapped_out,
                     size_t* heap_out) const;

  /// Drops least-recently-used warm models until the budget holds,
  /// preferring unpinned victims (evicting a pinned model cannot free its
  /// bytes until the last in-flight request drops the shared_ptr).
  /// Call with mu_ held.
  void EvictToBudgetLocked();

  /// Fills `pinned_models` / `pinned_bytes` on `stats` from the current
  /// entry table. Call with mu_ held.
  void FillPinnedLocked(CacheStats* stats) const;

  /// Publishes resident/mapped/heap/charged/pinned byte totals to the
  /// gauges. Call with mu_ held.
  void PublishBytesLocked();

  Options options_;
  mutable std::mutex mu_;  ///< guards entries_, tick_ and stats_
  std::map<ModelId, Entry> entries_;
  uint64_t tick_ = 0;
  /// The ledger and the byte totals; resident_models and the pinned
  /// fields are filled on read.
  CacheStats stats_;
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
