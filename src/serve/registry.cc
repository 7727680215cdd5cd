#include "serve/registry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "common/strings.h"
#include "nn/qcheckpoint.h"

namespace rpas::serve {
namespace {

/// Size of the file at `path` in bytes, or 0 when missing/unreadable.
size_t FileSizeBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return 0;
  }
  const std::streamoff size = in.tellg();
  return size > 0 ? static_cast<size_t>(size) : 0;
}

/// Budget charge of a resident entry: every heap byte at full price plus
/// the weighted share of its mapped bytes.
size_t ChargedBytes(size_t heap, size_t mapped, double weight) {
  return heap + static_cast<size_t>(std::llround(
                    static_cast<double>(mapped) * weight));
}

}  // namespace

std::string ModelId::ToString() const {
  return StrFormat("%s@v%llu", name.c_str(),
                   static_cast<unsigned long long>(version));
}

ModelRegistry::ModelRegistry(Options options) : options_(options) {
  options_.mapped_byte_weight =
      std::clamp(options_.mapped_byte_weight, 0.0, 1.0);
  snapshot_.store(std::make_shared<const Snapshot>(),
                  std::memory_order_release);
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options_.metrics);
  // The hit/miss/load counters fire inside the parallel shard phase, so
  // they are striped: per-thread-slot cache lines, merged exactly on read.
  hits_ = metrics->GetStripedCounter("serve.registry.hits");
  misses_ = metrics->GetStripedCounter("serve.registry.misses");
  evictions_ = metrics->GetCounter("serve.registry.evictions");
  loads_ = metrics->GetStripedCounter("serve.registry.loads");
  resident_bytes_gauge_ = metrics->GetGauge("serve.registry.resident_bytes");
  mapped_bytes_gauge_ = metrics->GetGauge("serve.registry.mapped_bytes");
  heap_bytes_gauge_ = metrics->GetGauge("serve.registry.heap_bytes");
  charged_bytes_gauge_ = metrics->GetGauge("serve.registry.charged_bytes");
  pinned_bytes_gauge_ = metrics->GetGauge("serve.registry.pinned_bytes");
}

Status ModelRegistry::RegisterVersion(const ModelId& id,
                                      const std::string& path,
                                      ForecasterFactory factory) {
  if (id.name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("model factory must be non-null");
  }
  const size_t bytes = FileSizeBytes(path);
  if (bytes == 0) {
    return Status::InvalidArgument(
        StrFormat("%s: checkpoint missing or empty: %s",
                  id.ToString().c_str(), path.c_str()));
  }
  auto lock = LockRegistry();
  if (entries_.count(id) > 0) {
    return Status::FailedPrecondition(id.ToString() +
                                      ": version already registered");
  }
  auto info = std::make_shared<VersionInfo>();
  info->path = path;
  info->factory = std::move(factory);
  info->registered_bytes.store(bytes, std::memory_order_relaxed);
  Entry entry;
  entry.info = std::move(info);
  entries_.emplace(id, std::move(entry));
  RebuildSnapshotLocked();
  return Status::OK();
}

Status ModelRegistry::RegisterTrained(const ModelId& id,
                                      const std::string& path,
                                      const forecast::Forecaster& fitted,
                                      ForecasterFactory factory) {
  if (!fitted.SupportsCheckpoint()) {
    return Status::InvalidArgument(fitted.Name() +
                                   ": model does not support checkpointing");
  }
  RPAS_RETURN_IF_ERROR(fitted.SaveCheckpoint(path));
  return RegisterVersion(id, path, std::move(factory));
}

Result<std::shared_ptr<const forecast::Forecaster>> ModelRegistry::Acquire(
    const ModelId& id) {
  // Hot path: resolve wholly against the published snapshot. A warm hit
  // is a snapshot load, a map lookup, a relaxed LRU-tick store and a
  // striped counter increment — no mutex, no CAS loop.
  std::shared_ptr<VersionInfo> info;
  {
    std::shared_ptr<const Snapshot> snap =
        snapshot_.load(std::memory_order_acquire);
    auto it = snap->entries.find(id);
    if (it == snap->entries.end()) {
      return Status::NotFound(id.ToString() + ": version not registered");
    }
    const SnapshotEntry& se = it->second;
    se.info->last_used.store(
        tick_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (se.resident != nullptr) {
      stat_hits_.fetch_add(1, std::memory_order_relaxed);
      hits_->Increment();
      return se.resident;
    }
    info = se.info;
    // `snap` dies here: the cold path must not keep the pre-load snapshot
    // generation alive, or its strong references would make this call's
    // eviction victims look pinned while the new generation is published.
  }
  return AcquireCold(id, std::move(info));
}

Result<std::shared_ptr<const forecast::Forecaster>> ModelRegistry::AcquireCold(
    const ModelId& id, std::shared_ptr<VersionInfo> info) {
  {
    // Per-version latch: wait out any in-flight load of THIS version.
    // Loads of other versions hold their own latches — a cold tenant
    // never blocks a different tenant's hit or load.
    auto latch = LockLatch(info.get());
    while (info->loading) {
      info->load_cv.wait(latch);
    }
    // Re-check the snapshot: the load we waited on may have landed (then
    // this call is a hit, exactly as it would have been when the old
    // global mutex serialized it behind the loader), or it may have
    // failed (then this caller claims the latch and retries the load —
    // each failing Acquire counts its own miss+load, as before).
    std::shared_ptr<const Snapshot> snap =
        snapshot_.load(std::memory_order_acquire);
    auto it = snap->entries.find(id);
    if (it != snap->entries.end() && it->second.resident != nullptr) {
      stat_hits_.fetch_add(1, std::memory_order_relaxed);
      hits_->Increment();
      return it->second.resident;
    }
    info->loading = true;
  }

  stat_misses_.fetch_add(1, std::memory_order_relaxed);
  stat_loads_.fetch_add(1, std::memory_order_relaxed);
  misses_->Increment();
  loads_->Increment();

  // The expensive step — factory + checkpoint map/load — runs outside
  // every lock; only same-version callers (blocked on the latch) wait.
  std::shared_ptr<const forecast::Forecaster> shared;
  size_t bytes = 0;
  size_t mapped = 0;
  size_t heap = 0;
  Status status = LoadVersion(id, info.get(), &shared, &bytes, &mapped, &heap);

  if (status.ok()) {
    // Commit on the mutator path: byte accounting, eviction and the new
    // snapshot generation, all under the registry mutex the hot path
    // never touches.
    auto lock = LockRegistry();
    auto mit = entries_.find(id);
    if (mit == entries_.end()) {
      status = Status::Internal(id.ToString() +
                                ": entry vanished during load");
    } else {
      Entry& entry = mit->second;
      if (entry.resident != nullptr) {
        // Defensive: the latch serializes loaders, so this cannot happen;
        // serve the committed model rather than double-count bytes.
        shared = entry.resident;
      } else {
        entry.bytes = bytes;
        entry.mapped = mapped;
        entry.heap = heap;
        entry.charged =
            ChargedBytes(heap, mapped, options_.mapped_byte_weight);
        entry.resident = shared;
        entry.alive = shared;
        entry.in_snapshot = false;
        info->registered_bytes.store(bytes, std::memory_order_relaxed);
        resident_bytes_ += bytes;
        mapped_bytes_ += mapped;
        heap_bytes_ += heap;
        charged_bytes_ += entry.charged;
        EvictToBudgetLocked();
        RebuildSnapshotLocked();
        PublishBytesLocked();
      }
    }
  }

  {
    auto latch = LockLatch(info.get());
    info->loading = false;
  }
  info->load_cv.notify_all();

  if (!status.ok()) {
    return status;
  }
  return shared;
}

Status ModelRegistry::LoadVersion(
    const ModelId& id, VersionInfo* info,
    std::shared_ptr<const forecast::Forecaster>* out, size_t* bytes_out,
    size_t* mapped_out, size_t* heap_out) const {
  std::unique_ptr<forecast::Forecaster> model = info->factory();
  if (model == nullptr) {
    return Status::Internal(id.ToString() + ": factory returned null");
  }
  // Everything below builds into locals; the caller commits entry state
  // and byte accounting only when every step has succeeded — any failure
  // (a missing file is Map's or LoadCheckpoint's IoError) leaves the
  // registry unchanged. Models that can serve from a mapping do; the rest
  // restore onto the heap.
  size_t bytes = 0;
  size_t mapped = 0;
  size_t heap = 0;
  if (model->SupportsQuantizedCheckpoint()) {
    RPAS_ASSIGN_OR_RETURN(std::shared_ptr<const nn::QuantizedCheckpoint> ckpt,
                          nn::QuantizedCheckpoint::Map(info->path));
    bytes = ckpt->file_bytes();
    mapped = ckpt->mapped_bytes();
    heap = ckpt->heap_bytes();
    RPAS_RETURN_IF_ERROR(model->LoadQuantizedCheckpoint(std::move(ckpt)));
  } else {
    RPAS_RETURN_IF_ERROR(model->LoadCheckpoint(info->path));
    // Re-stat after the successful load: the registered size is stale
    // when the checkpoint was atomically replaced since registration.
    bytes = FileSizeBytes(info->path);
    if (bytes == 0) {
      // Replaced mid-load; keep the registered size.
      bytes = info->registered_bytes.load(std::memory_order_relaxed);
    }
    heap = bytes;
  }
  *out = std::shared_ptr<const forecast::Forecaster>(std::move(model));
  *bytes_out = bytes;
  *mapped_out = mapped;
  *heap_out = heap;
  return Status::OK();
}

void ModelRegistry::RebuildSnapshotLocked() {
  auto snap = std::make_shared<Snapshot>();
  for (auto& [id, entry] : entries_) {
    SnapshotEntry se;
    se.info = entry.info;
    se.resident = entry.resident;
    entry.in_snapshot = entry.resident != nullptr;
    snap->entries.emplace(id, std::move(se));
  }
  snapshot_.store(std::shared_ptr<const Snapshot>(std::move(snap)),
                  std::memory_order_release);
}

void ModelRegistry::PublishBytesLocked() {
  resident_bytes_gauge_->Set(static_cast<double>(resident_bytes_));
  mapped_bytes_gauge_->Set(static_cast<double>(mapped_bytes_));
  heap_bytes_gauge_->Set(static_cast<double>(heap_bytes_));
  charged_bytes_gauge_->Set(static_cast<double>(charged_bytes_));
  CacheStats pinned;
  FillPinnedLocked(&pinned);
  pinned_bytes_gauge_->Set(static_cast<double>(pinned.pinned_bytes));
}

void ModelRegistry::EvictToBudgetLocked() {
  // LRU scan over the (small) version map; the just-loaded entry carries
  // the newest tick, so it is evicted only when it alone exceeds the
  // budget — the bound holds unconditionally. The bound is on the
  // *charged* bytes (heap at full price, mapped bytes discounted by
  // mapped_byte_weight), so a fleet of mmap-served rpasq models packs
  // denser than its raw file sizes suggest. Two-tier victim choice:
  // evicting a pinned model drops only the registry's reference while
  // in-flight holders keep the weights alive, so the bytes are not really
  // freed — prefer the LRU *unpinned* victim and fall back to a pinned one
  // only when every resident model is pinned.
  while (charged_bytes_ > options_.cache_budget_bytes) {
    auto victim = entries_.end();
    auto pinned_victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.resident == nullptr) {
        continue;
      }
      const uint64_t used =
          it->second.info->last_used.load(std::memory_order_relaxed);
      if (it->second.PinnedLocked()) {
        if (pinned_victim == entries_.end() ||
            used < pinned_victim->second.info->last_used.load(
                       std::memory_order_relaxed)) {
          pinned_victim = it;
        }
        continue;
      }
      if (victim == entries_.end() ||
          used < victim->second.info->last_used.load(
                     std::memory_order_relaxed)) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      victim = pinned_victim;
    }
    if (victim == entries_.end()) {
      break;  // nothing resident; budget of 0 with no cache
    }
    victim->second.resident.reset();
    victim->second.in_snapshot = false;
    resident_bytes_ -= victim->second.bytes;
    mapped_bytes_ -= victim->second.mapped;
    heap_bytes_ -= victim->second.heap;
    charged_bytes_ -= victim->second.charged;
    victim->second.mapped = 0;
    victim->second.heap = 0;
    victim->second.charged = 0;
    stat_evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_->Increment();
  }
}

void ModelRegistry::FillPinnedLocked(CacheStats* stats) const {
  stats->pinned_models = 0;
  stats->pinned_bytes = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.PinnedLocked()) {
      ++stats->pinned_models;
      stats->pinned_bytes += entry.bytes;
    }
  }
}

Result<ModelId> ModelRegistry::Latest(const std::string& name) const {
  std::shared_ptr<const Snapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  // Map order is (name asc, version asc): the last entry with a matching
  // name is the highest version.
  Result<ModelId> latest = Status::NotFound(name + ": no versions registered");
  for (const auto& [id, entry] : snap->entries) {
    if (id.name == name) {
      latest = id;
    }
  }
  return latest;
}

size_t ModelRegistry::NumRegistered() const {
  std::shared_ptr<const Snapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  return snap->entries.size();
}

ModelRegistry::CacheStats ModelRegistry::GetCacheStats() const {
  auto lock = LockRegistry();
  CacheStats stats;
  stats.hits = stat_hits_.load(std::memory_order_relaxed);
  stats.misses = stat_misses_.load(std::memory_order_relaxed);
  stats.evictions = stat_evictions_.load(std::memory_order_relaxed);
  stats.loads = stat_loads_.load(std::memory_order_relaxed);
  stats.resident_bytes = resident_bytes_;
  stats.mapped_bytes = mapped_bytes_;
  stats.heap_bytes = heap_bytes_;
  stats.charged_bytes = charged_bytes_;
  stats.resident_models = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.resident != nullptr) {
      ++stats.resident_models;
    }
  }
  FillPinnedLocked(&stats);
  return stats;
}

}  // namespace rpas::serve
