#include "serve/registry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "common/logging.h"
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
  RPAS_CHECK(!std::isnan(options_.mapped_byte_weight))
      << "ModelRegistry::Options::mapped_byte_weight is NaN";
  options_.mapped_byte_weight =
      std::clamp(options_.mapped_byte_weight, 0.0, 1.0);
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options_.metrics);
  hits_ = metrics->GetCounter("serve.registry.hits");
  misses_ = metrics->GetCounter("serve.registry.misses");
  evictions_ = metrics->GetCounter("serve.registry.evictions");
  loads_ = metrics->GetCounter("serve.registry.loads");
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
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(id) > 0) {
    return Status::FailedPrecondition(id.ToString() +
                                      ": version already registered");
  }
  Entry entry;
  entry.path = path;
  entry.factory = std::move(factory);
  entry.registered_bytes = bytes;
  entries_.emplace(id, std::move(entry));
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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound(id.ToString() + ": version not registered");
  }
  Entry& entry = it->second;
  entry.last_used = ++tick_;
  if (entry.resident != nullptr) {
    ++stats_.hits;
    hits_->Increment();
    return entry.resident;
  }

  // Cold: load under the lock, so a concurrent Acquire of this version
  // waits and then hits. A failed load counts its miss and load and leaves
  // the entry cold; the next Acquire retries.
  ++stats_.misses;
  ++stats_.loads;
  misses_->Increment();
  loads_->Increment();
  std::shared_ptr<const forecast::Forecaster> model;
  size_t bytes = 0;
  size_t mapped = 0;
  size_t heap = 0;
  RPAS_RETURN_IF_ERROR(
      LoadVersion(id, entry, &model, &bytes, &mapped, &heap));
  entry.registered_bytes = bytes;
  entry.bytes = bytes;
  entry.mapped = mapped;
  entry.heap = heap;
  entry.charged = ChargedBytes(heap, mapped, options_.mapped_byte_weight);
  entry.resident = model;
  entry.alive = model;
  stats_.resident_bytes += bytes;
  stats_.mapped_bytes += mapped;
  stats_.heap_bytes += heap;
  stats_.charged_bytes += entry.charged;
  EvictToBudgetLocked();
  PublishBytesLocked();
  return model;
}

Status ModelRegistry::LoadVersion(
    const ModelId& id, const Entry& entry,
    std::shared_ptr<const forecast::Forecaster>* out, size_t* bytes_out,
    size_t* mapped_out, size_t* heap_out) const {
  std::unique_ptr<forecast::Forecaster> model = entry.factory();
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
                          nn::QuantizedCheckpoint::Map(entry.path));
    bytes = ckpt->file_bytes();
    mapped = ckpt->mapped_bytes();
    heap = ckpt->heap_bytes();
    RPAS_RETURN_IF_ERROR(model->LoadQuantizedCheckpoint(std::move(ckpt)));
  } else {
    RPAS_RETURN_IF_ERROR(model->LoadCheckpoint(entry.path));
    // Re-stat after the successful load: the registered size is stale
    // when the checkpoint was atomically replaced since registration.
    bytes = FileSizeBytes(entry.path);
    if (bytes == 0) {
      // Replaced mid-load; keep the registered size.
      bytes = entry.registered_bytes;
    }
    heap = bytes;
  }
  *out = std::shared_ptr<const forecast::Forecaster>(std::move(model));
  *bytes_out = bytes;
  *mapped_out = mapped;
  *heap_out = heap;
  return Status::OK();
}

void ModelRegistry::PublishBytesLocked() {
  resident_bytes_gauge_->Set(static_cast<double>(stats_.resident_bytes));
  mapped_bytes_gauge_->Set(static_cast<double>(stats_.mapped_bytes));
  heap_bytes_gauge_->Set(static_cast<double>(stats_.heap_bytes));
  charged_bytes_gauge_->Set(static_cast<double>(stats_.charged_bytes));
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
  while (stats_.charged_bytes > options_.cache_budget_bytes) {
    auto victim = entries_.end();
    auto pinned_victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = it->second;
      if (entry.resident == nullptr) {
        continue;
      }
      auto& best = entry.Pinned() ? pinned_victim : victim;
      if (best == entries_.end() ||
          entry.last_used < best->second.last_used) {
        best = it;
      }
    }
    if (victim == entries_.end()) {
      victim = pinned_victim;
    }
    if (victim == entries_.end()) {
      break;  // nothing resident; budget of 0 with no cache
    }
    Entry& entry = victim->second;
    entry.resident.reset();
    stats_.resident_bytes -= entry.bytes;
    stats_.mapped_bytes -= entry.mapped;
    stats_.heap_bytes -= entry.heap;
    stats_.charged_bytes -= entry.charged;
    entry.mapped = 0;
    entry.heap = 0;
    entry.charged = 0;
    ++stats_.evictions;
    evictions_->Increment();
  }
}

void ModelRegistry::FillPinnedLocked(CacheStats* stats) const {
  stats->pinned_models = 0;
  stats->pinned_bytes = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.Pinned()) {
      ++stats->pinned_models;
      stats->pinned_bytes += entry.bytes;
    }
  }
}

Result<ModelId> ModelRegistry::Latest(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Map order is (name asc, version asc): the last entry with a matching
  // name is the highest version.
  Result<ModelId> latest = Status::NotFound(name + ": no versions registered");
  for (const auto& [id, entry] : entries_) {
    if (id.name == name) {
      latest = id;
    }
  }
  return latest;
}

size_t ModelRegistry::NumRegistered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ModelRegistry::CacheStats ModelRegistry::GetCacheStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats stats = stats_;
  for (const auto& [id, entry] : entries_) {
    if (entry.resident != nullptr) {
      ++stats.resident_models;
    }
  }
  FillPinnedLocked(&stats);
  return stats;
}

}  // namespace rpas::serve
