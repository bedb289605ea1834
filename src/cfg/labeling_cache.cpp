#include "cfg/labeling_cache.h"

#include <algorithm>
#include <limits>

#include "io/binary_io.h"
#include "obs/metrics.h"
#include "soteria/error.h"

namespace soteria::cfg {

namespace {

/// Labels are ranks below the node count, which fits 32 bits here.
std::vector<std::uint32_t> narrow(const std::vector<Label>& labels) {
  std::vector<std::uint32_t> out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[i] = static_cast<std::uint32_t>(labels[i]);
  }
  return out;
}

}  // namespace

LabelingCache::LabelingCache(std::size_t capacity)
    : LabelingCache(capacity, static_cast<std::uint64_t (*)(const Cfg&)>(
                                  &LabelingCache::content_hash)) {}

LabelingCache::LabelingCache(std::size_t capacity, Hasher hasher)
    : capacity_(capacity), hasher_(std::move(hasher)) {
  if (capacity_ == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "LabelingCache: zero capacity");
  }
  if (!hasher_) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "LabelingCache: null hasher");
  }
}

std::uint64_t LabelingCache::content_hash(const Cfg& cfg) {
  // Each value as its 8 little-endian (host) bytes.
  std::uint64_t h = io::kFnv1aBasis;
  const auto mix = [&h](std::uint64_t value) {
    h = io::fnv1a(&value, sizeof(value), h);
  };
  mix(cfg.entry());
  mix(cfg.node_count());
  for (const auto& [u, v] : cfg.graph().edges()) {
    mix(u);
    mix(v);
  }
  return h;
}

LabelingCache::Key LabelingCache::make_key(const Cfg& cfg) {
  const auto& g = cfg.graph();
  Key key;
  key.entry = static_cast<std::uint32_t>(cfg.entry());
  key.nodes = static_cast<std::uint32_t>(cfg.node_count());
  key.edges.reserve(2 * g.edge_count());
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    for (const graph::NodeId v : g.successors(u)) {
      key.edges.push_back(static_cast<std::uint32_t>(u));
      key.edges.push_back(static_cast<std::uint32_t>(v));
    }
  }
  return key;
}

NodeLabelings LabelingCache::labels(const Cfg& cfg, ExactLabeling) {
  if (cfg.node_count() == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "LabelingCache::labels: empty CFG");
  }
  if (cfg.node_count() > std::numeric_limits<std::uint32_t>::max()) {
    return label_both(cfg);  // too wide for a compact entry
  }
  Key key = make_key(cfg);
  const std::uint64_t hash = hasher_(cfg);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto bucket = buckets_.find(hash); bucket != buckets_.end()) {
      for (const auto& it : bucket->second) {
        if (it->key == key) {
          lru_.splice(lru_.begin(), lru_, it);
          ++stats_.hits;
          obs::registry().counter_add("soteria.cache.labeling.hits");
          return NodeLabelings{{it->dbl.begin(), it->dbl.end()},
                               {it->lbl.begin(), it->lbl.end()}};
        }
      }
    }
    ++stats_.misses;
    obs::registry().counter_add("soteria.cache.labeling.misses");
  }

  // Compute outside the lock: concurrent misses on distinct CFGs must
  // not serialize on the expensive graph analytics.
  NodeLabelings labelings = label_both(cfg);

  std::lock_guard<std::mutex> lock(mutex_);
  // Another thread may have inserted the same CFG while we computed;
  // labeling is deterministic, so just return without duplicating.
  if (const auto bucket = buckets_.find(hash); bucket != buckets_.end()) {
    for (const auto& it : bucket->second) {
      if (it->key == key) return labelings;
    }
  }
  lru_.push_front(Entry{hash, std::move(key), narrow(labelings.dbl),
                        narrow(labelings.lbl)});
  buckets_[hash].push_back(lru_.begin());
  while (lru_.size() > capacity_) {
    const auto victim = std::prev(lru_.end());
    auto& bucket = buckets_[victim->hash];
    bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
    if (bucket.empty()) buckets_.erase(victim->hash);
    lru_.erase(victim);
    ++stats_.evictions;
    obs::registry().counter_add("soteria.cache.labeling.evictions");
  }
  return labelings;
}

LabelingCache::Stats LabelingCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t LabelingCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void LabelingCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  buckets_.clear();
  stats_ = Stats{};
}

}  // namespace soteria::cfg
