// Cross-phase cache of DBL/LBL labelings.
//
// Labeling is a pure function of CFG content, yet the training flow
// (`pipeline.fit` -> training `extract` -> `calibrate`) and repeated
// batch analysis re-derive the same labelings for the same CFGs — and
// labeling is a large extraction cost (exact centrality sweeps every
// source of every biconnected block). `LabelingCache` memoizes
// `label_both` keyed by a 64-bit content hash of the CFG (entry + node
// count + edge list).
//
// Correctness under collisions: every entry stores the full canonical
// key alongside the hash and verifies it on lookup, so two CFGs that
// collide in the hash can never serve each other's labelings (the
// cache tests construct collisions via an injected degenerate hasher).
// Because labeling is deterministic, cached results are bit-identical
// to uncached computation — the cache changes *when* work happens,
// never *what* is computed.
//
// Footprint: entries hold node ids and labels as 32-bit values (half
// the bytes of the public size_t form) and widen them on a hit. CFGs
// whose node count does not fit 32 bits are labeled directly and never
// cached.
//
// Thread safety: one mutex guards the LRU structure; the labeling
// itself is computed outside the lock, so concurrent misses on
// different CFGs don't serialize. Hit/miss/eviction totals are exposed
// via `stats()` and mirrored to the observability counters
// `soteria.cache.labeling.{hits,misses,evictions}`.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cfg/cfg.h"
#include "cfg/labeling.h"

namespace soteria::cfg {

/// Capacity-bounded, thread-safe LRU cache of `label_both` results.
class LabelingCache {
 public:
  /// Hash over CFG content; injectable so tests can force collisions.
  using Hasher = std::function<std::uint64_t(const Cfg&)>;

  /// Cache holding at most `capacity` entries (LRU eviction). Throws
  /// core::Error{kInvalidArgument} for zero capacity — disable caching by not
  /// constructing one (SoteriaConfig::labeling_cache_capacity = 0).
  explicit LabelingCache(std::size_t capacity);

  /// As above with a custom content hasher (tests only).
  LabelingCache(std::size_t capacity, Hasher hasher);

  /// The DBL/LBL labelings of `cfg`: served from the cache when an
  /// entry with identical content exists, computed via label_both and
  /// inserted otherwise. Throws core::Error{kInvalidArgument} for an empty CFG
  /// (nothing is cached in that case).
  [[nodiscard]] NodeLabelings labels(const Cfg& cfg, ExactLabeling = {});

  /// Monotonic accounting since construction (or clear()).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drops every entry and zeroes the stats.
  void clear();

  /// Default content hash: FNV-1a over entry, node count, and the edge
  /// list in DiGraph::edges() order. Deliberately *shape-addressed*:
  /// two binaries whose decoders produce identical CFGs hash equal and
  /// share one labeling entry. Decoder identity is kept out of
  /// feature-store keys separately, via the frontend name hashed into
  /// the pipeline fingerprint.
  [[nodiscard]] static std::uint64_t content_hash(const Cfg& cfg);

 private:
  /// Canonical CFG content; compared on lookup so hash collisions are
  /// detected instead of served.
  struct Key {
    std::uint32_t entry = 0;
    std::uint32_t nodes = 0;
    /// The edge list in DiGraph::edges() order, flattened to u, v, ...
    std::vector<std::uint32_t> edges;

    bool operator==(const Key& other) const = default;
  };

  struct Entry {
    std::uint64_t hash = 0;
    Key key;
    std::vector<std::uint32_t> dbl;
    std::vector<std::uint32_t> lbl;
  };

  [[nodiscard]] static Key make_key(const Cfg& cfg);

  const std::size_t capacity_;
  const Hasher hasher_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
      buckets_;
  Stats stats_;
};

}  // namespace soteria::cfg
