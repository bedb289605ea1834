// Persistent, content-addressed feature store.
//
// Real deployments see the same binaries over and over. `FeatureStore`
// lets a warm analysis skip the extraction pipeline (CFG -> DBL/LBL
// labeling -> random walks -> n-gram/TF-IDF) — across process restarts
// and across a fleet sharing one directory — by mapping
//
//   (CFG content hash, pipeline fingerprint, walk seed)
//     -> the full per-sample feature bundle (per-walk + pooled vectors)
//
// to one compact, versioned, checksummed file per entry.
//
// What a hit saves is mostly labeling after a restart. With the
// in-memory labeling cache warm, extraction (vocabulary automaton over
// a CSR walk) is no longer the dominant cost: in traced perfbench runs
// on a 4-thread Xeon VM a store hit cost 0.20-0.28 ms per sample and a
// re-extraction with cached labels 0.30-0.32 ms, while every miss pays
// a 0.43-0.51 ms write. A cold scan ran about a third slower with the
// store on, so it is a library API only (soteria_cli has no store
// command or flag), kept while the benchmark harness still opens one.
//
// Key design points:
//
//  * Content addressing. The CFG hash is `cfg::LabelingCache::
//    content_hash` (entry + node count + edge list), the pipeline
//    fingerprint covers config + both vocabularies (store/fingerprint.h)
//    so retrained models miss instead of reading stale vectors, and the
//    *walk seed* is part of the key: Soteria's randomization property
//    means features are a function of (CFG, pipeline, seed), and keying
//    on all three keeps a store hit bit-identical to a cold extraction.
//  * Layout. Entries land in `<root>/shard-<hash % 16>/`, one file each.
//  * Crash safety. Writes go to a temp file in the target shard and are
//    published with one atomic rename; a crash mid-write leaves only a
//    temp file, which open-time recovery deletes. Entries that fail
//    validation (bad magic/version, key mismatch, truncation, checksum)
//    are moved to `<root>/quarantine/` — never served, never fatal.
//  * Bounded capacity. At most `FeatureStore::kCapacity` entries are
//    kept; `put` evicts least-recently-used entries past the bound and
//    open-time recovery applies it to what it finds on disk.
//  * Thread safety. One mutex guards the in-memory index; entry
//    serialization, file reads, and file writes happen outside the
//    lock, so concurrent misses and writes on different keys don't
//    serialize. An entry evicted while a reader holds its path simply
//    turns into a miss.
//
// Observability: counters `soteria.store.{hits,misses,writes,
// evictions,corrupt_entries,write_failures}` and latency histograms
// `t/store.get` / `t/store.put` (seconds, like every span timing).
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "features/pipeline.h"
#include "store/fingerprint.h"

namespace soteria::store {

/// Current on-disk entry format version (see feature_store.cpp for the
/// byte layout). Readers reject other versions as corrupt.
inline constexpr std::uint32_t kEntryFormatVersion = 1;

/// Full identity of one cached extraction.
struct FeatureKey {
  std::uint64_t content_hash = 0;  ///< cfg::LabelingCache::content_hash
  std::uint64_t fingerprint = 0;   ///< PipelineFingerprint::value
  std::uint64_t walk_seed = 0;     ///< construction seed of the walk Rng

  [[nodiscard]] bool operator==(const FeatureKey&) const = default;
};

struct StoreConfig {
  /// Root directory; created (with parents) if absent.
  std::string directory;
};

/// Monotonic accounting since open (quarantines during open-time
/// recovery count as corrupt_entries).
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt_entries = 0;
  std::uint64_t write_failures = 0;
  std::size_t entries = 0;  ///< resident entries right now
  std::uint64_t bytes = 0;  ///< resident payload bytes right now
};

class FeatureStore {
 public:
  /// Maximum resident entries; eviction is LRU.
  static constexpr std::size_t kCapacity = 4096;

  /// Opens (or creates) the store at `config.directory` and recovers:
  /// leftover temp files are deleted, entries whose header fails
  /// validation are quarantined, the rest are indexed (LRU order =
  /// file modification time). Throws core::Error{kInvalidArgument} for
  /// a bad config and core::Error{kIoError} when the directory cannot
  /// be created or scanned.
  explicit FeatureStore(StoreConfig config);

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// The features stored under `key`, or nullopt on a miss. An entry
  /// that exists but fails validation (truncation, checksum, key
  /// mismatch) is quarantined, counted in `corrupt_entries`, and
  /// reported as a miss — never an exception.
  [[nodiscard]] std::optional<features::SampleFeatures> get(
      const FeatureKey& key);

  /// Persists `features` under `key` (overwriting any previous entry)
  /// and evicts LRU entries past the capacity bound. Write failures
  /// are swallowed into `write_failures` — caching must never fail an
  /// analysis.
  void put(const FeatureKey& key, const features::SampleFeatures& features);

  [[nodiscard]] StoreStats stats() const;

  /// Serializes an entry to its on-disk byte layout / parses one back.
  /// Exposed for the format tests; `decode_entry` returns nullopt for
  /// any malformed input (and for a key mismatch when `expected` is
  /// given).
  [[nodiscard]] static std::string encode_entry(
      const FeatureKey& key, const features::SampleFeatures& features);
  [[nodiscard]] static std::optional<features::SampleFeatures> decode_entry(
      const std::string& bytes, const FeatureKey* expected = nullptr);

 private:
  struct KeyHash {
    std::size_t operator()(const FeatureKey& key) const noexcept;
  };
  struct IndexEntry {
    FeatureKey key;
    std::filesystem::path path;
    std::uint64_t bytes = 0;
  };
  using LruList = std::list<IndexEntry>;

  [[nodiscard]] std::filesystem::path entry_path(
      const FeatureKey& key) const;
  /// Moves `path` into quarantine/ (best effort) and bumps the counter.
  void quarantine_file(const std::filesystem::path& path);
  /// Drops `key` from the index if it still resolves to `path`.
  void forget_entry(const FeatureKey& key,
                    const std::filesystem::path& path);
  /// Unlinks LRU entries past kCapacity; call with `mutex_` held, files
  /// are collected and deleted by the caller outside the lock.
  [[nodiscard]] std::vector<std::filesystem::path> evict_locked();
  void scan_and_recover();

  std::filesystem::path root_;

  mutable std::mutex mutex_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<FeatureKey, LruList::iterator, KeyHash> index_;
  StoreStats stats_;
  std::uint64_t temp_sequence_ = 0;  ///< unique temp-file suffix
};

}  // namespace soteria::store
