#include "store/feature_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "io/binary_io.h"
#include "math/rng.h"
#include "obs/metrics.h"
#include "soteria/error.h"

namespace soteria::store {

namespace fs = std::filesystem;

namespace {

// On-disk entry layout (little-endian host format, like io/binary_io):
//
//   u32  magic            "SFS1"
//   u32  version          kEntryFormatVersion
//   u64  content_hash     .
//   u64  fingerprint       } the FeatureKey, verified against the
//   u64  walk_seed        '  requested key on every read
//   u64  payload_size     bytes of the payload section
//   ...  payload          SampleFeatures (see encode_payload)
//   u64  checksum         FNV-1a over the payload bytes
constexpr std::uint32_t kEntryMagic = 0x31534653;  // "SFS1"
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;
constexpr std::size_t kChecksumBytes = 8;

/// Entries land in `shard-<hash % kShardCount>/` under the root.
constexpr std::uint64_t kShardCount = 16;

/// Corruption guards for the decoder: no legitimate entry holds more
/// walks or wider vectors than these.
constexpr std::uint32_t kMaxWalkVectors = 1U << 20;
constexpr std::uint32_t kMaxVectorDimension = 1U << 24;

template <typename T>
void append_scalar(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void append_vector(std::string& out, const std::vector<float>& values) {
  append_scalar<std::uint32_t>(out,
                               static_cast<std::uint32_t>(values.size()));
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(float));
}

/// Bounds-checked sequential reader over an entry's bytes.
class Cursor {
 public:
  Cursor(const std::string& bytes, std::size_t offset, std::size_t end)
      : bytes_(bytes), offset_(offset), end_(end) {}

  template <typename T>
  [[nodiscard]] bool read(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (end_ - offset_ < sizeof(T)) return false;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool read_vector(std::vector<float>& values) {
    std::uint32_t size = 0;
    if (!read(size) || size > kMaxVectorDimension) return false;
    if ((end_ - offset_) / sizeof(float) < size) return false;
    values.resize(size);
    if (size == 0) return true;  // empty vector: data() may be null
    std::memcpy(values.data(), bytes_.data() + offset_,
                static_cast<std::size_t>(size) * sizeof(float));
    offset_ += static_cast<std::size_t>(size) * sizeof(float);
    return true;
  }

  [[nodiscard]] bool exhausted() const noexcept { return offset_ == end_; }

 private:
  const std::string& bytes_;
  std::size_t offset_;
  std::size_t end_;
};

void encode_payload(std::string& out,
                    const features::SampleFeatures& features) {
  append_scalar<std::uint32_t>(
      out, static_cast<std::uint32_t>(features.dbl.size()));
  for (const auto& vec : features.dbl) append_vector(out, vec);
  append_scalar<std::uint32_t>(
      out, static_cast<std::uint32_t>(features.lbl.size()));
  for (const auto& vec : features.lbl) append_vector(out, vec);
  append_vector(out, features.pooled_dbl);
  append_vector(out, features.pooled_lbl);
}

bool decode_payload(Cursor& cursor, features::SampleFeatures& features) {
  std::uint32_t walks = 0;
  if (!cursor.read(walks) || walks > kMaxWalkVectors) return false;
  features.dbl.resize(walks);
  for (auto& vec : features.dbl) {
    if (!cursor.read_vector(vec)) return false;
  }
  if (!cursor.read(walks) || walks > kMaxWalkVectors) return false;
  features.lbl.resize(walks);
  for (auto& vec : features.lbl) {
    if (!cursor.read_vector(vec)) return false;
  }
  if (!cursor.read_vector(features.pooled_dbl)) return false;
  if (!cursor.read_vector(features.pooled_lbl)) return false;
  return cursor.exhausted();
}

char hex_digit(std::uint64_t nibble) {
  return "0123456789abcdef"[nibble & 0xF];
}

std::string hex64(std::uint64_t value) {
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = hex_digit(value >> (4 * i));
  }
  return out;
}

std::string entry_file_name(const FeatureKey& key) {
  return hex64(key.content_hash) + "-" + hex64(key.fingerprint) + "-" +
         hex64(key.walk_seed) + ".sfe";
}

/// The whole file at `path` in one sized read; false if it cannot be
/// opened, sized or read.
bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return false;
  out.resize(static_cast<std::size_t>(size));
  return static_cast<bool>(in.read(out.data(), size));
}

/// Seconds-resolution steady timestamp pair for the t/store.* records.
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::size_t FeatureStore::KeyHash::operator()(
    const FeatureKey& key) const noexcept {
  std::uint64_t hash = math::split_mix64(key.content_hash);
  hash = math::split_mix64(hash ^ key.fingerprint);
  hash = math::split_mix64(hash ^ key.walk_seed);
  return static_cast<std::size_t>(hash);
}

std::string FeatureStore::encode_entry(
    const FeatureKey& key, const features::SampleFeatures& features) {
  std::string payload;
  encode_payload(payload, features);

  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  append_scalar<std::uint32_t>(out, kEntryMagic);
  append_scalar<std::uint32_t>(out, kEntryFormatVersion);
  append_scalar<std::uint64_t>(out, key.content_hash);
  append_scalar<std::uint64_t>(out, key.fingerprint);
  append_scalar<std::uint64_t>(out, key.walk_seed);
  append_scalar<std::uint64_t>(out, payload.size());
  out += payload;
  append_scalar<std::uint64_t>(out, io::fnv1a(payload.data(), payload.size()));
  return out;
}

std::optional<features::SampleFeatures> FeatureStore::decode_entry(
    const std::string& bytes, const FeatureKey* expected) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) return std::nullopt;
  Cursor header(bytes, 0, kHeaderBytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  FeatureKey key;
  std::uint64_t payload_size = 0;
  if (!header.read(magic) || !header.read(version) ||
      !header.read(key.content_hash) || !header.read(key.fingerprint) ||
      !header.read(key.walk_seed) || !header.read(payload_size)) {
    return std::nullopt;
  }
  if (magic != kEntryMagic || version != kEntryFormatVersion) {
    return std::nullopt;
  }
  if (expected != nullptr && key != *expected) return std::nullopt;
  if (payload_size != bytes.size() - kHeaderBytes - kChecksumBytes) {
    return std::nullopt;
  }

  std::uint64_t checksum = 0;
  Cursor trailer(bytes, kHeaderBytes + payload_size, bytes.size());
  if (!trailer.read(checksum) ||
      checksum != io::fnv1a(bytes.data() + kHeaderBytes, payload_size)) {
    return std::nullopt;
  }

  features::SampleFeatures features;
  Cursor payload(bytes, kHeaderBytes, kHeaderBytes + payload_size);
  if (!decode_payload(payload, features)) return std::nullopt;
  return features;
}

FeatureStore::FeatureStore(StoreConfig config)
    : root_(std::move(config.directory)) {
  if (root_.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "FeatureStore: empty directory");
  }
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    throw core::Error(core::ErrorCode::kIoError,
                      "FeatureStore: cannot create " + root_.string() +
                          ": " + ec.message());
  }
  scan_and_recover();
}

std::filesystem::path FeatureStore::entry_path(
    const FeatureKey& key) const {
  const std::uint64_t mixed = math::split_mix64(
      key.content_hash ^ math::split_mix64(key.fingerprint ^ key.walk_seed));
  const auto shard = static_cast<std::size_t>(mixed % kShardCount);
  return root_ / ("shard-" + std::to_string(shard)) / entry_file_name(key);
}

void FeatureStore::quarantine_file(const fs::path& path) {
  std::error_code ec;
  const fs::path quarantine_dir = root_ / "quarantine";
  fs::create_directories(quarantine_dir, ec);
  std::uint64_t sequence = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sequence = ++temp_sequence_;
    ++stats_.corrupt_entries;
  }
  obs::registry().counter_add("soteria.store.corrupt_entries");
  fs::rename(path,
             quarantine_dir /
                 (path.filename().string() + "." + std::to_string(sequence)),
             ec);
  if (ec) fs::remove(path, ec);  // rename failed: drop it instead
}

void FeatureStore::forget_entry(const FeatureKey& key,
                                const fs::path& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->path != path) return;
  stats_.bytes -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
  stats_.entries = index_.size();
}

std::vector<std::filesystem::path> FeatureStore::evict_locked() {
  std::vector<fs::path> victims;
  while (lru_.size() > kCapacity) {
    IndexEntry& oldest = lru_.back();
    victims.push_back(oldest.path);
    stats_.bytes -= oldest.bytes;
    index_.erase(oldest.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = index_.size();
  return victims;
}

void FeatureStore::scan_and_recover() {
  struct Found {
    fs::file_time_type mtime;
    FeatureKey key;
    fs::path path;
    std::uint64_t bytes = 0;
  };
  std::vector<Found> found;
  std::vector<fs::path> corrupt;
  std::vector<fs::path> stale_temps;

  std::error_code ec;
  for (fs::directory_iterator shard(root_, ec), end;
       !ec && shard != end; shard.increment(ec)) {
    if (!shard->is_directory() ||
        shard->path().filename() == "quarantine") {
      continue;
    }
    for (fs::directory_iterator it(shard->path(), ec), files_end;
         !ec && it != files_end; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const fs::path& path = it->path();
      if (path.filename().string().starts_with(".tmp-")) {
        stale_temps.push_back(path);  // interrupted write; never published
        continue;
      }

      // Header-only validation here (magic, version, size arithmetic);
      // the payload checksum is verified on every get().
      std::error_code size_ec;
      const auto file_size = fs::file_size(path, size_ec);
      std::string header(kHeaderBytes, '\0');
      std::ifstream in(path, std::ios::binary);
      if (size_ec || !in.read(header.data(), kHeaderBytes)) {
        corrupt.push_back(path);
        continue;
      }
      Cursor cursor(header, 0, kHeaderBytes);
      std::uint32_t magic = 0;
      std::uint32_t version = 0;
      Found entry;
      std::uint64_t payload_size = 0;
      if (!cursor.read(magic) || !cursor.read(version) ||
          !cursor.read(entry.key.content_hash) ||
          !cursor.read(entry.key.fingerprint) ||
          !cursor.read(entry.key.walk_seed) || !cursor.read(payload_size) ||
          magic != kEntryMagic || version != kEntryFormatVersion ||
          file_size != kHeaderBytes + payload_size + kChecksumBytes) {
        corrupt.push_back(path);
        continue;
      }
      entry.path = path;
      entry.bytes = file_size;
      entry.mtime = fs::last_write_time(path, size_ec);
      found.push_back(std::move(entry));
    }
    ec.clear();
  }
  if (ec) {
    throw core::Error(core::ErrorCode::kIoError,
                      "FeatureStore: cannot scan " + root_.string() + ": " +
                          ec.message());
  }

  for (const auto& path : stale_temps) fs::remove(path, ec);
  for (const auto& path : corrupt) quarantine_file(path);

  // Oldest first, so insertion at the LRU front leaves the most
  // recently written entries the last to be evicted. Ties (and
  // duplicate keys, e.g. a copy an outside writer placed in another
  // shard of a shared directory) resolve by path for determinism; the
  // older duplicate is dropped.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  std::vector<fs::path> victims;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : found) {
      if (const auto it = index_.find(entry.key); it != index_.end()) {
        victims.push_back(it->second->path);
        stats_.bytes -= it->second->bytes;
        lru_.erase(it->second);
        index_.erase(it);
      }
      lru_.push_front(
          IndexEntry{entry.key, std::move(entry.path), entry.bytes});
      index_[entry.key] = lru_.begin();
      stats_.bytes += entry.bytes;
    }
    stats_.entries = index_.size();
    const auto evicted = evict_locked();
    victims.insert(victims.end(), evicted.begin(), evicted.end());
  }
  for (const auto& path : victims) fs::remove(path, ec);
}

std::optional<features::SampleFeatures> FeatureStore::get(
    const FeatureKey& key) {
  auto& registry = obs::registry();
  const bool timed = registry.enabled();
  const auto start = timed ? Clock::now() : Clock::time_point{};
  const auto finish = [&] {
    if (timed) registry.record("t/store.get", seconds_since(start));
  };
  const auto miss = [&]() -> std::optional<features::SampleFeatures> {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
    }
    registry.counter_add("soteria.store.misses");
    finish();
    return std::nullopt;
  };

  fs::path path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      registry.counter_add("soteria.store.misses");
      finish();
      return std::nullopt;
    }
    path = it->second->path;
  }

  // File I/O and validation happen outside the lock; a concurrent
  // eviction can unlink the file under us, which reads as a miss.
  std::string bytes;
  if (!read_file(path, bytes)) {
    forget_entry(key, path);
    return miss();
  }
  auto features = decode_entry(bytes, &key);
  if (!features.has_value()) {
    forget_entry(key, path);
    quarantine_file(path);
    return miss();
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key);
        it != index_.end() && it->second->path == path) {
      lru_.splice(lru_.begin(), lru_, it->second);
    }
    ++stats_.hits;
  }
  registry.counter_add("soteria.store.hits");
  finish();
  return features;
}

void FeatureStore::put(const FeatureKey& key,
                       const features::SampleFeatures& features) {
  auto& registry = obs::registry();
  const bool timed = registry.enabled();
  const auto start = timed ? Clock::now() : Clock::time_point{};
  const auto finish = [&] {
    if (timed) registry.record("t/store.put", seconds_since(start));
  };
  const auto fail = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.write_failures;
    }
    registry.counter_add("soteria.store.write_failures");
    finish();
  };

  const std::string bytes = encode_entry(key, features);
  const fs::path path = entry_path(key);
  std::uint64_t sequence = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sequence = ++temp_sequence_;
  }
  const fs::path temp =
      path.parent_path() / (".tmp-" + std::to_string(sequence));

  // Crash-safe publish: the full entry lands in a temp file first and
  // becomes visible only through the atomic rename; readers can never
  // observe a half-written entry under its final name.
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size())) ||
        !out.flush()) {
      out.close();
      fs::remove(temp, ec);
      fail();
      return;
    }
  }
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    fail();
    return;
  }

  std::vector<fs::path> victims;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      stats_.bytes -= it->second->bytes;
      it->second->bytes = bytes.size();
      it->second->path = path;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(IndexEntry{key, path, bytes.size()});
      index_[key] = lru_.begin();
    }
    stats_.bytes += bytes.size();
    stats_.entries = index_.size();
    ++stats_.writes;
    victims = evict_locked();
  }
  registry.counter_add("soteria.store.writes");
  if (!victims.empty()) {
    registry.counter_add("soteria.store.evictions", victims.size());
    for (const auto& victim : victims) fs::remove(victim, ec);
  }
  finish();
}

StoreStats FeatureStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace soteria::store
