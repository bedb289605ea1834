// FeatureStore contract: the versioned on-disk entry format (golden
// bytes, endianness, checksum), corruption handling (truncated entries,
// flipped checksum bytes, tampered key fields each quarantine + count +
// miss — never throw), open-time recovery (temp-file cleanup, corrupt
// quarantine, LRU rebuild), capacity-bounded eviction, persistence
// across reopen, and thread safety of concurrent get/put.
// Carries the `store` ctest label; the sanitize builds run it under
// TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "soteria/error.h"
#include "store/feature_store.h"

namespace soteria::store {
namespace {

namespace fs = std::filesystem;

features::SampleFeatures make_features(float base) {
  features::SampleFeatures features;
  features.dbl = {{base, base + 1.0F}, {base + 2.0F, base + 3.0F}};
  features.lbl = {{base + 4.0F}, {base + 5.0F}};
  features.pooled_dbl = {base + 6.0F, base + 7.0F};
  features.pooled_lbl = {base + 8.0F};
  return features;
}

void expect_features_equal(const features::SampleFeatures& actual,
                           const features::SampleFeatures& expected) {
  EXPECT_EQ(actual.dbl, expected.dbl);
  EXPECT_EQ(actual.lbl, expected.lbl);
  EXPECT_EQ(actual.pooled_dbl, expected.pooled_dbl);
  EXPECT_EQ(actual.pooled_lbl, expected.pooled_lbl);
}

/// Fresh scratch directory per test, removed on teardown.
struct FeatureStoreTest : public ::testing::Test {
  void SetUp() override {
    dir_ = fs::current_path() /
           ("soteria_store_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    obs::registry().reset();
    obs::set_enabled(false);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::registry().reset();
    fs::remove_all(dir_);
  }

  [[nodiscard]] StoreConfig config() const {
    return StoreConfig{dir_.string()};
  }

  /// Writes entry files for keys {first + i, 0, 0}, i < count, straight
  /// into one shard, entry i stamped i seconds after an hour ago, so
  /// open indexes them least recently used first, in key order. Fills
  /// a directory up to the capacity bound without one put per entry.
  void write_entry_files(std::uint64_t first, std::size_t count) const {
    const fs::path shard = dir_ / "shard-0";
    fs::create_directories(shard);
    const auto stamp =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    for (std::size_t i = 0; i < count; ++i) {
      const FeatureKey key{first + i, 0, 0};
      const fs::path path =
          shard / ("entry-" + std::to_string(key.content_hash) + ".sfe");
      {
        const std::string bytes =
            FeatureStore::encode_entry(key, make_features(1.0F));
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      fs::last_write_time(path, stamp + std::chrono::seconds(i));
    }
  }

  /// The single entry file below `dir_` (fails the test unless exactly
  /// one exists outside quarantine/).
  [[nodiscard]] fs::path only_entry_file() const {
    std::vector<fs::path> files;
    for (const auto& item : fs::recursive_directory_iterator(dir_)) {
      if (item.is_regular_file() &&
          item.path().parent_path().filename() != "quarantine") {
        files.push_back(item.path());
      }
    }
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? fs::path{} : files.front();
  }

  [[nodiscard]] std::size_t quarantine_count() const {
    const fs::path quarantine = dir_ / "quarantine";
    if (!fs::exists(quarantine)) return 0;
    std::size_t count = 0;
    for (const auto& item : fs::directory_iterator(quarantine)) {
      count += item.is_regular_file();
    }
    return count;
  }

  fs::path dir_;
};

// --- On-disk format -------------------------------------------------

// Independent re-implementation of the writer (little-endian appends +
// FNV-1a), so a layout change in the store shows up as a byte diff.
void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void append_f32(std::string& out, float value) {
  std::uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  append_u32(out, bits);
}

std::uint64_t reference_fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x00000100000001b3ULL;
  }
  return hash;
}

TEST_F(FeatureStoreTest, EntryFormatMatchesGoldenBytes) {
  features::SampleFeatures features;
  features.dbl = {{1.0F, 2.0F}};
  features.lbl = {{3.0F}};
  features.pooled_dbl = {0.5F};
  features.pooled_lbl = {};
  const FeatureKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL, 42};

  std::string payload;
  append_u32(payload, 1);  // dbl walk count
  append_u32(payload, 2);  // dim
  append_f32(payload, 1.0F);
  append_f32(payload, 2.0F);
  append_u32(payload, 1);  // lbl walk count
  append_u32(payload, 1);  // dim
  append_f32(payload, 3.0F);
  append_u32(payload, 1);  // pooled_dbl dim
  append_f32(payload, 0.5F);
  append_u32(payload, 0);  // pooled_lbl dim

  std::string expected;
  expected += "SFS1";  // magic, a little-endian u32 spelling the tag
  append_u32(expected, kEntryFormatVersion);
  append_u64(expected, key.content_hash);
  append_u64(expected, key.fingerprint);
  append_u64(expected, key.walk_seed);
  append_u64(expected, payload.size());
  expected += payload;
  append_u64(expected, reference_fnv1a(payload));

  const std::string actual = FeatureStore::encode_entry(key, features);
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_TRUE(actual == expected) << "on-disk entry layout changed — bump "
                                     "kEntryFormatVersion";

  const auto decoded = FeatureStore::decode_entry(actual, &key);
  ASSERT_TRUE(decoded.has_value());
  expect_features_equal(*decoded, features);
}

TEST_F(FeatureStoreTest, DecodeRejectsEveryTruncation) {
  const FeatureKey key{1, 2, 3};
  const std::string bytes =
      FeatureStore::encode_entry(key, make_features(1.0F));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        FeatureStore::decode_entry(bytes.substr(0, len), &key).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST_F(FeatureStoreTest, DecodeRejectsAnyFlippedByte) {
  const FeatureKey key{1, 2, 3};
  const std::string bytes =
      FeatureStore::encode_entry(key, make_features(1.0F));
  // Byte flips anywhere must be caught: header fields (magic, version,
  // key, size) by validation, payload bytes and the trailing checksum
  // by the checksum comparison.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string tampered = bytes;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x20);
    EXPECT_FALSE(FeatureStore::decode_entry(tampered, &key).has_value())
        << "flip at byte " << i << " decoded";
  }
}

TEST_F(FeatureStoreTest, DecodeRejectsKeyMismatch) {
  const FeatureKey key{1, 2, 3};
  const std::string bytes =
      FeatureStore::encode_entry(key, make_features(1.0F));
  EXPECT_TRUE(FeatureStore::decode_entry(bytes, nullptr).has_value());
  const FeatureKey wrong_fingerprint{1, 99, 3};
  EXPECT_FALSE(
      FeatureStore::decode_entry(bytes, &wrong_fingerprint).has_value());
  const FeatureKey wrong_seed{1, 2, 99};
  EXPECT_FALSE(FeatureStore::decode_entry(bytes, &wrong_seed).has_value());
}

// --- Basic store behavior -------------------------------------------

TEST_F(FeatureStoreTest, RejectsInvalidConfig) {
  try {
    FeatureStore bad{StoreConfig{}};
    FAIL() << "empty directory accepted";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }
}

TEST_F(FeatureStoreTest, PutGetRoundTripsAndCounts) {
  FeatureStore store(config());
  const FeatureKey key{7, 8, 9};
  const auto features = make_features(2.0F);

  EXPECT_FALSE(store.get(key).has_value());
  store.put(key, features);
  const auto hit = store.get(key);
  ASSERT_TRUE(hit.has_value());
  expect_features_equal(*hit, features);

  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.corrupt_entries, 0u);
}

TEST_F(FeatureStoreTest, PersistsAcrossReopen) {
  const FeatureKey key{10, 11, 12};
  const auto features = make_features(3.0F);
  { FeatureStore(config()).put(key, features); }

  FeatureStore reopened(config());
  EXPECT_EQ(reopened.stats().entries, 1u);
  const auto hit = reopened.get(key);
  ASSERT_TRUE(hit.has_value());
  expect_features_equal(*hit, features);
}

TEST_F(FeatureStoreTest, OpenKeepsOneCopyOfADuplicatedKey) {
  // A second copy of an entry in another shard (say, written there by
  // another process sharing the directory) is dropped at open: one
  // entry is indexed and served, and one file is left.
  const FeatureKey key{60, 61, 62};
  const auto features = make_features(4.0F);
  { FeatureStore(config()).put(key, features); }
  const fs::path original = only_entry_file();
  const std::string shard = original.parent_path().filename().string();
  ASSERT_TRUE(shard.starts_with("shard-"));
  const fs::path other =
      dir_ / ("shard-" + std::to_string((std::stoi(shard.substr(6)) + 1) % 16));
  fs::create_directories(other);
  fs::copy_file(original, other / original.filename());

  FeatureStore reopened(config());
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().corrupt_entries, 0u);
  const auto hit = reopened.get(key);
  ASSERT_TRUE(hit.has_value());
  expect_features_equal(*hit, features);
  (void)only_entry_file();
}

TEST_F(FeatureStoreTest, DifferentFingerprintIsCleanMissNotCorruption) {
  FeatureStore store(config());
  store.put(FeatureKey{1, 2, 3}, make_features(1.0F));

  // A retrained pipeline produces a different fingerprint => different
  // key => plain miss; nothing about the resident entry is corrupt.
  EXPECT_FALSE(store.get(FeatureKey{1, 999, 3}).has_value());
  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.corrupt_entries, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(quarantine_count(), 0u);
}

// --- Corruption handling --------------------------------------------

TEST_F(FeatureStoreTest, TruncatedEntryQuarantinesCountsAndMisses) {
  obs::set_enabled(true);
  FeatureStore store(config());
  const FeatureKey key{21, 22, 23};
  store.put(key, make_features(4.0F));

  const fs::path entry = only_entry_file();
  fs::resize_file(entry, fs::file_size(entry) / 2);

  EXPECT_FALSE(store.get(key).has_value());  // never throws
  const auto stats = store.stats();
  EXPECT_EQ(stats.corrupt_entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(quarantine_count(), 1u);
  EXPECT_FALSE(fs::exists(entry));

  const auto snapshot = obs::registry().snapshot();
  EXPECT_EQ(snapshot.counters.at("soteria.store.corrupt_entries"), 1u);
  EXPECT_EQ(snapshot.counters.at("soteria.store.misses"), 1u);

  // The slot is reusable immediately.
  store.put(key, make_features(4.0F));
  EXPECT_TRUE(store.get(key).has_value());
}

TEST_F(FeatureStoreTest, FlippedChecksumByteQuarantinesCountsAndMisses) {
  FeatureStore store(config());
  const FeatureKey key{31, 32, 33};
  store.put(key, make_features(5.0F));

  const fs::path entry = only_entry_file();
  std::string bytes;
  {
    std::ifstream in(entry, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // checksum byte
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1u);
  EXPECT_EQ(quarantine_count(), 1u);
}

TEST_F(FeatureStoreTest, TamperedFingerprintFieldQuarantinesCountsAndMisses) {
  FeatureStore store(config());
  const FeatureKey key{41, 42, 43};
  store.put(key, make_features(6.0F));

  // Bytes 16..23 are the header's fingerprint field; a flip there makes
  // the stored key disagree with the requested one — corruption, not a
  // clean miss.
  const fs::path entry = only_entry_file();
  std::fstream file(entry,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(16);
  file.put('\x7f');
  file.close();

  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1u);
  EXPECT_EQ(quarantine_count(), 1u);
}

// --- Open-time recovery ---------------------------------------------

TEST_F(FeatureStoreTest, OpenRecoversFromCrashArtifacts) {
  const FeatureKey keep_a{51, 52, 53};
  const FeatureKey keep_b{54, 55, 56};
  const FeatureKey broken{57, 58, 59};
  fs::path broken_path;
  {
    FeatureStore store(config());
    store.put(keep_a, make_features(7.0F));
    store.put(keep_b, make_features(8.0F));
    store.put(broken, make_features(9.0F));
    for (const auto& item : fs::recursive_directory_iterator(dir_)) {
      if (item.is_regular_file() && fs::file_size(item.path()) > 0 &&
          FeatureStore::decode_entry(
              [&] {
                std::ifstream in(item.path(), std::ios::binary);
                return std::string(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
              }(),
              &broken)
              .has_value()) {
        broken_path = item.path();
      }
    }
  }
  ASSERT_FALSE(broken_path.empty());

  // Simulate a crash: one entry truncated mid-header, one unpublished
  // temp file left behind.
  fs::resize_file(broken_path, 10);
  const fs::path stale_temp = broken_path.parent_path() / ".tmp-999";
  std::ofstream(stale_temp, std::ios::binary) << "partial write";

  FeatureStore reopened(config());
  EXPECT_FALSE(fs::exists(stale_temp));
  EXPECT_EQ(quarantine_count(), 1u);
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.corrupt_entries, 1u);

  EXPECT_TRUE(reopened.get(keep_a).has_value());
  EXPECT_TRUE(reopened.get(keep_b).has_value());
  EXPECT_FALSE(reopened.get(broken).has_value());
}

// --- Eviction -------------------------------------------------------

TEST_F(FeatureStoreTest, CapacityBoundEvictsLeastRecentlyUsed) {
  // A full store: a and b are the two least recently used entries.
  constexpr std::size_t kFull = FeatureStore::kCapacity;
  write_entry_files(1000, kFull);
  const FeatureKey a{1000, 0, 0};
  const FeatureKey b{1001, 0, 0};
  const FeatureKey c{63, 0, 0};
  FeatureStore store(config());
  EXPECT_EQ(store.stats().entries, kFull);
  EXPECT_EQ(store.stats().evictions, 0u);

  EXPECT_TRUE(store.get(a).has_value());  // a is now MRU, b is LRU
  store.put(c, make_features(3.0F));      // evicts b

  EXPECT_EQ(store.stats().entries, kFull);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_FALSE(store.get(b).has_value());
  EXPECT_TRUE(store.get(a).has_value());
  EXPECT_TRUE(store.get(c).has_value());
}

TEST_F(FeatureStoreTest, ReopenAppliesCapacityBound) {
  // Three entries past the bound (say, left by a writer sharing the
  // directory): open evicts the three least recently used.
  write_entry_files(0, FeatureStore::kCapacity + 3);
  FeatureStore bounded(config());
  EXPECT_EQ(bounded.stats().entries, FeatureStore::kCapacity);
  EXPECT_EQ(bounded.stats().evictions, 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(bounded.get(FeatureKey{i, 0, 0}).has_value()) << i;
  }
  EXPECT_TRUE(bounded.get(FeatureKey{3, 0, 0}).has_value());
}

// --- Concurrency ----------------------------------------------------

TEST_F(FeatureStoreTest, ConcurrentGetPutIsSafe) {
  // Four entries short of the bound, so the 24 keys' first puts evict
  // (the older filler entries) while other threads get and put.
  write_entry_files(1000, FeatureStore::kCapacity - 4);
  FeatureStore store(config());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 120;
  constexpr std::uint64_t kKeys = 24;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto id = static_cast<std::uint64_t>(op) % kKeys;
        const FeatureKey key{id, 1, 2};
        if ((op + t) % 3 == 0) {
          store.put(key, make_features(static_cast<float>(id)));
        } else {
          // A hit must carry the exact vectors some put stored for
          // this key (every writer of key `id` writes the same data).
          const auto hit = store.get(key);
          if (hit.has_value()) {
            expect_features_equal(*hit,
                                  make_features(static_cast<float>(id)));
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  // Every key was put by some thread; only filler entries, all older,
  // were evicted.
  const auto stats = store.stats();
  EXPECT_EQ(stats.entries, FeatureStore::kCapacity);
  EXPECT_EQ(stats.evictions, kKeys - 4);
  EXPECT_EQ(stats.corrupt_entries, 0u);
  EXPECT_EQ(stats.write_failures, 0u);
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    const auto hit = store.get(FeatureKey{id, 1, 2});
    ASSERT_TRUE(hit.has_value()) << id;
    expect_features_equal(*hit, make_features(static_cast<float>(id)));
  }
  EXPECT_EQ(quarantine_count(), 0u);
}

}  // namespace
}  // namespace soteria::store
