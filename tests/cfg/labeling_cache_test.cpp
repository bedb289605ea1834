// LabelingCache contract: exact accounting, collision safety via full
// key verification, LRU eviction order, bit-identical results with the
// cache on or off (including through analyze_batch at several thread
// counts), and data-race freedom under concurrent access (this file is
// part of the `concurrency` ctest label, so it runs under TSan).
#include "cfg/labeling_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "dataset/generator.h"
#include "expect_error.h"
#include "graph/generators.h"
#include "graph/shapes.h"
#include "math/rng.h"
#include "obs/metrics.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::cfg {
namespace {

Cfg random_cfg(std::uint64_t seed, std::size_t n = 20) {
  math::Rng rng(seed);
  return Cfg(graph::random_connected_dag_plus(n, 0.1, rng), 0);
}

/// AnalyzeOptions with an explicit thread count.
core::AnalyzeOptions with_threads(std::size_t threads) {
  core::AnalyzeOptions options;
  options.num_threads = threads;
  return options;
}

TEST(LabelingCache, RejectsZeroCapacityAndNullHasher) {
  EXPECT_ERROR(LabelingCache(0), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(LabelingCache(4, LabelingCache::Hasher{}),
               core::ErrorCode::kInvalidArgument);
}

TEST(LabelingCache, RejectsEmptyCfg) {
  LabelingCache cache(4);
  EXPECT_ERROR((void)cache.labels(Cfg{}), core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0U);
}

TEST(LabelingCache, ServedLabelingsMatchLabelBoth) {
  LabelingCache cache(8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Cfg cfg = random_cfg(seed);
    const auto expected = label_both(cfg);
    const auto miss = cache.labels(cfg);  // computed
    const auto hit = cache.labels(cfg);   // served
    EXPECT_EQ(miss.dbl, expected.dbl);
    EXPECT_EQ(miss.lbl, expected.lbl);
    EXPECT_EQ(hit.dbl, expected.dbl);
    EXPECT_EQ(hit.lbl, expected.lbl);
  }
}

TEST(LabelingCache, CompactHitOnFirmwareSizedCfgMatchesLabelBoth) {
  // Entries store ids and labels as 32-bit values; a hit widens them
  // back to exactly what label_both computes.
  math::Rng rng(3000);
  const Cfg cfg(graph::firmware_like_cfg(3000, rng), 0);
  LabelingCache cache(2);
  (void)cache.labels(cfg);
  const auto hit = cache.labels(cfg);
  EXPECT_EQ(cache.stats().hits, 1U);
  const auto expected = label_both(cfg);
  EXPECT_EQ(hit.dbl, expected.dbl);
  EXPECT_EQ(hit.lbl, expected.lbl);
}

TEST(LabelingCache, HitMissAccounting) {
  LabelingCache cache(8);
  const Cfg a = random_cfg(1);
  const Cfg b = random_cfg(2);

  (void)cache.labels(a);  // miss
  (void)cache.labels(a);  // hit
  (void)cache.labels(b);  // miss
  (void)cache.labels(a);  // hit
  (void)cache.labels(b);  // hit

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2U);
  EXPECT_EQ(stats.hits, 3U);
  EXPECT_EQ(stats.evictions, 0U);
  EXPECT_EQ(cache.size(), 2U);

  // Content-keyed, not identity-keyed: a copy of `a` hits.
  const Cfg a_copy = a;
  (void)cache.labels(a_copy);
  EXPECT_EQ(cache.stats().hits, 4U);
}

TEST(LabelingCache, EvictsLeastRecentlyUsed) {
  LabelingCache cache(2);
  const Cfg a = random_cfg(1);
  const Cfg b = random_cfg(2);
  const Cfg c = random_cfg(3);

  (void)cache.labels(a);  // {a}
  (void)cache.labels(b);  // {b, a}
  (void)cache.labels(a);  // {a, b} — refresh a's recency
  (void)cache.labels(c);  // {c, a} — evicts b, the LRU entry

  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.size(), 2U);

  (void)cache.labels(a);  // still cached
  (void)cache.labels(c);  // still cached
  EXPECT_EQ(cache.stats().misses, 3U);
  (void)cache.labels(b);  // was evicted -> miss again
  EXPECT_EQ(cache.stats().misses, 4U);
}

TEST(LabelingCache, ClearDropsEntriesAndStats) {
  LabelingCache cache(4);
  (void)cache.labels(random_cfg(1));
  (void)cache.labels(random_cfg(1));
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_EQ(cache.stats().misses, 0U);
}

TEST(LabelingCache, CollidingHashesNeverServeWrongLabelings) {
  // Degenerate hasher: every CFG collides. Correctness must come from
  // the full-key verification, with each distinct CFG counted as its
  // own miss.
  LabelingCache cache(8, [](const Cfg&) { return std::uint64_t{42}; });
  const Cfg a = random_cfg(1);
  const Cfg b = random_cfg(2, 25);
  const Cfg c = random_cfg(3, 30);

  const auto la = cache.labels(a);
  const auto lb = cache.labels(b);
  const auto lc = cache.labels(c);
  EXPECT_EQ(cache.stats().misses, 3U);
  EXPECT_EQ(cache.stats().hits, 0U);

  // Every colliding entry still resolves to its own labeling.
  EXPECT_EQ(cache.labels(a).dbl, la.dbl);
  EXPECT_EQ(cache.labels(b).dbl, lb.dbl);
  EXPECT_EQ(cache.labels(c).lbl, lc.lbl);
  EXPECT_EQ(cache.stats().hits, 3U);

  const auto expected_b = label_both(b);
  EXPECT_EQ(lb.dbl, expected_b.dbl);
  EXPECT_EQ(lb.lbl, expected_b.lbl);
}

TEST(LabelingCache, ContentHashSeparatesNearMisses) {
  // Not a strict requirement (collisions are tolerated), but the FNV
  // hash should separate these obviously-different CFGs.
  graph::DiGraph g1(3);
  g1.add_edge(0, 1);
  g1.add_edge(1, 2);
  graph::DiGraph g2(3);
  g2.add_edge(0, 1);
  g2.add_edge(0, 2);
  const auto h1 = LabelingCache::content_hash(Cfg(g1, 0));
  const auto h2 = LabelingCache::content_hash(Cfg(g2, 0));
  EXPECT_NE(h1, h2);
  // Same graph, same hash.
  EXPECT_EQ(h1, LabelingCache::content_hash(Cfg(g1, 0)));
}

TEST(LabelingCache, ObsCountersMirrorStats) {
  auto& registry = obs::registry();
  registry.reset();
  registry.set_enabled(true);

  LabelingCache cache(1);
  (void)cache.labels(random_cfg(1));  // miss
  (void)cache.labels(random_cfg(1));  // hit
  (void)cache.labels(random_cfg(2));  // miss + eviction (capacity 1)

  const auto counters = registry.snapshot().counters;
  registry.set_enabled(false);
  registry.reset();

  ASSERT_TRUE(counters.contains("soteria.cache.labeling.misses"));
  EXPECT_EQ(counters.at("soteria.cache.labeling.misses"), 2U);
  ASSERT_TRUE(counters.contains("soteria.cache.labeling.hits"));
  EXPECT_EQ(counters.at("soteria.cache.labeling.hits"), 1U);
  ASSERT_TRUE(counters.contains("soteria.cache.labeling.evictions"));
  EXPECT_EQ(counters.at("soteria.cache.labeling.evictions"), 1U);
}

TEST(LabelingCache, ConcurrentMixedAccessIsRaceFree) {
  // 8 threads hammer one small cache with overlapping CFGs so hits,
  // misses, evictions, and concurrent same-key computation all happen
  // at once. TSan (via the `concurrency` label) checks the locking;
  // the assertions check the results stay correct under contention.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kCfgs = 6;
  constexpr std::size_t kIters = 40;

  std::vector<Cfg> cfgs;
  std::vector<NodeLabelings> expected;
  for (std::size_t i = 0; i < kCfgs; ++i) {
    cfgs.push_back(random_cfg(100 + i, 15 + i));
    expected.push_back(label_both(cfgs.back()));
  }

  LabelingCache cache(kCfgs / 2);  // small: forces eviction churn
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t pick = (t + i) % kCfgs;
        const auto got = cache.labels(cfgs[pick]);
        if (got.dbl != expected[pick].dbl ||
            got.lbl != expected[pick].lbl) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  EXPECT_LE(cache.size(), cache.capacity());
}

// End-to-end guarantee: the cache is purely a performance knob. A
// system trained with caching disabled serializes byte-identically to
// one trained with the default cache, and batch analysis agrees
// bit-for-bit at every thread count.
struct CacheEquivalenceFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(43);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));

    core::SoteriaConfig config = core::tiny_config();
    config.seed = 43;
    config.num_threads = 4;
    ASSERT_GT(config.labeling_cache_capacity, 0U);  // default: enabled
    cached = new core::SoteriaSystem(
        core::SoteriaSystem::train(data->train, config));
    config.labeling_cache_capacity = 0;
    uncached = new core::SoteriaSystem(
        core::SoteriaSystem::train(data->train, config));
  }
  static void TearDownTestSuite() {
    delete uncached;
    delete cached;
    delete data;
    uncached = nullptr;
    cached = nullptr;
    data = nullptr;
  }

  static dataset::Dataset* data;
  static core::SoteriaSystem* cached;
  static core::SoteriaSystem* uncached;
};

dataset::Dataset* CacheEquivalenceFixture::data = nullptr;
core::SoteriaSystem* CacheEquivalenceFixture::cached = nullptr;
core::SoteriaSystem* CacheEquivalenceFixture::uncached = nullptr;

TEST_F(CacheEquivalenceFixture, TrainedSystemsSerializeIdentically) {
  std::stringstream with_cache;
  std::stringstream without_cache;
  cached->save(with_cache);
  uncached->save(without_cache);
  EXPECT_EQ(with_cache.str(), without_cache.str());
}

TEST_F(CacheEquivalenceFixture, AnalyzeBatchAgreesAcrossThreadCounts) {
  std::vector<Cfg> cfgs;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, data->test.size());
       ++i) {
    cfgs.push_back(data->test[i].cfg);
  }
  ASSERT_FALSE(cfgs.empty());

  const math::Rng rng(47);
  const auto baseline = uncached->analyze_batch(cfgs, rng, with_threads(1));
  for (std::size_t threads : {1U, 2U, 8U}) {
    const auto verdicts = cached->analyze_batch(cfgs, rng, with_threads(threads));
    ASSERT_EQ(verdicts.size(), baseline.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].adversarial, baseline[i].adversarial);
      EXPECT_EQ(verdicts[i].predicted, baseline[i].predicted);
      EXPECT_EQ(verdicts[i].reconstruction_error,
                baseline[i].reconstruction_error)
          << "sample " << i << " with " << threads << " threads";
    }
  }
}

TEST_F(CacheEquivalenceFixture, TrainingWarmsTheSharedCache) {
  const auto& cache = cached->pipeline().labeling_cache();
  ASSERT_NE(cache, nullptr);
  const auto stats = cache->stats();
  // fit computes each training labeling once (misses); the training
  // extraction and calibration phases then reuse them (hits).
  EXPECT_GT(stats.misses, 0U);
  EXPECT_GT(stats.hits, 0U);
  EXPECT_EQ(uncached->pipeline().labeling_cache(), nullptr);
}

}  // namespace
}  // namespace soteria::cfg
