// Bit-level contract of FeaturePipeline::extract, which walks a CSR view
// straight through each vocabulary's GramAutomaton: every bundle must
// equal the map-based oracle (oracles::extract_reference, one packed
// key per window) byte for byte, and leave the rng exactly where the
// oracle's walks leave it. The cases cover the product config and the
// automaton's edges: repeated gram sizes, vocabulary grams whose length
// the config never counts, an empty vocabulary, a single-block CFG,
// walks shorter than the longest gram, and labels the vocabulary never
// saw.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "features/pipeline.h"
#include "graph/generators.h"
#include "math/rng.h"
#include "oracles/feature_reference.h"
#include "soteria/presets.h"

namespace soteria::features {
namespace {

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_same_rows(const std::vector<std::vector<float>>& got,
                      const std::vector<std::vector<float>>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t w = 0; w < got.size(); ++w) {
    EXPECT_TRUE(same_bytes(got[w], want[w])) << what << " walk " << w;
  }
}

/// extract() and the oracle from equal rngs: equal bytes, equal rng
/// state afterwards.
void expect_matches_oracle(const FeaturePipeline& pipeline,
                           const cfg::Cfg& cfg, const math::Rng& rng,
                           const std::string& what) {
  math::Rng fast_rng = rng;
  math::Rng oracle_rng = rng;
  const SampleFeatures fast = pipeline.extract(cfg, fast_rng);
  const SampleFeatures oracle =
      oracles::extract_reference(pipeline, cfg, oracle_rng);
  expect_same_rows(fast.dbl, oracle.dbl, what + " dbl");
  expect_same_rows(fast.lbl, oracle.lbl, what + " lbl");
  EXPECT_TRUE(same_bytes(fast.pooled_dbl, oracle.pooled_dbl)) << what;
  EXPECT_TRUE(same_bytes(fast.pooled_lbl, oracle.pooled_lbl)) << what;
  EXPECT_EQ(fast_rng.engine()(), oracle_rng.engine()()) << what;
}

std::vector<cfg::Cfg> firmware_corpus(std::size_t count, std::size_t min_n,
                                      std::size_t spread, math::Rng& rng) {
  std::vector<cfg::Cfg> corpus;
  for (std::size_t i = 0; i < count; ++i) {
    corpus.emplace_back(
        graph::firmware_like_cfg(min_n + rng.index(spread), rng), 0);
  }
  return corpus;
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.top_k = 60;
  config.walk.walks_per_labeling = 3;
  return config;
}

/// A pipeline with `config_source`'s config and the given
/// vocabularies, through save/load: how a model file can pair a config
/// with vocabularies that config would never have fitted.
FeaturePipeline with_vocabularies(const FeaturePipeline& config_source,
                                  const Vocabulary& dbl,
                                  const Vocabulary& lbl) {
  std::stringstream whole;
  config_source.save(whole);
  std::stringstream own_vocabularies;
  config_source.dbl_vocabulary().save(own_vocabularies);
  config_source.lbl_vocabulary().save(own_vocabularies);
  std::string blob = whole.str();
  blob.resize(blob.size() - own_vocabularies.str().size());
  std::stringstream spliced(blob);
  spliced.seekp(0, std::ios::end);
  dbl.save(spliced);
  lbl.save(spliced);
  return FeaturePipeline::load(spliced);
}

TEST(ExtractIdentityTest, ProductConfigMatchesOracle) {
  math::Rng rng(31);
  const auto corpus = firmware_corpus(12, 60, 140, rng);
  const auto pipeline =
      FeaturePipeline::fit(corpus, core::cpu_scaled_config().pipeline, rng);
  ASSERT_GT(pipeline.dbl_vocabulary().size(), 100U);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_matches_oracle(pipeline, corpus[i], rng.child(i),
                          "sample " + std::to_string(i));
  }
}

TEST(ExtractIdentityTest, RepeatedGramSizesCountEachRepeat) {
  math::Rng rng(32);
  const auto corpus = firmware_corpus(8, 20, 40, rng);
  PipelineConfig config = small_config();
  config.gram_sizes = {2, 2, 3};
  const auto pipeline = FeaturePipeline::fit(corpus, config, rng);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_matches_oracle(pipeline, corpus[i], rng.child(i),
                          "sample " + std::to_string(i));
  }
}

TEST(ExtractIdentityTest, LoadedGramsOfUncountedLengthNeverCount) {
  // Vocabularies fitted over sizes {1, 2, 3, 4} under a config that
  // counts only {2, 3, 3}: the 1- and 4-grams stay in the vocabulary
  // with zero counts, the 3-grams count twice.
  math::Rng rng(33);
  const auto corpus = firmware_corpus(8, 20, 40, rng);
  PipelineConfig all_sizes = small_config();
  all_sizes.gram_sizes = {1, 2, 3, 4};
  const auto fitted = FeaturePipeline::fit(corpus, all_sizes, rng);
  PipelineConfig fewer = small_config();
  fewer.gram_sizes = {2, 3, 3};
  const auto pipeline =
      with_vocabularies(FeaturePipeline::fit(corpus, fewer, rng),
                        fitted.dbl_vocabulary(), fitted.lbl_vocabulary());
  bool has_uncounted = false;
  for (const GramKey key : pipeline.dbl_vocabulary().grams()) {
    has_uncounted |= gram_length(key) == 1 || gram_length(key) == 4;
  }
  ASSERT_TRUE(has_uncounted);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_matches_oracle(pipeline, corpus[i], rng.child(i),
                          "sample " + std::to_string(i));
  }
}

TEST(ExtractIdentityTest, EmptyVocabularyGivesEmptyRows) {
  math::Rng rng(34);
  const auto corpus = firmware_corpus(4, 20, 20, rng);
  const auto pipeline =
      with_vocabularies(FeaturePipeline::fit(corpus, small_config(), rng),
                        Vocabulary{}, Vocabulary{});
  ASSERT_EQ(pipeline.combined_dimension(), 0U);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_matches_oracle(pipeline, corpus[i], rng.child(i),
                          "sample " + std::to_string(i));
  }
  math::Rng extract_rng(1);
  const auto features = pipeline.extract(corpus[0], extract_rng);
  ASSERT_EQ(features.dbl.size(), 3U);
  EXPECT_TRUE(features.dbl[0].empty());
  EXPECT_TRUE(features.pooled_lbl.empty());
}

TEST(ExtractIdentityTest, SingleBlockCfgStaysPut) {
  math::Rng rng(35);
  const auto corpus = firmware_corpus(6, 10, 20, rng);
  PipelineConfig config = small_config();
  config.gram_sizes = {1, 2, 3, 4};
  const auto pipeline = FeaturePipeline::fit(corpus, config, rng);
  const cfg::Cfg lone(graph::DiGraph(1), 0);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    expect_matches_oracle(pipeline, lone, math::Rng(seed), "single block");
  }
}

TEST(ExtractIdentityTest, WalksShorterThanLongestGram) {
  // 0.25 * |V| steps: CFGs of 1-9 blocks give traces of 1-3 labels,
  // shorter than the 4-grams (and, at one label, than every size).
  math::Rng rng(36);
  PipelineConfig config = small_config();
  config.walk.length_multiplier = 0.25;
  config.gram_sizes = {1, 2, 3, 4};
  const auto corpus = firmware_corpus(10, 1, 9, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, config, rng);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_matches_oracle(pipeline, corpus[i], rng.child(i),
                          "sample " + std::to_string(i) + " (" +
                              std::to_string(corpus[i].node_count()) +
                              " blocks)");
  }
}

TEST(ExtractIdentityTest, LabelsAbsentFromVocabulary) {
  // Fitted on CFGs of at most 40 blocks, extracted on CFGs of up to
  // 900: most labels, and every label past 39, are out of vocabulary.
  math::Rng rng(37);
  const auto corpus = firmware_corpus(8, 20, 20, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, small_config(), rng);
  const auto large = firmware_corpus(4, 300, 600, rng);
  for (std::size_t i = 0; i < large.size(); ++i) {
    expect_matches_oracle(pipeline, large[i], rng.child(i),
                          "sample " + std::to_string(i));
  }
}

}  // namespace
}  // namespace soteria::features
