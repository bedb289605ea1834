#include "features/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "graph/generators.h"
#include "oracles/feature_reference.h"
#include "soteria/error.h"

namespace soteria::features {
namespace {

std::vector<cfg::Cfg> small_corpus(std::size_t n, math::Rng& rng) {
  std::vector<cfg::Cfg> corpus;
  for (std::size_t i = 0; i < n; ++i) {
    corpus.emplace_back(
        graph::random_connected_dag_plus(10 + rng.index(20), 0.08, rng), 0);
  }
  return corpus;
}

PipelineConfig tiny_config() {
  PipelineConfig config;
  config.top_k = 40;
  config.walk.walks_per_labeling = 3;
  return config;
}

TEST(PipelineConfig, Validation) {
  EXPECT_NO_THROW(validate(PipelineConfig{}));
  PipelineConfig no_topk;
  no_topk.top_k = 0;
  EXPECT_THROW(validate(no_topk), std::invalid_argument);
  PipelineConfig no_grams;
  no_grams.gram_sizes.clear();
  EXPECT_THROW(validate(no_grams), std::invalid_argument);
  PipelineConfig big_gram;
  big_gram.gram_sizes = {5};
  EXPECT_THROW(validate(big_gram), std::invalid_argument);
  PipelineConfig bad_walk;
  bad_walk.walk.walks_per_labeling = 0;
  EXPECT_THROW(validate(bad_walk), std::invalid_argument);
}

TEST(Pipeline, FitRequiresCorpus) {
  math::Rng rng(1);
  EXPECT_THROW((void)FeaturePipeline::fit({}, tiny_config(), rng),
               std::invalid_argument);
}

TEST(Pipeline, FitRejectsLabelsPastGramLimitTyped) {
  // Labels run to |V| - 1, and fit's packed keys hold 14-bit labels:
  // a training chain of 16,385 blocks fails fit with a typed error,
  // whichever thread counts it.
  math::Rng rng(3);
  graph::DiGraph chain(kMaxGramLabel + 2);
  for (graph::NodeId v = 0; v + 1 < chain.node_count(); ++v) {
    chain.add_edge(v, v + 1);
  }
  auto corpus = small_corpus(3, rng);
  corpus.emplace_back(std::move(chain), 0);
  for (const std::size_t threads : {1U, 2U}) {
    try {
      (void)FeaturePipeline::fit(corpus, tiny_config(), rng, threads);
      ADD_FAILURE() << "fit accepted a label past kMaxGramLabel";
    } catch (const core::Error& error) {
      EXPECT_EQ(error.code(), core::ErrorCode::kOutOfRange) << error.what();
    }
  }
}

TEST(Pipeline, ExtractShapesMatchConfig) {
  math::Rng rng(2);
  const auto corpus = small_corpus(8, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  EXPECT_LE(pipeline.dbl_vocabulary().size(), 40U);
  EXPECT_GT(pipeline.dbl_vocabulary().size(), 0U);
  EXPECT_EQ(pipeline.combined_dimension(),
            pipeline.dbl_vocabulary().size() +
                pipeline.lbl_vocabulary().size());

  const auto features = pipeline.extract(corpus[0], rng);
  EXPECT_EQ(features.dbl.size(), 3U);
  EXPECT_EQ(features.lbl.size(), 3U);
  EXPECT_EQ(features.dbl[0].size(), pipeline.dbl_vocabulary().size());
  EXPECT_EQ(features.pooled_dbl.size(), pipeline.dbl_vocabulary().size());
  EXPECT_EQ(features.pooled_combined().size(),
            pipeline.combined_dimension());
  EXPECT_EQ(features.combined(0).size(), pipeline.combined_dimension());
}

TEST(Pipeline, ExtractMatchesMapOracleBitwise) {
  // The fused walk -> dense count -> TF-IDF extraction against the
  // map-based oracle, over repeated gram sizes, unigrams and both
  // normalization modes: same vectors to the bit, same rng draws.
  math::Rng rng(9);
  const auto corpus = small_corpus(10, rng);
  PipelineConfig with_repeats = tiny_config();
  with_repeats.gram_sizes = {1, 2, 2, 4};
  PipelineConfig unnormalized = tiny_config();
  unnormalized.l2_normalize = false;
  for (const PipelineConfig& config :
       {tiny_config(), with_repeats, unnormalized}) {
    const auto pipeline = FeaturePipeline::fit(corpus, config, rng);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      math::Rng fused_rng = rng.child(i);
      math::Rng oracle_rng = rng.child(i);
      const auto fused = pipeline.extract(corpus[i], fused_rng);
      const auto oracle =
          oracles::extract_reference(pipeline, corpus[i], oracle_rng);
      EXPECT_EQ(fused.dbl, oracle.dbl) << "sample " << i;
      EXPECT_EQ(fused.lbl, oracle.lbl) << "sample " << i;
      EXPECT_EQ(fused.pooled_dbl, oracle.pooled_dbl) << "sample " << i;
      EXPECT_EQ(fused.pooled_lbl, oracle.pooled_lbl) << "sample " << i;
      EXPECT_EQ(fused_rng.engine()(), oracle_rng.engine()());
    }
  }
}

TEST(Pipeline, CombinedConcatenatesInOrder) {
  math::Rng rng(3);
  const auto corpus = small_corpus(5, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto features = pipeline.extract(corpus[1], rng);
  const auto combined = features.combined(1);
  for (std::size_t i = 0; i < features.dbl[1].size(); ++i) {
    EXPECT_FLOAT_EQ(combined[i], features.dbl[1][i]);
  }
  for (std::size_t i = 0; i < features.lbl[1].size(); ++i) {
    EXPECT_FLOAT_EQ(combined[features.dbl[1].size() + i],
                    features.lbl[1][i]);
  }
  EXPECT_THROW((void)features.combined(99), std::out_of_range);
}

TEST(Pipeline, ExtractionIsDeterministicGivenRng) {
  math::Rng rng(4);
  const auto corpus = small_corpus(5, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  math::Rng a(11);
  math::Rng b(11);
  const auto fa = pipeline.extract(corpus[0], a);
  const auto fb = pipeline.extract(corpus[0], b);
  EXPECT_EQ(fa.dbl, fb.dbl);
  EXPECT_EQ(fa.pooled_lbl, fb.pooled_lbl);
}

TEST(Pipeline, RandomizationPropertyFreshWalksDiffer) {
  // The paper's defense: every extraction run draws fresh walks, so the
  // concrete vectors differ run to run (while remaining close in
  // distribution).
  math::Rng rng(5);
  const auto corpus = small_corpus(5, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto f1 = pipeline.extract(corpus[0], rng);
  const auto f2 = pipeline.extract(corpus[0], rng);
  EXPECT_NE(f1.dbl, f2.dbl);
}

TEST(Pipeline, MeanVectorsAverageWalks) {
  math::Rng rng(6);
  const auto corpus = small_corpus(4, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto features = pipeline.extract(corpus[0], rng);
  const auto mean = features.mean_dbl();
  ASSERT_EQ(mean.size(), features.dbl[0].size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    float expected = 0.0F;
    for (const auto& walk : features.dbl) expected += walk[i];
    expected /= static_cast<float>(features.dbl.size());
    EXPECT_NEAR(mean[i], expected, 1e-6);
  }
}

TEST(Pipeline, PooledVectorHasUnitNormWhenEnabled) {
  math::Rng rng(7);
  const auto corpus = small_corpus(4, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto features = pipeline.extract(corpus[0], rng);
  double norm = 0.0;
  for (float x : features.pooled_dbl) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
}

TEST(Pipeline, SaveLoadRoundTrips) {
  math::Rng rng(8);
  const auto corpus = small_corpus(6, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  std::stringstream stream;
  pipeline.save(stream);
  const auto loaded = FeaturePipeline::load(stream);
  EXPECT_EQ(loaded.config().top_k, pipeline.config().top_k);
  EXPECT_EQ(loaded.config().gram_sizes, pipeline.config().gram_sizes);
  EXPECT_EQ(loaded.dbl_vocabulary().grams(),
            pipeline.dbl_vocabulary().grams());
  math::Rng a(9);
  math::Rng b(9);
  EXPECT_EQ(loaded.extract(corpus[0], a).pooled_dbl,
            pipeline.extract(corpus[0], b).pooled_dbl);
}

TEST(Pipeline, GramCountsPoolAcrossWalks) {
  math::Rng rng(10);
  const auto corpus = small_corpus(4, rng);
  const auto pipeline = FeaturePipeline::fit(corpus, tiny_config(), rng);
  const auto counts = pipeline.gram_counts(
      corpus[0], cfg::LabelingMethod::kDensity, rng);
  EXPECT_FALSE(counts.empty());
  // 3 walks of 5*|V| steps each -> total 2-,3-,4-gram occurrences.
  const std::size_t v = corpus[0].node_count();
  const std::size_t walk_len = 5 * v + 1;
  const std::size_t expected =
      3 * ((walk_len - 1) + (walk_len - 2) + (walk_len - 3));
  EXPECT_EQ(total_occurrences(counts), expected);
}

}  // namespace
}  // namespace soteria::features
