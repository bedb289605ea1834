#include "features/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "expect_error.h"
#include "graph/shapes.h"
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
  EXPECT_ERROR(validate(no_topk), core::ErrorCode::kInvalidArgument);
  PipelineConfig no_grams;
  no_grams.gram_sizes.clear();
  EXPECT_ERROR(validate(no_grams), core::ErrorCode::kInvalidArgument);
  PipelineConfig big_gram;
  big_gram.gram_sizes = {5};
  EXPECT_ERROR(validate(big_gram), core::ErrorCode::kInvalidArgument);
  PipelineConfig bad_walk;
  bad_walk.walk.walks_per_labeling = 0;
  EXPECT_ERROR(validate(bad_walk), core::ErrorCode::kInvalidArgument);
}

TEST(Pipeline, FitRequiresCorpus) {
  math::Rng rng(1);
  EXPECT_ERROR((void)FeaturePipeline::fit({}, tiny_config(), rng),
               core::ErrorCode::kInvalidArgument);
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
  EXPECT_ERROR((void)features.combined(99), core::ErrorCode::kOutOfRange);
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

TEST(Pipeline, LoadRejectsLabelingBlockOtherThanExact) {
  // The stream keeps a 40-byte labeling block after the normalization
  // flag: u64 0, u64 0, f64 0.1, f64 0.01, u64 0x536f7465. A model whose
  // block holds anything else was labeled with sampled centrality
  // ranks, which this build cannot reproduce.
  math::Rng rng(10);
  const auto pipeline =
      FeaturePipeline::fit(small_corpus(6, rng), tiny_config(), rng);
  std::stringstream stream;
  pipeline.save(stream);
  const std::string bytes = stream.str();
  // walk multiplier, walks, top_k, gram-size count + sizes, l2 flag.
  const std::size_t block =
      4 * 8 + 8 * pipeline.config().gram_sizes.size() + 1;
  ASSERT_GT(bytes.size(), block + 40);

  const auto field = [&](std::size_t index) {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + block + 8 * index, 8);
    return value;
  };
  const auto as_bits = [](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, 8);
    return bits;
  };
  EXPECT_EQ(field(0), 0U);
  EXPECT_EQ(field(1), 0U);
  EXPECT_EQ(field(2), as_bits(0.1));
  EXPECT_EQ(field(3), as_bits(0.01));
  EXPECT_EQ(field(4), 0x536f7465U);

  const std::uint64_t replacements[] = {1000, 8, as_bits(0.2),
                                        as_bits(0.05), 99};
  for (std::size_t index = 0; index < 5; ++index) {
    SCOPED_TRACE("field " + std::to_string(index));
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + block + 8 * index, &replacements[index], 8);
    std::stringstream in(corrupt);
    try {
      (void)FeaturePipeline::load(in);
      ADD_FAILURE() << "load accepted a non-exact labeling block";
    } catch (const core::Error& error) {
      EXPECT_EQ(error.code(), core::ErrorCode::kCorruptModel) << error.what();
    }
  }
}

}  // namespace
}  // namespace soteria::features
