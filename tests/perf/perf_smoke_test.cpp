// Fast smoke coverage for the performance-critical fast paths: the
// fused parallel centrality and the cached extraction pipeline run on
// a fixed workload with shape/consistency assertions only — no timing
// assertions, so the suite is stable in CI and meaningful under TSan
// (it carries the `perf` ctest label, which the sanitizer invocation
// includes).
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/labeling_cache.h"
#include "common/json.h"
#include "features/pipeline.h"
#include "graph/centrality.h"
#include "graph/shapes.h"
#include "math/rng.h"

namespace soteria {
namespace {

TEST(PerfSmoke, ParallelCentralityOnRepresentativeGraph) {
  math::Rng rng(2024);
  const auto g = graph::random_connected_dag_plus(400, 0.02, rng);
  const auto serial = graph::centrality_scores(g, 1);
  ASSERT_EQ(serial.betweenness.size(), g.node_count());
  ASSERT_EQ(serial.closeness.size(), g.node_count());

  for (std::size_t threads : {2U, 4U, 8U}) {
    const auto scores = graph::centrality_scores(g, threads);
    EXPECT_EQ(scores.betweenness, serial.betweenness)
        << threads << " threads";
    EXPECT_EQ(scores.closeness, serial.closeness) << threads << " threads";
  }
}

TEST(PerfSmoke, CachedExtractionWorkload) {
  // A miniature of the training flow: fit on a small corpus with a
  // shared cache, then extract every sample twice — the second sweep
  // must be all cache hits and produce identically-shaped bundles.
  math::Rng corpus_rng(7);
  std::vector<cfg::Cfg> corpus;
  for (int i = 0; i < 12; ++i) {
    corpus.emplace_back(
        graph::random_connected_dag_plus(30, 0.08, corpus_rng), 0);
  }

  features::PipelineConfig config;
  config.top_k = 50;
  auto cache = std::make_shared<cfg::LabelingCache>(64);
  math::Rng fit_rng(11);
  const auto pipeline =
      features::FeaturePipeline::fit(corpus, config, fit_rng, 4, cache);
  EXPECT_EQ(cache->stats().misses, corpus.size());

  const auto dim = pipeline.combined_dimension();
  ASSERT_GT(dim, 0U);
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      math::Rng rng(100 + i);
      const auto features = pipeline.extract(corpus[i], rng);
      ASSERT_EQ(features.dbl.size(), config.walk.walks_per_labeling);
      ASSERT_EQ(features.lbl.size(), config.walk.walks_per_labeling);
      EXPECT_EQ(features.pooled_combined().size(), dim);
    }
  }
  // fit missed once per sample; everything since has been a hit.
  EXPECT_EQ(cache->stats().misses, corpus.size());
  EXPECT_EQ(cache->stats().hits, 2 * corpus.size());
  EXPECT_EQ(cache->stats().evictions, 0U);
}

/// The BENCH_perf.json in reach (run from the build tree or the repo
/// root), or "" when there is none.
std::string recorded_bench_perf() {
  for (const char* candidate :
       {"BENCH_perf.json", "../BENCH_perf.json", "../../BENCH_perf.json"}) {
    std::ifstream in(candidate);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      return buffer.str();
    }
  }
  return "";
}

TEST(PerfSmoke, RecordedGraphSweepHasExactKeysOnly) {
  // When a BENCH_perf.json is reachable, its perf_graph section must
  // carry the exact sweep shape: "exact.*" timing keys for the
  // firmware-shaped graphs at every thread count, and the host's thread
  // count as provenance. Labeling has one centrality path, so keys of
  // an older sweep shape ("approx.*", "scale_free.*", "centrality.*")
  // mean the bench and its consumers have drifted apart.
  const std::string contents = recorded_bench_perf();
  if (contents.empty()) {
    GTEST_SKIP() << "no BENCH_perf.json in reach; bench not yet run here";
  }

  const auto parsed = bench::json::parse(contents);
  const auto& document = parsed.as_object();
  const auto it = document.find("perf_graph");
  if (it == document.end()) {
    GTEST_SKIP() << "BENCH_perf.json has no perf_graph section yet";
  }
  const auto& section = it->second.as_object();
  for (const char* n : {"1000", "10000", "50000"}) {
    for (const char* t : {"1", "2", "4", "8"}) {
      const std::string key =
          std::string("exact.n") + n + ".t" + t + ".ms";
      ASSERT_TRUE(section.count(key)) << key;
      EXPECT_GT(section.at(key).as_number(), 0.0) << key;
    }
  }
  ASSERT_TRUE(section.count("hardware_threads"));
  EXPECT_GE(section.at("hardware_threads").as_number(), 1.0);
  // The rewrite replaced the section wholesale: no stale keys.
  for (const auto& [key, value] : section) {
    EXPECT_TRUE(key == "hardware_threads" || key.rfind("exact.", 0) == 0)
        << "stale key " << key;
  }
}

TEST(PerfSmoke, RecordedInferSweepHasSpeedupFloorsAndIdentity) {
  // When a BENCH_perf.json is reachable, its perf_infer section must
  // carry the sweep shape: the n-gram and whole-extraction oracle vs
  // library pairs, per-sample analyze_batch latency at 1/2/4 threads
  // with the host's thread count, the classifier vote's per-verdict
  // predict and full-tally times with predict's mean rows, and the
  // gates the bench enforces — bit identity (equal vote classes too),
  // n-grams >= 3x, extraction >= 2x. The bench exits non-zero
  // otherwise, so a recorded document must always carry passing
  // values.
  const std::string contents = recorded_bench_perf();
  if (contents.empty()) {
    GTEST_SKIP() << "no BENCH_perf.json in reach; bench not yet run here";
  }

  const auto parsed = bench::json::parse(contents);
  const auto& document = parsed.as_object();
  const auto it = document.find("perf_infer");
  if (it == document.end()) {
    GTEST_SKIP() << "BENCH_perf.json has no perf_infer section yet";
  }
  const auto& section = it->second.as_object();
  for (const char* key :
       {"ngrams_reference_ms", "ngrams_flat_ms", "extract_reference_ms",
        "extract_fused_ms", "analyze_batch_t1_ms_per_sample",
        "analyze_batch_t2_ms_per_sample", "analyze_batch_t4_ms_per_sample",
        "classifier_predict_ms", "classifier_tally_ms",
        "classifier_rows_mean", "hardware_threads"}) {
    ASSERT_TRUE(section.count(key)) << key;
    EXPECT_GT(section.at(key).as_number(), 0.0) << key;
  }
  ASSERT_TRUE(section.count("bit_identical"));
  EXPECT_EQ(section.at("bit_identical").as_number(), 1.0);
  ASSERT_TRUE(section.count("ngrams_speedup"));
  EXPECT_GE(section.at("ngrams_speedup").as_number(), 3.0);
  ASSERT_TRUE(section.count("extract_speedup"));
  EXPECT_GE(section.at("extract_speedup").as_number(), 2.0);
}

TEST(PerfSmoke, RecordedNnSectionHasTrainingStepKeys) {
  // When a BENCH_perf.json is reachable, its perf_nn section must carry
  // the per-step training cost of the product CNN and autoencoder
  // (bench/perf_nn's training-step tables) and the product
  // classifier's whole-net inference cost per row (its op table)
  // beside the kernel rates, Dense's backward GEMMs among them.
  const std::string contents = recorded_bench_perf();
  if (contents.empty()) {
    GTEST_SKIP() << "no BENCH_perf.json in reach; bench not yet run here";
  }

  const auto parsed = bench::json::parse(contents);
  const auto& document = parsed.as_object();
  const auto it = document.find("perf_nn");
  if (it == document.end()) {
    GTEST_SKIP() << "BENCH_perf.json has no perf_nn section yet";
  }
  const auto& section = it->second.as_object();
  for (const char* key :
       {"nn_train_step_cnn_ms", "nn_train_step_ae_ms",
        "classifier_infer_us_per_row", "conv1d_backward_gflops",
        "gemm_256_tiled_gflops", "dense_1952x128_at_gflops",
        "dense_1952x128_bt_gflops", "hardware_threads"}) {
    ASSERT_TRUE(section.count(key)) << key;
    EXPECT_GT(section.at(key).as_number(), 0.0) << key;
  }
}

}  // namespace
}  // namespace soteria
