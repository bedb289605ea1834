// Micro-benchmarks for the feature substrate: random walks, n-gram
// counting, TF-IDF vectorization, and full per-sample extraction (the
// automaton FeaturePipeline::extract next to the map-based
// oracles::extract_reference, on random DAGs and on a 2,000-block
// firmware CFG) — plus a thread-count sweep of the parallel batch
// engine over a corpus.
//
// Before the suites, main() checks extract against extract_reference
// bit for bit on every CFG the extraction benchmarks time and exits 1
// on any difference. Per-stage times at product shape come from
// perfbench's traced runs (`perfbench/run.py --trace 1`).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "cfg/labeling_cache.h"
#include "features/pipeline.h"
#include "graph/generators.h"
#include "oracles/feature_reference.h"
#include "runtime/thread_pool.h"

namespace {

using namespace soteria;

cfg::Cfg make_cfg(std::size_t n) {
  math::Rng rng(42);
  return cfg::Cfg(
      graph::random_connected_dag_plus(n, 4.0 / static_cast<double>(n),
                                       rng),
      0);
}

features::FeaturePipeline make_pipeline(std::size_t corpus_size) {
  math::Rng rng(1);
  std::vector<cfg::Cfg> corpus;
  for (std::size_t i = 0; i < corpus_size; ++i) {
    corpus.push_back(make_cfg(40 + rng.index(60)));
  }
  features::PipelineConfig config;
  config.gram_sizes = {1, 2, 3, 4};
  return features::FeaturePipeline::fit(corpus, config, rng);
}

void BM_RandomWalk(benchmark::State& state) {
  const auto cfg = make_cfg(static_cast<std::size_t>(state.range(0)));
  const features::UndirectedView view(cfg);
  const std::size_t steps = 5 * cfg.node_count();
  math::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        features::random_walk_nodes(view, steps, rng));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK(BM_RandomWalk)->Arg(32)->Arg(128)->Arg(512);

// Map-based gram counting of one sample's walks: the rolling
// count_grams (library) vs the per-window pack_gram oracle.
template <typename Count>
void gram_counting(benchmark::State& state, Count&& count) {
  const auto cfg = make_cfg(128);
  const auto labels = cfg::label_nodes(cfg, cfg::LabelingMethod::kDensity);
  math::Rng rng(3);
  const auto walks =
      features::labeled_walks(cfg, labels, features::WalkConfig{}, rng);
  const std::vector<std::size_t> sizes{1, 2, 3, 4};
  for (auto _ : state) {
    features::GramCounts counts;
    for (const auto& walk : walks) count(walk, sizes, counts);
    benchmark::DoNotOptimize(counts);
  }
}

void BM_GramCounting(benchmark::State& state) {
  gram_counting(state, [](const auto& walk, const auto& sizes, auto& counts) {
    features::count_grams(walk, sizes, counts);
  });
}
BENCHMARK(BM_GramCounting);

void BM_GramCountingReference(benchmark::State& state) {
  gram_counting(state, [](const auto& walk, const auto& sizes, auto& counts) {
    oracles::count_grams_reference(walk, sizes, counts);
  });
}
BENCHMARK(BM_GramCountingReference);

void BM_TfidfVector(benchmark::State& state) {
  auto pipeline = make_pipeline(24);
  const auto cfg = make_cfg(96);
  const auto labels = cfg::label_nodes(cfg, cfg::LabelingMethod::kDensity);
  math::Rng rng(4);
  const auto walks =
      features::labeled_walks(cfg, labels, pipeline.config().walk, rng);
  const auto& vocab = pipeline.dbl_vocabulary();
  features::GramCounts pooled;
  for (const auto& walk : walks) {
    oracles::count_grams_reference(walk, pipeline.config().gram_sizes,
                                   pooled);
  }
  std::vector<std::uint32_t> counts(vocab.size(), 0);
  for (const auto& [key, count] : pooled) {
    if (const auto idx = vocab.index_of(key)) counts[*idx] = count;
  }
  const std::uint64_t total = features::total_occurrences(pooled);
  std::vector<float> out(vocab.size());
  for (auto _ : state) {
    vocab.tfidf_into(counts, total, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TfidfVector);

/// The CFG an extraction benchmark times: a random DAG of `n` blocks,
/// or with `firmware` a firmware_like_cfg of `n` blocks.
cfg::Cfg extraction_cfg(std::size_t n, bool firmware) {
  if (!firmware) return make_cfg(n);
  math::Rng rng(43);
  return cfg::Cfg(graph::firmware_like_cfg(n, rng), 0);
}

/// Whole-sample extraction through `extract(pipeline, cfg, rng)`;
/// state.range(0) is the block count, state.range(1) = 1 selects the
/// firmware shape. Labelings are cached and warmed, so walks,
/// counting and TF-IDF are what is timed.
template <typename Extract>
void full_extraction(benchmark::State& state, Extract&& extract) {
  auto pipeline = make_pipeline(24);
  pipeline.set_labeling_cache(std::make_shared<cfg::LabelingCache>(4));
  const auto cfg = extraction_cfg(static_cast<std::size_t>(state.range(0)),
                                  state.range(1) != 0);
  (void)pipeline.labeling_cache()->labels(cfg);
  math::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract(pipeline, cfg, rng));
  }
  const auto& walk = pipeline.config().walk;
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * 2 * walk.walks_per_labeling *
      features::walk_steps(walk, cfg.node_count())));
}

void BM_FullExtraction(benchmark::State& state) {
  full_extraction(state, [](const auto& pipeline, const auto& cfg,
                            auto& rng) { return pipeline.extract(cfg, rng); });
}

void BM_FullExtractionReference(benchmark::State& state) {
  full_extraction(state, [](const auto& pipeline, const auto& cfg,
                            auto& rng) {
    return oracles::extract_reference(pipeline, cfg, rng);
  });
}

// Random DAGs of 32/128/512 blocks, then the 2,000-block firmware CFG
// (items/s = walk steps/s, both labelings).
const std::vector<std::vector<std::int64_t>> kExtractionArgs = {
    {32, 0}, {128, 0}, {512, 0}, {2000, 1}};
void extraction_args(benchmark::internal::Benchmark* bench) {
  for (const auto& args : kExtractionArgs) bench->Args(args);
}
BENCHMARK(BM_FullExtraction)->Apply(extraction_args);
BENCHMARK(BM_FullExtractionReference)->Apply(extraction_args);

/// extract vs extract_reference, bit for bit (rows, pooled rows and
/// rng state), on every CFG BM_FullExtraction times.
bool extraction_matches_oracle() {
  const auto pipeline = make_pipeline(24);
  bool same = true;
  for (const auto& args : kExtractionArgs) {
    const auto cfg = extraction_cfg(static_cast<std::size_t>(args[0]),
                                    args[1] != 0);
    math::Rng fast_rng(5);
    math::Rng oracle_rng(5);
    const auto fast = pipeline.extract(cfg, fast_rng);
    const auto oracle = oracles::extract_reference(pipeline, cfg, oracle_rng);
    const auto bytes = [](const std::vector<float>& a,
                          const std::vector<float>& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
    };
    bool cfg_same = fast.dbl.size() == oracle.dbl.size() &&
                    fast.lbl.size() == oracle.lbl.size() &&
                    bytes(fast.pooled_dbl, oracle.pooled_dbl) &&
                    bytes(fast.pooled_lbl, oracle.pooled_lbl) &&
                    fast_rng.engine()() == oracle_rng.engine()();
    for (std::size_t w = 0; cfg_same && w < fast.dbl.size(); ++w) {
      cfg_same = bytes(fast.dbl[w], oracle.dbl[w]) &&
                 bytes(fast.lbl[w], oracle.lbl[w]);
    }
    if (!cfg_same) {
      std::printf("IDENTITY-VIOLATION: extract differs from "
                  "extract_reference on the %lld-block CFG\n",
                  static_cast<long long>(args[0]));
    }
    same = same && cfg_same;
  }
  return same;
}

// Thread sweep: the same 32-sample corpus extraction that dominates
// SoteriaSystem::train, run through runtime::parallel_map at 1/2/4/N
// threads. Before timing, the sweep verifies the determinism contract
// once per thread count: parallel output must be bit-identical to the
// serial loop (sample i always draws from rng.child(i)).
void BM_ParallelCorpusExtraction(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto pipeline = make_pipeline(24);
  math::Rng corpus_rng(6);
  std::vector<cfg::Cfg> corpus;
  for (std::size_t i = 0; i < 32; ++i) {
    corpus.push_back(make_cfg(64 + corpus_rng.index(64)));
  }
  const math::Rng rng(7);
  const auto extract_pooled = [&](std::size_t num_threads) {
    return runtime::parallel_map(
        num_threads, corpus.size(), [&](std::size_t i) {
          math::Rng sample_rng = rng.child(i);
          return pipeline.extract(corpus[i], sample_rng).pooled_combined();
        });
  };
  if (extract_pooled(threads) != extract_pooled(1)) {
    state.SkipWithError("parallel extraction diverged from serial");
    return;
  }
  for (auto _ : state) {
    auto out = runtime::parallel_map(
        threads, corpus.size(), [&](std::size_t i) {
          math::Rng sample_rng = rng.child(i);
          return pipeline.extract(corpus[i], sample_rng);
        });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * corpus.size()));
}
BENCHMARK(BM_ParallelCorpusExtraction)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<std::int64_t>(soteria::runtime::hardware_threads()))
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!extraction_matches_oracle()) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
