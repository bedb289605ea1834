// perf_infer — the automaton extraction against its map-based oracle,
// and per-sample analyze_batch latency.
//
// Four measurements:
//
//   * n-gram stage: per-walk TF-IDF production via the map-based
//     oracle (oracles::count_grams_reference + oracles::tfidf_reference)
//     versus each label trace run through the vocabulary's
//     GramAutomaton -> spread -> dense tfidf_into, on identical walks
//     (the "flat" keys). Outputs are checked bitwise before timing.
//   * extraction: FeaturePipeline::extract versus
//     oracles::extract_reference (labeled_walks + count_grams_reference
//     + reference TF-IDF) on the same CFGs and walk seeds, labelings
//     served from the warmed cache for both. Bundles are checked
//     bitwise.
//   * firmware row: the same comparison on one 2,000-block
//     firmware_like_cfg under the product pipeline config
//     (cpu_scaled_config: top-500, sizes {1,2,3,4}, 10 walks of 5|V|),
//     reporting extract ms and ns per walk step (both labelings).
//   * analyze_batch: per-sample milliseconds at 1, 2 and 4 threads,
//     with the verdicts checked identical across thread counts.
//
// The sweep fails (non-zero exit) if any identity check fails, if the
// n-gram fast path is under 3x its oracle, or if extraction is under
// 2x its oracle. Results go to stdout, bench_results/perf_infer.txt,
// and the "perf_infer" section of the repo-root BENCH_perf.json
// (read-merge-write, other sections preserved). Scale/seed follow
// SOTERIA_SCALE / SOTERIA_SEED.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cfg/labeling.h"
#include "cfg/labeling_cache.h"
#include "common/perf_json.h"
#include "dataset/generator.h"
#include "graph/generators.h"
#include "features/ngram.h"
#include "features/pipeline.h"
#include "features/random_walk.h"
#include "features/vocabulary.h"
#include "math/rng.h"
#include "oracles/feature_reference.h"
#include "runtime/thread_pool.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria {
namespace {

constexpr double kRequiredNgramSpeedup = 3.0;
constexpr double kRequiredExtractSpeedup = 2.0;
#ifdef NDEBUG
constexpr const char* kBuildKind = "optimized (NDEBUG)";
#else
constexpr const char* kBuildKind = "debug (assertions on)";
#endif

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double, std::milli> delta =
      std::chrono::steady_clock::now() - start;
  return delta.count();
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_rows(const std::vector<std::vector<float>>& a,
               const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_floats(a[i], b[i])) return false;
  }
  return true;
}

bool same_features(const features::SampleFeatures& a,
                   const features::SampleFeatures& b) {
  return same_rows(a.dbl, b.dbl) && same_rows(a.lbl, b.lbl) &&
         same_floats(a.pooled_dbl, b.pooled_dbl) &&
         same_floats(a.pooled_lbl, b.pooled_lbl);
}

bool verdicts_identical(const std::vector<core::Verdict>& a,
                        const std::vector<core::Verdict>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].adversarial != b[i].adversarial ||
        a[i].reconstruction_error != b[i].reconstruction_error ||
        a[i].predicted != b[i].predicted) {
      return false;
    }
  }
  return true;
}

struct Comparison {
  double reference_ms = 0.0;
  double fast_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

/// Times per-walk TF-IDF production (counting + weighting) over the
/// same walk set through the map-based oracle and the library's dense
/// path. The walks come from real labeled CFGs so gram distributions
/// match what inference sees.
Comparison run_ngram_stage(const core::SoteriaSystem& model,
                           const std::vector<cfg::Cfg>& cfgs,
                           std::uint64_t seed) {
  const auto& pipeline = model.pipeline();
  const auto& config = pipeline.config();

  struct WalkSet {
    const features::Vocabulary* vocab;
    std::vector<std::vector<cfg::Label>> walks;
  };
  WalkSet sets[2] = {{&pipeline.dbl_vocabulary(), {}},
                     {&pipeline.lbl_vocabulary(), {}}};

  math::Rng walk_rng(seed + 17);
  for (const auto& cfg : cfgs) {
    const auto labelings = cfg::label_both(cfg, config.labeling);
    auto dbl = features::labeled_walks(cfg, labelings.dbl, config.walk,
                                       walk_rng);
    auto lbl = features::labeled_walks(cfg, labelings.lbl, config.walk,
                                       walk_rng);
    for (auto& walk : dbl) sets[0].walks.push_back(std::move(walk));
    for (auto& walk : lbl) sets[1].walks.push_back(std::move(walk));
  }

  const auto reference = [&config](const features::Vocabulary& vocab,
                                   const std::vector<cfg::Label>& walk) {
    features::GramCounts counts;
    oracles::count_grams_reference(walk, config.gram_sizes, counts);
    return oracles::tfidf_reference(vocab, counts, config.l2_normalize);
  };
  const features::GramMultiplicity multiplicity =
      features::gram_multiplicity(config.gram_sizes);
  std::vector<std::uint32_t> visits;
  std::vector<std::uint32_t> dense;
  std::vector<float> out;
  const auto fast = [&](const features::Vocabulary& vocab,
                        const std::vector<cfg::Label>& walk) {
    const features::GramAutomaton& automaton = vocab.automaton();
    visits.assign(automaton.state_count(), 0);
    std::uint32_t state = features::GramAutomaton::kRoot;
    for (const cfg::Label label : walk) {
      state = automaton.next(state, automaton.symbol(label));
      ++visits[state];
    }
    dense.assign(vocab.size(), 0);
    automaton.spread(visits, multiplicity, dense);
    out.resize(vocab.size());
    vocab.tfidf_into(dense,
                     features::window_count(walk.size(), config.gram_sizes),
                     out, config.l2_normalize);
  };

  // Identity first: both paths must produce the same bytes per walk.
  Comparison result;
  result.identical = true;
  for (const auto& set : sets) {
    for (const auto& walk : set.walks) {
      fast(*set.vocab, walk);
      result.identical =
          result.identical && same_floats(reference(*set.vocab, walk), out);
    }
  }

  // Timed loops: several repetitions over all walks; a checksum keeps
  // the work observable.
  constexpr std::size_t kReps = 5;
  double checksum = 0.0;
  const auto reference_start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (const auto& set : sets) {
      for (const auto& walk : set.walks) {
        const auto row = reference(*set.vocab, walk);
        checksum += row.empty() ? 0.0 : row[0];
      }
    }
  }
  result.reference_ms = elapsed_ms(reference_start);

  const auto fast_start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (const auto& set : sets) {
      for (const auto& walk : set.walks) {
        fast(*set.vocab, walk);
        checksum += out.empty() ? 0.0 : out[0];
      }
    }
  }
  result.fast_ms = elapsed_ms(fast_start);
  result.speedup =
      result.fast_ms > 0.0 ? result.reference_ms / result.fast_ms : 0.0;
  result.identical = result.identical && checksum == checksum;  // keep live
  return result;
}

/// Times whole-sample extraction: FeaturePipeline::extract against the
/// oracle extraction, sample i drawing from Rng(seed).child(i) on both
/// sides. Labelings come from the pipeline's cache, warmed before
/// timing, so both sides time walks, counting and TF-IDF only.
Comparison run_extract_stage(const core::SoteriaSystem& model,
                             const std::vector<cfg::Cfg>& cfgs,
                             std::uint64_t seed) {
  const auto& pipeline = model.pipeline();
  const auto& cache = pipeline.labeling_cache();
  if (cache) {
    for (const auto& cfg : cfgs) {
      (void)cache->labels(cfg, pipeline.config().labeling);
    }
  }
  const math::Rng base(seed + 29);

  Comparison result;
  result.identical = true;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng fast_rng = base.child(i);
    math::Rng oracle_rng = base.child(i);
    result.identical =
        result.identical &&
        same_features(pipeline.extract(cfgs[i], fast_rng),
                      oracles::extract_reference(pipeline, cfgs[i],
                                                 oracle_rng)) &&
        fast_rng.engine()() == oracle_rng.engine()();
  }

  // Best of several alternating repetitions per side.
  constexpr std::size_t kReps = 3;
  double checksum = 0.0;
  result.reference_ms = 1e300;
  result.fast_ms = 1e300;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      math::Rng rng = base.child(i);
      checksum +=
          oracles::extract_reference(pipeline, cfgs[i], rng).pooled_dbl[0];
    }
    result.reference_ms = std::min(result.reference_ms, elapsed_ms(start));

    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      math::Rng rng = base.child(i);
      checksum += pipeline.extract(cfgs[i], rng).pooled_dbl[0];
    }
    result.fast_ms = std::min(result.fast_ms, elapsed_ms(start));
  }
  result.speedup =
      result.fast_ms > 0.0 ? result.reference_ms / result.fast_ms : 0.0;
  result.identical = result.identical && checksum == checksum;  // keep live
  return result;
}

struct FirmwareRow {
  std::size_t steps = 0;  ///< walk steps per extract, both labelings
  double reference_ms = 0.0;
  double extract_ms = 0.0;
  bool identical = false;
};

/// One 2,000-block firmware CFG through a product-config pipeline
/// fitted on `training`: best-of-5 extract ms against the oracle's,
/// labelings cached for both.
FirmwareRow run_firmware_row(const std::vector<cfg::Cfg>& training,
                             std::uint64_t seed) {
  math::Rng fit_rng(seed + 41);
  auto pipeline = features::FeaturePipeline::fit(
      training, core::cpu_scaled_config().pipeline, fit_rng);
  pipeline.set_labeling_cache(std::make_shared<cfg::LabelingCache>(4));
  math::Rng graph_rng(seed + 43);
  const cfg::Cfg firmware(graph::firmware_like_cfg(2000, graph_rng), 0);
  (void)pipeline.labeling_cache()->labels(firmware,
                                          pipeline.config().labeling);
  const math::Rng base(seed + 47);

  FirmwareRow row;
  const auto& walk = pipeline.config().walk;
  row.steps = 2 * walk.walks_per_labeling *
              features::walk_steps(walk, firmware.node_count());
  math::Rng fast_rng = base;
  math::Rng oracle_rng = base;
  row.identical =
      same_features(pipeline.extract(firmware, fast_rng),
                    oracles::extract_reference(pipeline, firmware,
                                               oracle_rng)) &&
      fast_rng.engine()() == oracle_rng.engine()();

  double checksum = 0.0;
  row.reference_ms = 1e300;
  row.extract_ms = 1e300;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    math::Rng rng = base;
    auto start = std::chrono::steady_clock::now();
    checksum += oracles::extract_reference(pipeline, firmware, rng)
                    .pooled_dbl[0];
    row.reference_ms = std::min(row.reference_ms, elapsed_ms(start));
    rng = base;
    start = std::chrono::steady_clock::now();
    checksum += pipeline.extract(firmware, rng).pooled_dbl[0];
    row.extract_ms = std::min(row.extract_ms, elapsed_ms(start));
  }
  row.identical = row.identical && checksum == checksum;  // keep live
  return row;
}

int run() {
  const char* scale_env = std::getenv("SOTERIA_SCALE");
  const char* seed_env = std::getenv("SOTERIA_SEED");
  const double scale = scale_env ? std::strtod(scale_env, nullptr) : 0.008;
  const std::uint64_t seed =
      seed_env ? std::strtoull(seed_env, nullptr, 10) : 42;

  dataset::DatasetConfig data_config;
  data_config.scale = scale;
  math::Rng rng(seed);
  const auto data = dataset::generate_dataset(data_config, rng);
  const auto config = core::tiny_config();
  const auto model = core::SoteriaSystem::train(data.train, config);

  std::vector<cfg::Cfg> base;
  base.reserve(data.test.size());
  for (const auto& sample : data.test) base.push_back(sample.cfg);
  std::printf("perf_infer: %zu test cfgs, scale %.3f, seed %llu\n",
              base.size(), scale, static_cast<unsigned long long>(seed));

  std::string report;
  std::map<std::string, double> json_values;
  char line[200];
  const auto emit = [&report, &line] {
    report += line;
    std::printf("%s", line);
  };
  std::snprintf(line, sizeof(line),
                "provenance: g++ %s, %s build, %zu hardware threads, "
                "scale %.3f, seed %llu\n",
                __VERSION__, kBuildKind, runtime::hardware_threads(), scale,
                static_cast<unsigned long long>(seed));
  emit();

  const auto ngram = run_ngram_stage(model, base, seed);
  std::snprintf(line, sizeof(line),
                "ngrams   reference %8.1f ms   automaton %6.1f ms   "
                "%5.1fx%s\n",
                ngram.reference_ms, ngram.fast_ms, ngram.speedup,
                ngram.identical ? "" : "  IDENTITY-VIOLATION");
  emit();
  json_values["ngrams_reference_ms"] = ngram.reference_ms;
  json_values["ngrams_flat_ms"] = ngram.fast_ms;
  json_values["ngrams_speedup"] = ngram.speedup;

  const auto extract = run_extract_stage(model, base, seed);
  std::snprintf(line, sizeof(line),
                "extract  reference %8.1f ms   automaton %6.1f ms   "
                "%5.1fx%s\n",
                extract.reference_ms, extract.fast_ms, extract.speedup,
                extract.identical ? "" : "  IDENTITY-VIOLATION");
  emit();
  json_values["extract_reference_ms"] = extract.reference_ms;
  json_values["extract_fused_ms"] = extract.fast_ms;
  json_values["extract_speedup"] = extract.speedup;

  std::vector<cfg::Cfg> training;
  training.reserve(data.train.size());
  for (const auto& sample : data.train) training.push_back(sample.cfg);
  const auto firmware = run_firmware_row(training, seed);
  const double ns_per_step =
      firmware.extract_ms * 1e6 / static_cast<double>(firmware.steps);
  std::snprintf(line, sizeof(line),
                "firmware 2000 blocks   reference %8.2f ms   extract %6.2f ms"
                "   %5.2f ns/step%s\n",
                firmware.reference_ms, firmware.extract_ms, ns_per_step,
                firmware.identical ? "" : "  IDENTITY-VIOLATION");
  emit();
  json_values["firmware2000_reference_ms"] = firmware.reference_ms;
  json_values["firmware2000_extract_ms"] = firmware.extract_ms;
  json_values["firmware2000_ns_per_step"] = ns_per_step;

  // Batch corpus: the test set repeated so each timed run is long
  // enough to measure; every index still draws its own walk RNG. One
  // untimed pass warms the shared labeling cache.
  std::vector<cfg::Cfg> cfgs;
  cfgs.reserve(base.size() * 4);
  for (std::size_t m = 0; m < 4; ++m) {
    cfgs.insert(cfgs.end(), base.begin(), base.end());
  }
  const math::Rng batch_rng(911);
  core::AnalyzeOptions options;
  options.num_threads = 1;
  const auto serial = model.analyze_batch(cfgs, batch_rng, options);

  bool all_identical =
      ngram.identical && extract.identical && firmware.identical;
  constexpr std::size_t kReps = 3;
  for (const std::size_t threads : {1U, 2U, 4U}) {
    options.num_threads = threads;
    double best_ms = 1e300;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const auto verdicts = model.analyze_batch(cfgs, batch_rng, options);
      best_ms = std::min(best_ms, elapsed_ms(start));
      all_identical = all_identical && verdicts_identical(verdicts, serial);
    }
    const double per_sample_ms = best_ms / static_cast<double>(cfgs.size());
    std::snprintf(line, sizeof(line),
                  "batch t%zu %7.1f ms   %.4f ms/sample\n", threads, best_ms,
                  per_sample_ms);
    emit();
    json_values["analyze_batch_t" + std::to_string(threads) +
                "_ms_per_sample"] = per_sample_ms;
  }
  json_values["hardware_threads"] =
      static_cast<double>(runtime::hardware_threads());
  json_values["bit_identical"] = all_identical ? 1.0 : 0.0;

  const bool pass = all_identical &&
                    ngram.speedup >= kRequiredNgramSpeedup &&
                    extract.speedup >= kRequiredExtractSpeedup;
  std::snprintf(line, sizeof(line),
                "bit_identical=%s  ngrams=%.1fx (required %.0fx)  "
                "extract=%.1fx (required %.0fx)\n",
                all_identical ? "yes" : "NO", ngram.speedup,
                kRequiredNgramSpeedup, extract.speedup,
                kRequiredExtractSpeedup);
  emit();

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream out("bench_results/perf_infer.txt");
  if (out) {
    out << report;
    std::printf("sweep written to bench_results/perf_infer.txt\n");
  }
  if (bench::update_perf_json("BENCH_perf.json", "perf_infer",
                              json_values)) {
    std::printf("sweep recorded in BENCH_perf.json\n");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace soteria

int main() { return soteria::run(); }
