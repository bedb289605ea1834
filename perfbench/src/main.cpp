// soteria_perfbench — the repository's end-to-end and per-layer
// benchmark. Normally started through run.py (which builds it first):
//
//   soteria_perfbench --workload scan-cold --seed 1 --seconds 10
//       --trace 0 --workdir .bench_build/work
//
// Prints a human-readable table (every metric with unit and sample
// count), a provenance line, and as its last line one JSON object with
// the keys correct / attempted / failed / metrics. Exits 1 when an
// output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::json_number;
using perfbench::json_string;

/// The metrics of the final JSON line (BENCHMARK.json's end_to_end and
/// per_layer lists, in the same order). The table prints more; see
/// README.md for why those stay out of the JSON line.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "train_s", "verdicts_per_s", "verdict_p50_ms", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "frontend.decode_ms",
    "cfg.label_ms",
    "graph.centrality_ms",
    "cfg.label_cache_hit_ratio",
    "cfg.label_cache_lookups",
    "features.walks_ms",
    "features.ngrams_ms",
    "features.extract_ms",
    "features.tfidf_ms",
    "store.get_ms",
    "store.put_ms",
    "store.hit_ratio",
    "store.lookups",
    "store.entry_kb",
    "detector.score_ms",
    "classifier.predict_ms",
    "serve.batch_size_mean",
    "serve.queue_wait_ms",
    "serve.rejected",
    "serve.expired",
    "gen.lag_p99_ms",
    "train.fit_ms",
    "train.extract_ms",
    "train.detector_ms",
    "train.classifier_ms",
    "trace.unattributed_share",
    "trace.overhead_pct"};

int usage(const char* why) {
  std::fprintf(stderr,
               "soteria_perfbench: %s\n"
               "usage: soteria_perfbench --workload scan-cold|serve-replay|"
               "scan-large --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--git-sha SHA] [--source-hash HASH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-hash") {
      source_hash = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const std::size_t threads = perfbench::workload_threads(options.workload);
  if (threads == 0) return usage("unknown workload");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.workdir.empty()) return usage("--workdir is required");
  std::filesystem::create_directories(options.workdir);

  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soteria_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  const auto& names = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& name : names) {
    if (result.find(name) == nullptr) result.fail("metric missing: " + name);
  }

  std::printf("%s %s seed=%llu seconds=%g threads=%zu\n",
              options.workload.c_str(),
              options.trace ? "traced (per-layer)" : "end-to-end",
              static_cast<unsigned long long>(options.seed), options.seconds,
              threads);
  std::printf("%-28s %14s %-6s %9s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const auto& metric : result.metrics()) {
    std::printf("%-28s %14.6g %-6s %9zu  %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples,
                metric.note.c_str());
  }
  for (const auto& error : result.errors()) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }

  std::printf(
      "provenance: {\"git_sha\": %s, \"source_hash\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"cxx_flags\": %s, \"hardware_threads\": %u, "
      "\"workload_threads\": %zu, \"train_threads\": %zu, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      json_string(git_sha).c_str(), json_string(source_hash).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(),
      std::thread::hardware_concurrency(), threads, perfbench::kTrainThreads,
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0);

  const bool correct = result.failed() == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted());
  line += ", \"failed\": " + std::to_string(result.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    const auto* metric = result.find(name);
    if (metric == nullptr) continue;
    line += first ? "" : ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + json_number(metric->value) +
            ", \"unit\": " + json_string(metric->unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
