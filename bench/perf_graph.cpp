// Micro-benchmarks for the graph substrate: BFS, centrality, labeling,
// whole-graph properties, and CFG extraction across graph sizes.
//
// After the google-benchmark suites, main() runs the centrality
// scaling sweep. Firmware-shaped CFGs split into many small biconnected
// blocks, which the exact path decomposes: exact at n in {1000, 10000,
// 50000} and the sampled-pivot approximate path at n in {10000, 50000},
// each x threads {1,2,4,8}, are recorded timings with an ungated
// approx-over-exact ratio. The approximation's >=5x speedup floor over
// exact is gated on scale_free_digraph(10000, 2), one giant block, where
// exact still costs a sweep per node over the whole graph. Every cell
// re-checks the determinism contracts before its timing is trusted —
// parallel runs bit-identical to t=1, and the approximate path
// bit-stable under a repeated same-seed run. Any violation, or a
// speedup below the floor, makes the process exit non-zero. The table
// goes to stdout and bench_results/perf_centrality.txt; cell timings
// land in the repo-root BENCH_perf.json (section "perf_graph") under
// distinct "exact.*" and "approx.*" keys (prefixed "scale_free." for the
// gate's graph) so the two paths never alias.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/extractor.h"
#include "cfg/gea.h"
#include "cfg/labeling.h"
#include "common/perf_json.h"
#include "dataset/family_profiles.h"
#include "graph/centrality.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/traversal.h"
#include "isa/codegen.h"

namespace {

using namespace soteria;

graph::DiGraph make_graph(std::size_t n) {
  math::Rng rng(42);
  return graph::random_connected_dag_plus(n, 4.0 / static_cast<double>(n),
                                          rng);
}

void BM_BfsDistances(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_distances(g, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BfsDistances)->Arg(32)->Arg(128)->Arg(512)->Complexity();

void BM_BetweennessCentrality(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::betweenness_centrality(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BetweennessCentrality)->Arg(32)->Arg(128)->Arg(512)
    ->Complexity();

void BM_ClosenessCentrality(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::closeness_centrality(g));
  }
}
BENCHMARK(BM_ClosenessCentrality)->Arg(32)->Arg(128)->Arg(512);

void BM_GraphProperties(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::graph_properties(g));
  }
}
BENCHMARK(BM_GraphProperties)->Arg(32)->Arg(128);

void BM_LabelNodes(benchmark::State& state) {
  const cfg::Cfg cfg(make_graph(static_cast<std::size_t>(state.range(0))),
                     0);
  const auto method = state.range(1) == 0 ? cfg::LabelingMethod::kDensity
                                          : cfg::LabelingMethod::kLevel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfg::label_nodes(cfg, method));
  }
}
BENCHMARK(BM_LabelNodes)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_CfgExtraction(benchmark::State& state) {
  math::Rng rng(7);
  const auto binary =
      isa::generate_binary(dataset::profile_for(dataset::Family::kMirai),
                           rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfg::extract(binary));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * binary.size()));
}
BENCHMARK(BM_CfgExtraction);

void BM_GeaCombine(benchmark::State& state) {
  math::Rng rng(8);
  const cfg::Cfg a(make_graph(128), 0);
  const cfg::Cfg b(make_graph(64), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfg::gea_combine(a, b));
  }
}
BENCHMARK(BM_GeaCombine);

/// Firmware-shaped sweep graph (fixed seed: every cell and every run
/// times the identical graph).
graph::DiGraph make_firmware(std::size_t n) {
  math::Rng rng(90210);
  return graph::firmware_like_cfg(n, rng);
}

/// Single-giant-block graph for the speedup gate (fixed seed).
graph::DiGraph make_scale_free(std::size_t n) {
  math::Rng rng(42);
  return graph::scale_free_digraph(n, 2, rng);
}

/// Exact-vs-approximate centrality scaling sweep; see the file header
/// for the cell grid and the contracts each cell re-checks. Returns
/// false if any determinism contract or the speedup floor is violated.
[[nodiscard]] bool run_centrality_sweep() {
  const std::vector<std::size_t> all_threads{1, 2, 4, 8};
  constexpr double kMinSpeedup = 5.0;

  std::ostringstream table;
  table << "== centrality scaling (ms per full graph) ==\n"
        << "  graph       mode     nodes      edges  pivots        t=1"
        << "        t=2        t=4        t=8\n";
  std::map<std::string, double> json_values;
  bool ok = true;

  const auto time_once = [](const graph::DiGraph& g,
                            const graph::CentralityOptions& options,
                            graph::CentralityScores& scores) {
    const auto start = std::chrono::steady_clock::now();
    scores = graph::centrality_scores(g, options);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  // Runs one (graph, mode, n) row over `threads`, re-checking the
  // thread bit-identity contract on every cell and (in approximate
  // mode) the same-seed bit-stability contract once per row. `key` is
  // the JSON key prefix of the graph family ("" or "scale_free.").
  // Returns the t=1 cell time.
  const auto sweep_row = [&](const std::string& name, const std::string& key,
                             const graph::DiGraph& g, bool approximate) {
    const std::size_t n = g.node_count();
    const std::string mode = approximate ? "approx" : "exact";
    const std::string prefix = key + mode + ".n" + std::to_string(n);
    // Fewer repetitions on the big graphs; the per-run time dwarfs
    // timer noise there.
    const int reps = n >= 10000 ? 1 : (n >= 1000 ? 3 : 20);

    graph::CentralityScores reference;
    std::vector<double> cell_ms;
    for (const std::size_t t : all_threads) {
      graph::CentralityOptions options;
      options.num_threads = t;
      options.approximate = approximate;
      graph::CentralityScores scores;
      double best_ms = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const double elapsed = time_once(g, options, scores);
        if (rep == 0 || elapsed < best_ms) best_ms = elapsed;
      }
      if (t == all_threads.front()) {
        reference = scores;
      } else if (scores.betweenness != reference.betweenness ||
                 scores.closeness != reference.closeness) {
        ok = false;
        std::printf("DETERMINISM VIOLATION: %s %s n=%zu threads=%zu\n",
                    name.c_str(), mode.c_str(), n, t);
      }
      cell_ms.push_back(best_ms);
      json_values[prefix + ".t" + std::to_string(t) + ".ms"] = best_ms;
    }
    if (approximate) {
      // Same seed, fresh run: the sampled path must reproduce itself
      // bit-for-bit (fixed pivot draw, fixed reduction order).
      graph::CentralityOptions options;
      options.num_threads = all_threads.front();
      options.approximate = true;
      graph::CentralityScores again;
      (void)time_once(g, options, again);
      if (again.betweenness != reference.betweenness ||
          again.closeness != reference.closeness) {
        ok = false;
        std::printf("SEED STABILITY VIOLATION: %s approx n=%zu\n",
                    name.c_str(), n);
      }
    }

    const std::size_t pivots =
        approximate
            ? graph::resolved_pivot_count(n, graph::ApproxCentralityOptions{})
            : 0;
    if (approximate) {
      json_values[prefix + ".pivots"] = static_cast<double>(pivots);
    }
    char row[200];
    std::string cells;
    for (const double ms : cell_ms) {
      std::snprintf(row, sizeof(row), " %10.3f", ms);
      cells += row;
    }
    std::snprintf(row, sizeof(row), "  %-10s  %-6s %7zu %10zu %7zu%s\n",
                  name.c_str(), mode.c_str(), n, g.edge_count(), pivots,
                  cells.c_str());
    table << row;
    return cell_ms.front();
  };

  // Records approx-over-exact at t=1 for one graph; returns it.
  const auto record_speedup = [&](const std::string& key, std::size_t n,
                                  double exact_ms, double approx_ms) {
    const double speedup = approx_ms > 0.0 ? exact_ms / approx_ms : 0.0;
    json_values[key + "approx.n" + std::to_string(n) +
                ".speedup_over_exact_t1"] = speedup;
    return speedup;
  };

  (void)sweep_row("firmware", "", make_firmware(1000), false);
  std::string ratios;
  for (const std::size_t n : {10000, 50000}) {
    const auto g = make_firmware(n);
    const double exact_ms = sweep_row("firmware", "", g, false);
    const double approx_ms = sweep_row("firmware", "", g, true);
    char line[120];
    std::snprintf(line, sizeof(line),
                  "  firmware approx speedup over exact at n=%zu (t=1):"
                  " %.2fx (recorded, not gated)\n",
                  n, record_speedup("", n, exact_ms, approx_ms));
    ratios += line;
  }
  double speedup = 0.0;
  {
    const auto g = make_scale_free(10000);
    const double exact_ms = sweep_row("scale_free", "scale_free.", g, false);
    const double approx_ms = sweep_row("scale_free", "scale_free.", g, true);
    speedup = record_speedup("scale_free.", 10000, exact_ms, approx_ms);
  }
  char line[120];
  std::snprintf(line, sizeof(line),
                "  scale_free approx speedup over exact at n=10000 (t=1):"
                " %.2fx (floor %.1fx)\n",
                speedup, kMinSpeedup);
  table << ratios << line;
  if (speedup < kMinSpeedup) {
    ok = false;
    std::printf("SPEEDUP FLOOR VIOLATION: %.2fx < %.1fx on scale_free"
                " n=10000\n",
                speedup, kMinSpeedup);
  }
  table << (ok ? "  all determinism contracts held\n"
               : "  CONTRACT VIOLATIONS DETECTED (see stdout)\n");

  const std::string report = table.str();
  std::printf("\n%s", report.c_str());

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream out("bench_results/perf_centrality.txt");
  if (out) {
    out << report;
    std::printf(
        "centrality sweep written to bench_results/perf_centrality.txt\n");
  } else {
    std::printf("bench_results/ not writable; sweep not persisted\n");
  }
  if (bench::update_perf_json("BENCH_perf.json", "perf_graph",
                              json_values)) {
    std::printf("centrality sweep recorded in BENCH_perf.json\n");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_centrality_sweep() ? 0 : 1;
}
