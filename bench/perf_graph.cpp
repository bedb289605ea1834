// The centrality scaling sweep: exact centrality on firmware-shaped
// CFGs at n in {1000, 10000, 50000}, each x threads {1,2,4,8}.
// Firmware CFGs split into many small biconnected blocks, which the
// exact path composes block by block. Every cell re-checks the
// determinism contract before its timing is trusted: a parallel run
// must be bit-identical to t=1. Any violation makes the process exit
// non-zero. The table, headed by a provenance line (compiler, build
// kind, hardware threads), goes to stdout and
// bench_results/perf_centrality.txt; cell timings land in the
// repo-root BENCH_perf.json (section "perf_graph") under
// "exact.n<N>.t<T>.ms" keys, with "hardware_threads".
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "graph/centrality.h"
#include "graph/generators.h"
#include "runtime/thread_pool.h"

namespace {

using namespace soteria;

/// Firmware-shaped sweep graph (fixed seed: every cell and every run
/// times the identical graph).
graph::DiGraph make_firmware(std::size_t n) {
  math::Rng rng(90210);
  return graph::firmware_like_cfg(n, rng);
}

#ifdef NDEBUG
constexpr const char* kBuildKind = "optimized (NDEBUG)";
#else
constexpr const char* kBuildKind = "debug (assertions on)";
#endif

/// Exact centrality scaling sweep; see the file header for the cell
/// grid and the contract each cell re-checks. Returns false if any
/// parallel cell differs from t=1.
[[nodiscard]] bool run_centrality_sweep() {
  const std::vector<std::size_t> all_threads{1, 2, 4, 8};

  std::ostringstream table;
  char line[200];
  std::snprintf(line, sizeof(line),
                "provenance: g++ %s, %s build, %zu hardware threads\n",
                __VERSION__, kBuildKind, runtime::hardware_threads());
  table << line << "== exact centrality scaling (ms per full graph) ==\n"
        << "  graph       nodes      edges        t=1"
        << "        t=2        t=4        t=8\n";
  std::map<std::string, double> json_values;
  json_values["hardware_threads"] =
      static_cast<double>(runtime::hardware_threads());
  bool ok = true;

  for (const std::size_t n : {1000, 10000, 50000}) {
    const auto g = make_firmware(n);
    const std::string prefix = "exact.n" + std::to_string(n);
    // Fewer repetitions on the big graphs; the per-run time dwarfs
    // timer noise there.
    const int reps = n >= 10000 ? 1 : 3;

    graph::CentralityScores reference;
    std::string cells;
    for (const std::size_t t : all_threads) {
      graph::CentralityScores scores;
      double best_ms = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        scores = graph::centrality_scores(g, t);
        const double elapsed = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (rep == 0 || elapsed < best_ms) best_ms = elapsed;
      }
      if (t == all_threads.front()) {
        reference = scores;
      } else if (scores.betweenness != reference.betweenness ||
                 scores.closeness != reference.closeness) {
        ok = false;
        std::printf("DETERMINISM VIOLATION: firmware n=%zu threads=%zu\n",
                    n, t);
      }
      json_values[prefix + ".t" + std::to_string(t) + ".ms"] = best_ms;
      std::snprintf(line, sizeof(line), " %10.3f", best_ms);
      cells += line;
    }
    std::snprintf(line, sizeof(line), "  firmware %8zu %10zu%s\n", n,
                  g.edge_count(), cells.c_str());
    table << line;
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

int main() { return run_centrality_sweep() ? 0 : 1; }
