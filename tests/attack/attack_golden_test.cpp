// Golden adversarial examples (`attack` and `golden` ctest labels).
//
// Every attack of `soteria_cli eval-matrix`'s default grid, plus `gea`
// with a mid-block insertion, runs over six malware victims of the
// attack fixture; the last two are CFG-only copies (binary cleared), so
// the graph-level realizations run too. Each AE is pinned by one
// FNV-1a-64 over its binary bytes, its entry, node count and sorted
// edge list, its query count and target family, and the bits of the
// reconstruction error analyze() gives it. The matrix JSON of the
// default grid is pinned at 1 and 4 threads. The values were computed
// before the GEA constructions were folded into one entry chain and one
// interior placement per level, so they pin that refactor to the bytes
// it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attack/attack_fixture.h"
#include "attack/registry.h"
#include "eval/matrix.h"

namespace soteria::attack {
namespace {

constexpr std::size_t kVictims = 6;
constexpr std::size_t kCfgOnlyVictims = 2;

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llxULL",
                static_cast<unsigned long long>(value));
  return buffer;
}

struct AttackGolden : public AttackFixture {
  /// The first kVictims malware test samples; the last kCfgOnlyVictims
  /// lose their binary.
  static std::vector<dataset::Sample> victims() {
    std::vector<dataset::Sample> out;
    for (const auto& s : data->test) {
      if (s.family == dataset::Family::kBenign || s.binary.empty()) {
        continue;
      }
      out.push_back(s);
      if (out.size() == kVictims) break;
    }
    EXPECT_EQ(out.size(), kVictims);
    for (std::size_t i = kVictims - kCfgOnlyVictims; i < out.size(); ++i) {
      out[i].binary.clear();
    }
    return out;
  }

  static std::uint64_t ae_hash(const AttackResult& ae, math::Rng& rng) {
    Fnv h;
    h.u64(ae.binary.size());
    h.bytes(ae.binary.data(), ae.binary.size());
    h.u64(ae.cfg.entry());
    h.u64(ae.cfg.node_count());
    auto edges = ae.cfg.graph().edges();
    std::sort(edges.begin(), edges.end());
    for (const auto& [u, v] : edges) {
      h.u64(u);
      h.u64(v);
    }
    h.u64(ae.queries);
    h.u64(static_cast<std::uint64_t>(ae.target_family));
    const double error = system->analyze(ae.cfg, rng).reconstruction_error;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &error, sizeof(bits));
    h.u64(bits);
    return h.value();
  }

  static void expect_golden(std::string_view name, std::string_view params,
                            const std::array<std::uint64_t, kVictims>& want) {
    const auto attacker = make_attacker(name, params, system);
    const auto targets = victims();
    const math::Rng root(101);
    for (std::size_t v = 0; v < targets.size(); ++v) {
      math::Rng generate_rng = root.child(2 * v);
      math::Rng analyze_rng = root.child(2 * v + 1);
      const AttackResult ae =
          attacker->generate(targets[v], data->train, generate_rng);
      EXPECT_EQ(hex(ae_hash(ae, analyze_rng)), hex(want[v]))
          << name << " " << params << ", victim " << v
          << (targets[v].binary.empty() ? " (CFG only)" : "");
    }
  }
};

TEST_F(AttackGolden, GeaSmall) {
  expect_golden("gea", "target=benign,size=small",
                {0xa21a320fb6f5b257ULL, 0x8bf7f05c32945f55ULL,
                 0xb832ff24cc96365fULL, 0x0abbf6e6e138ef81ULL,
                 0x3ab4b1b297bdb38eULL, 0xa9b28dfdf11d7addULL});
}

TEST_F(AttackGolden, GeaLarge) {
  expect_golden("gea", "target=benign,size=large",
                {0x6e07207c02f5220cULL, 0xee7032d394d75a07ULL,
                 0xd7e9ea11a54ea77dULL, 0x103af057ce110c26ULL,
                 0xabc639d142accdbaULL, 0x4c56d947ac68684bULL});
}

TEST_F(AttackGolden, GeaMulti) {
  expect_golden("gea", "target=benign,injections=2",
                {0x51bef235dd8d3fe4ULL, 0x5d4d90bc6098a993ULL,
                 0x670d72207d5357d9ULL, 0x6154cd76579ba42aULL,
                 0xe6c13c645180b358ULL, 0x34f2d2380b92d33bULL});
}

TEST_F(AttackGolden, GeaMid) {
  expect_golden("gea", "target=benign,insert=mid",
                {0xd0be311a0e483223ULL, 0x790f6ac294d8c8b5ULL,
                 0x6fe4e960c5c39b74ULL, 0xfafbca851ea9c3ebULL,
                 0x933724f950705a16ULL, 0x6c1d7fe9dffdceb2ULL});
}

TEST_F(AttackGolden, Score) {
  expect_golden("score", "target=benign,candidates=4",
                {0x4a2bd8ec56dcf719ULL, 0x6c3906ce15622289ULL,
                 0xfecae120f79ba851ULL, 0x32035f51fe4eaa87ULL,
                 0x4df9c955cebcda12ULL, 0x4621aaaba13b3619ULL});
}

TEST_F(AttackGolden, Adaptive) {
  expect_golden("adaptive", "target=benign,candidates=4",
                {0x1a113932df268450ULL, 0x5019ba2ba6b9872cULL,
                 0x21ec605f2bf32f28ULL, 0x5b650e8ae07ce696ULL,
                 0x3fff4bc4f3fcc1d6ULL, 0xd0744e2eb8a72735ULL});
}

// The eval-matrix default grid (soteria_cli eval-matrix) at the fitted
// operating point and a looser one, six victims per cell.
TEST_F(AttackGolden, MatrixJsonAtOneAndFourThreads) {
  const std::vector<eval::AttackSpec> attacks = {
      {"gea-small", "gea", "target=benign,size=small"},
      {"gea-large", "gea", "target=benign,size=large"},
      {"gea-multi", "gea", "target=benign,injections=2"},
      {"score", "score", "target=benign,candidates=4"},
      {"adaptive", "adaptive", "target=benign,candidates=4"},
  };
  const double alpha = system->detector().alpha();
  const std::vector<eval::DefenseSpec> defenses = {
      {"alpha", alpha}, {"alpha*2", alpha * 2.0}};
  for (const std::size_t threads : {1U, 4U}) {
    eval::MatrixOptions options;
    options.seed = 9;
    options.num_threads = threads;
    options.victims_per_cell = 6;
    const auto report = eval::run_matrix(*system, data->test, data->train,
                                         attacks, defenses, options);
    const std::string json = report.to_json();
    Fnv h;
    h.bytes(json.data(), json.size());
    EXPECT_EQ(hex(h.value()), hex(0x170bfe186942c6edULL))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace soteria::attack
