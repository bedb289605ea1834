// A CFG above 16,384 blocks — the old packed-key ceiling, since labels
// run to |V| - 1 — gets a verdict, and its features equal the wide-key
// oracle, which keys every window by its label tuple and so has no
// label limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "cfg/labeling_cache.h"
#include "dataset/generator.h"
#include "features/ngram.h"
#include "graph/generators.h"
#include "oracles/feature_reference.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::core {
namespace {

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(LargeCfg, FirmwareAboveGramLabelLimitGetsVerdict) {
  dataset::DatasetConfig data_config;
  data_config.scale = 0.008;
  math::Rng data_rng(41);
  const auto data = dataset::generate_dataset(data_config, data_rng);
  SoteriaConfig config = tiny_config();
  config.seed = 41;
  const auto system = SoteriaSystem::train(data.train, config);

  math::Rng graph_rng(20000);
  const cfg::Cfg large(graph::firmware_like_cfg(20000, graph_rng), 0);
  const auto& pipeline = system.pipeline();
  const auto labels =
      pipeline.labeling_cache()->labels(large, pipeline.config().labeling);
  ASSERT_GT(*std::max_element(labels.dbl.begin(), labels.dbl.end()),
            features::kMaxGramLabel);

  math::Rng analyze_rng(7);
  const Verdict verdict = system.analyze(large, analyze_rng);
  EXPECT_TRUE(std::isfinite(verdict.reconstruction_error));

  math::Rng fast_rng(8);
  math::Rng oracle_rng(8);
  const auto fast = pipeline.extract(large, fast_rng);
  const auto oracle =
      oracles::extract_reference_wide(pipeline, large, oracle_rng);
  ASSERT_EQ(fast.dbl.size(), oracle.dbl.size());
  for (std::size_t w = 0; w < fast.dbl.size(); ++w) {
    EXPECT_TRUE(same_bytes(fast.dbl[w], oracle.dbl[w])) << "dbl walk " << w;
    EXPECT_TRUE(same_bytes(fast.lbl[w], oracle.lbl[w])) << "lbl walk " << w;
  }
  EXPECT_TRUE(same_bytes(fast.pooled_dbl, oracle.pooled_dbl));
  EXPECT_TRUE(same_bytes(fast.pooled_lbl, oracle.pooled_lbl));
  EXPECT_EQ(fast_rng.engine()(), oracle_rng.engine()());
}

}  // namespace
}  // namespace soteria::core
