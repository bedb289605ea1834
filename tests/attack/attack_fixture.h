// Shared tiny experiment of the `attack` test binary: a 0.008-scale
// corpus and a tiny_config() system fitted on its training split.
// Training dominates suite time, so each suite builds it once.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>

#include "dataset/generator.h"
#include "soteria/error.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::attack {

struct AttackFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(17);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));
    core::SoteriaConfig config = core::tiny_config();
    config.seed = 17;
    system = new core::SoteriaSystem(
        core::SoteriaSystem::train(data->train, config));
  }
  static void TearDownTestSuite() {
    delete system;
    delete data;
    system = nullptr;
    data = nullptr;
  }

  static const dataset::Sample& malware_victim() {
    for (const auto& s : data->test) {
      if (s.family != dataset::Family::kBenign && !s.binary.empty()) {
        return s;
      }
    }
    throw std::logic_error("fixture has no malware test sample");
  }

  static inline dataset::Dataset* data = nullptr;
  static inline core::SoteriaSystem* system = nullptr;
};

}  // namespace soteria::attack
