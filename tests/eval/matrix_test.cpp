// Robustness-matrix tests (`attack` ctest label): grid shape, seed and
// thread-count bit-identity of the versioned JSON, degenerate-input
// contracts, and failure accounting.
#include "eval/matrix.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataset/generator.h"
#include "expect_error.h"
#include "obs/metrics.h"
#include "soteria/error.h"
#include "soteria/presets.h"

namespace soteria::eval {
namespace {

struct MatrixFixture : public ::testing::Test {
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

  static std::vector<AttackSpec> small_grid_attacks() {
    return {
        {"gea-small", "gea", "target=benign,size=small"},
        {"adaptive", "adaptive", "target=benign,candidates=2"},
    };
  }
  static std::vector<DefenseSpec> small_grid_defenses() {
    return {{"alpha=2", 2.0}, {"alpha=4", 4.0}};
  }

  static dataset::Dataset* data;
  static core::SoteriaSystem* system;
};

dataset::Dataset* MatrixFixture::data = nullptr;
core::SoteriaSystem* MatrixFixture::system = nullptr;

TEST(MatrixReport, JsonEscapesControlCharactersInLabels) {
  MatrixReport report;
  report.attacks = {"line\nbreak"};
  report.defenses = {"ctrl\x01"};
  MatrixCell cell;
  cell.attack = report.attacks[0];
  cell.defense = report.defenses[0];
  report.cells = {cell};
  const std::string json = report.to_json();
  EXPECT_NE(json.find(R"("line\nbreak")"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("ctrl\u0001")"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
}

TEST_F(MatrixFixture, GridShapeAndAccounting) {
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  options.seed = 7;
  options.victims_per_cell = 4;
  const auto report = run_matrix(*system, data->test, data->train,
                                 attacks, defenses, options);
  ASSERT_EQ(report.cells.size(), attacks.size() * defenses.size());
  EXPECT_EQ(report.attacks.size(), attacks.size());
  EXPECT_EQ(report.defenses.size(), defenses.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const MatrixCell& cell = report.cells[i];
    EXPECT_EQ(cell.attack, attacks[i / defenses.size()].label);
    EXPECT_EQ(cell.defense, defenses[i % defenses.size()].label);
    EXPECT_EQ(cell.victims + cell.skipped + cell.failures, 4U);
    EXPECT_EQ(cell.detected + cell.evaded, cell.victims);
    EXPECT_LE(cell.target_hits, cell.evaded);
  }
  // The guided column spends queries; the oblivious one does not.
  EXPECT_EQ(report.cells.front().queries, 0U);
  EXPECT_GT(report.cells.back().queries, 0U);
}

TEST_F(MatrixFixture, JsonIsBitIdenticalAcrossRunsAndThreadCounts) {
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  options.seed = 7;
  options.victims_per_cell = 3;

  options.num_threads = 1;
  const std::string once =
      run_matrix(*system, data->test, data->train, attacks, defenses,
                 options)
          .to_json();
  const std::string again =
      run_matrix(*system, data->test, data->train, attacks, defenses,
                 options)
          .to_json();
  EXPECT_EQ(once, again);

  for (const std::size_t threads : {2ULL, 4ULL}) {
    options.num_threads = threads;
    const std::string parallel =
        run_matrix(*system, data->test, data->train, attacks, defenses,
                   options)
            .to_json();
    EXPECT_EQ(once, parallel) << "at " << threads << " threads";
  }
  EXPECT_NE(once.find("\"version\":1"), std::string::npos);
  EXPECT_NE(once.find("\"seed\":7"), std::string::npos);
}

TEST_F(MatrixFixture, SeedSelectsDifferentVictimsDeterministically) {
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  options.victims_per_cell = 3;
  options.seed = 7;
  const auto a = run_matrix(*system, data->test, data->train, attacks,
                            defenses, options);
  options.seed = 8;
  const auto b = run_matrix(*system, data->test, data->train, attacks,
                            defenses, options);
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST_F(MatrixFixture, EmptySpecsAreTypedErrors) {
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  const std::vector<AttackSpec> no_attacks;
  const std::vector<DefenseSpec> no_defenses;
  const std::vector<dataset::Sample> no_victims;
  try {
    (void)run_matrix(*system, data->test, data->train, no_attacks,
                     defenses, options);
    FAIL() << "empty attacks must throw";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }
  EXPECT_ERROR((void)run_matrix(*system, data->test, data->train, attacks,
                                no_defenses, options),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)run_matrix(*system, no_victims, data->train, attacks,
                                defenses, options),
               core::ErrorCode::kInvalidArgument);
}

TEST_F(MatrixFixture, MissingTargetFamilyCountsAsFailuresNotAbort) {
  // A corpus without the requested family makes every generation fail
  // with a typed error; the grid keeps going and accounts for them.
  std::vector<dataset::Sample> no_benign;
  for (const auto& s : data->train) {
    if (s.family != dataset::Family::kBenign) no_benign.push_back(s);
  }
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  options.victims_per_cell = 3;
  const auto report = run_matrix(*system, data->test, no_benign, attacks,
                                 defenses, options);
  for (const MatrixCell& cell : report.cells) {
    EXPECT_EQ(cell.failures, 3U);
    EXPECT_EQ(cell.victims, 0U);
    EXPECT_EQ(cell.detection_rate(), 0.0);
  }
}

TEST_F(MatrixFixture, SingleFamilyVictimsAreSkippedNotScored) {
  // Benign victims attacked toward benign are vacuous: skipped, never
  // counted into the rates.
  std::vector<dataset::Sample> benign_only;
  for (const auto& s : data->test) {
    if (s.family == dataset::Family::kBenign) benign_only.push_back(s);
  }
  ASSERT_FALSE(benign_only.empty());
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  options.victims_per_cell = 2;
  const auto report = run_matrix(*system, benign_only, data->train,
                                 attacks, defenses, options);
  for (const MatrixCell& cell : report.cells) {
    EXPECT_EQ(cell.victims, 0U);
    EXPECT_EQ(cell.skipped + cell.failures, 2U);
  }
}

TEST_F(MatrixFixture, CellCounterTicksWhenEnabled) {
  obs::registry().reset();
  obs::set_enabled(true);
  const auto attacks = small_grid_attacks();
  const auto defenses = small_grid_defenses();
  MatrixOptions options;
  options.victims_per_cell = 2;
  const auto report = run_matrix(*system, data->test, data->train,
                                 attacks, defenses, options);
  const auto snap = obs::registry().snapshot();
  obs::set_enabled(false);
  obs::registry().reset();
  EXPECT_EQ(snap.counters.at("eval.matrix.cells"), report.cells.size());
  EXPECT_EQ(snap.histograms.at("t/eval.cell").count, report.cells.size());
}

}  // namespace
}  // namespace soteria::eval
