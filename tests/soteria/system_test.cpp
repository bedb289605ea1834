#include "soteria/system.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cfg/gea.h"
#include "dataset/adversarial.h"
#include "dataset/generator.h"
#include "expect_error.h"
#include "soteria/presets.h"

namespace soteria::core {
namespace {

// Shared tiny experiment: built once for the whole suite because
// end-to-end training dominates test time.
struct SystemFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(17);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));
    SoteriaConfig config = tiny_config();
    config.seed = 17;
    system = new SoteriaSystem(SoteriaSystem::train(data->train, config));
  }
  static void TearDownTestSuite() {
    delete system;
    delete data;
    system = nullptr;
    data = nullptr;
  }

  static dataset::Dataset* data;
  static SoteriaSystem* system;
};

dataset::Dataset* SystemFixture::data = nullptr;
SoteriaSystem* SystemFixture::system = nullptr;

TEST_F(SystemFixture, TrainsAllComponents) {
  EXPECT_GT(system->pipeline().combined_dimension(), 0U);
  EXPECT_GT(system->detector().threshold(), 0.0);
  EXPECT_GT(system->detector().train_report().epoch_losses.size(), 0U);
}

TEST_F(SystemFixture, AnalyzeProducesCompleteVerdict) {
  math::Rng rng(18);
  const auto verdict = system->analyze(data->test.front().cfg, rng);
  EXPECT_GT(verdict.reconstruction_error, 0.0);
  EXPECT_LT(dataset::family_index(verdict.predicted),
            dataset::kFamilyCount);
}

TEST_F(SystemFixture, VerdictConsistentWithThreshold) {
  math::Rng rng(19);
  for (std::size_t i = 0; i < std::min<std::size_t>(data->test.size(), 10);
       ++i) {
    const auto verdict = system->analyze(data->test[i].cfg, rng);
    EXPECT_EQ(verdict.adversarial,
              verdict.reconstruction_error >
                  system->detector().threshold());
  }
}

TEST_F(SystemFixture, ClassifierBeatsChanceOnCleanTest) {
  math::Rng rng(20);
  std::size_t correct = 0;
  const std::size_t n = std::min<std::size_t>(data->test.size(), 40);
  for (std::size_t i = 0; i < n; ++i) {
    const auto verdict = system->analyze(data->test[i].cfg, rng);
    correct += verdict.predicted == data->test[i].family;
  }
  // Chance is ~25% on 4 classes (majority class ~66%); even the tiny
  // preset should beat a coin flip comfortably.
  EXPECT_GT(correct * 2, n);
}

TEST_F(SystemFixture, GeaAttackScoresHigherThanOriginal) {
  math::Rng rng(21);
  // Average over several attacks: GEA should raise the detector score.
  double clean_sum = 0.0;
  double attacked_sum = 0.0;
  int count = 0;
  const auto targets = dataset::select_all_targets(data->train);
  for (std::size_t i = 0; i < std::min<std::size_t>(data->test.size(), 8);
       ++i) {
    const auto& sample = data->test[i];
    const auto& target = targets[sample.family == dataset::Family::kBenign
                                     ? 7   // Mirai medium
                                     : 1]  // Benign medium
    ;
    const auto attack = cfg::gea_combine(sample.cfg, target.cfg);
    clean_sum += system->analyze(sample.cfg, rng).reconstruction_error;
    attacked_sum +=
        system->analyze(attack.combined, rng).reconstruction_error;
    ++count;
  }
  EXPECT_GT(attacked_sum / count, clean_sum / count);
}

TEST_F(SystemFixture, ExtractMatchesPipelineShape) {
  math::Rng rng(22);
  const auto features = system->extract(data->test.front().cfg, rng);
  EXPECT_EQ(features.dbl.size(),
            system->config().pipeline.walk.walks_per_labeling);
  EXPECT_EQ(features.pooled_combined().size(),
            system->pipeline().combined_dimension());
}

TEST_F(SystemFixture, SaveLoadRoundTripsVerdicts) {
  std::stringstream stream;
  system->save(stream);
  auto loaded = SoteriaSystem::load(stream);
  EXPECT_DOUBLE_EQ(loaded.detector().threshold(),
                   system->detector().threshold());
  for (std::size_t i = 0; i < std::min<std::size_t>(data->test.size(), 5);
       ++i) {
    math::Rng a(100 + i);
    math::Rng b(100 + i);
    const auto va = system->analyze(data->test[i].cfg, a);
    const auto vb = loaded.analyze(data->test[i].cfg, b);
    EXPECT_EQ(va.adversarial, vb.adversarial);
    EXPECT_EQ(va.predicted, vb.predicted);
    EXPECT_DOUBLE_EQ(va.reconstruction_error, vb.reconstruction_error);
  }
}

// --- Corrupt-stream coverage ------------------------------------------
// Every loader must reject truncated streams and implausible length
// prefixes (io::kMaxContainerElements guard) instead of allocating or
// reading garbage.

std::string save_system(const SoteriaSystem& system) {
  std::stringstream stream;
  system.save(stream);
  return stream.str();
}

/// Overwrites `count` bytes at `offset` with 0xFF — turns a uint64
/// length prefix into 2^64 - 1, far beyond kMaxContainerElements.
std::string corrupt_bytes(std::string bytes, std::size_t offset,
                          std::size_t count = 8) {
  EXPECT_LE(offset + count, bytes.size());
  for (std::size_t i = 0; i < count; ++i) {
    bytes[offset + i] = static_cast<char>(0xFF);
  }
  return bytes;
}

TEST_F(SystemFixture, LoadRejectsBadMagic) {
  std::string bytes = save_system(*system);
  bytes[0] = static_cast<char>(~bytes[0]);
  std::istringstream in(bytes);
  EXPECT_ERROR((void)SoteriaSystem::load(in), core::ErrorCode::kCorruptModel);
}

TEST_F(SystemFixture, LoadRejectsTruncatedStreams) {
  const std::string bytes = save_system(*system);
  ASSERT_GT(bytes.size(), 44U);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 4, bytes.size() / 2,
        3 * bytes.size() / 4, bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_ERROR((void)SoteriaSystem::load(in), core::ErrorCode::kCorruptModel)
        << "truncated to " << cut << " of " << bytes.size() << " bytes";
  }
}

TEST_F(SystemFixture, LoadRejectsImplausibleContainerSize) {
  // System header: magic(4) + 3 doubles(24) + 2 uint64(16) = 44 bytes.
  // The pipeline section starts there; its gram_sizes length prefix
  // sits 24 bytes in (length_multiplier + walks + top_k).
  const std::string bytes = save_system(*system);
  std::istringstream in(corrupt_bytes(bytes, 44 + 24));
  EXPECT_ERROR((void)SoteriaSystem::load(in), core::ErrorCode::kCorruptModel);
}

TEST_F(SystemFixture, PipelineLoadRejectsCorruptStreams) {
  std::stringstream stream;
  system->pipeline().save(stream);
  const std::string bytes = stream.str();

  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_ERROR((void)features::FeaturePipeline::load(truncated),
               core::ErrorCode::kCorruptModel);

  // gram_sizes length prefix at offset 24 (after length_multiplier,
  // walks_per_labeling, top_k).
  std::istringstream corrupted(corrupt_bytes(bytes, 24));
  EXPECT_ERROR((void)features::FeaturePipeline::load(corrupted),
               core::ErrorCode::kCorruptModel);
}

TEST_F(SystemFixture, DetectorLoadRejectsCorruptStreams) {
  std::stringstream stream;
  system->detector().save(stream);
  const std::string bytes = stream.str();

  const std::size_t width = system->pipeline().combined_dimension();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_ERROR((void)AeDetector::load(truncated, width),
               core::ErrorCode::kCorruptModel);

  // hidden_dims length prefix at offset 8 (after input_dim).
  std::istringstream corrupted(corrupt_bytes(bytes, 8));
  EXPECT_ERROR((void)AeDetector::load(corrupted, width),
               core::ErrorCode::kCorruptModel);
}

TEST_F(SystemFixture, ClassifierLoadRejectsCorruptStreams) {
  std::stringstream stream;
  system->classifier().save(stream);
  const std::string bytes = stream.str();

  const std::size_t dbl = system->pipeline().dbl_vocabulary().size();
  const std::size_t lbl = system->pipeline().lbl_vocabulary().size();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_ERROR((void)FamilyClassifier::load(truncated, dbl, lbl),
               core::ErrorCode::kCorruptModel);

  // The DBL model's parameter stream starts after the two 56-byte
  // architecture blocks; clobbering its magic must be rejected.
  std::istringstream corrupted(corrupt_bytes(bytes, 112, 4));
  EXPECT_ERROR((void)FamilyClassifier::load(corrupted, dbl, lbl),
               core::ErrorCode::kCorruptModel);
}

// A stream whose nets do not take the widths its own pipeline produces
// could never score a sample. Splicing one system's pipeline block in
// front of another's nets (smaller vocabularies) must fail the load
// with a typed kCorruptModel, not load and then throw on every analyze.
TEST_F(SystemFixture, LoadRejectsNetsOfAnotherPipeline) {
  SoteriaConfig config = tiny_config();
  config.seed = 17;
  config.pipeline.top_k = 20;
  const SoteriaSystem other = SoteriaSystem::train(data->train, config);
  ASSERT_NE(other.pipeline().combined_dimension(),
            system->pipeline().combined_dimension());

  const auto pipeline_bytes = [](const SoteriaSystem& s) {
    std::stringstream stream;
    s.pipeline().save(stream);
    return stream.str().size();
  };
  // System header: magic(4) + 3 doubles(24) + 2 uint64(16) = 44 bytes,
  // then the pipeline block, then the detector and classifier blocks.
  constexpr std::size_t kHeader = 44;
  const std::string ours = save_system(*system);
  const std::string theirs = save_system(other);
  const std::string spliced =
      ours.substr(0, kHeader + pipeline_bytes(*system)) +
      theirs.substr(kHeader + pipeline_bytes(other));
  std::istringstream in(spliced);
  try {
    (void)SoteriaSystem::load(in);
    FAIL() << "loaded nets that cannot score this pipeline's features";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptModel) << e.what();
  }
}

// Hostile model bytes. Each stream a one-byte flip or a truncation
// makes of a saved model either loads or fails with exactly
// Error{kCorruptModel}: no other exception type escapes, and a flipped
// length or width never makes the loader allocate more than the stream
// holds. Every truncation must fail, since the stream ends with weights.
// Every third byte: 3 is coprime with the 4- and 8-byte fields, so each
// of them, at any offset, takes at least one flip and one cut.
TEST_F(SystemFixture, LoadSurvivesByteFlipsAndTruncation) {
  const std::string bytes = save_system(*system);
  const auto load_outcome = [](const std::string& stream_bytes) {
    std::istringstream in(stream_bytes);
    try {
      (void)SoteriaSystem::load(in);
      return std::string("loaded");
    } catch (const Error& e) {
      return std::string(error_code_name(e.code()));
    } catch (const std::exception& e) {
      return std::string("untyped: ") + e.what();
    }
  };
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(~flipped[i]);
    const std::string outcome = load_outcome(flipped);
    if (outcome == "loaded") {
      ++loaded;
    } else {
      EXPECT_EQ(outcome, "CorruptModel") << "byte " << i << " flipped";
    }
    EXPECT_EQ(load_outcome(bytes.substr(0, i)), "CorruptModel")
        << "truncated to " << i << " bytes";
  }
  // Most flips land in weights and load as another model.
  EXPECT_GT(loaded, 0U);
}

TEST(SoteriaConfigValidation, CatchesBadKnobs) {
  SoteriaConfig config = tiny_config();
  EXPECT_NO_THROW(validate(config));
  config.detector_alpha = -1.0;
  EXPECT_ERROR(validate(config), core::ErrorCode::kInvalidArgument);

  config = tiny_config();
  config.classifier_learning_rate = 0.0;
  EXPECT_ERROR(validate(config), core::ErrorCode::kInvalidArgument);

  config = tiny_config();
  config.training_vectors_per_sample =
      config.pipeline.walk.walks_per_labeling + 1;
  EXPECT_ERROR(validate(config), core::ErrorCode::kInvalidArgument);

  config = tiny_config();
  config.calibration_fraction = 0.0;
  EXPECT_ERROR(validate(config), core::ErrorCode::kInvalidArgument);

  config = tiny_config();
  config.num_threads = runtime::kMaxThreads + 1;
  EXPECT_ERROR(validate(config), core::ErrorCode::kInvalidArgument);
}

TEST(SoteriaSystemTrain, RejectsEmptyTrainingSet) {
  EXPECT_ERROR((void)SoteriaSystem::train({}, tiny_config()),
               core::ErrorCode::kInvalidArgument);
}

TEST(Presets, AllValidate) {
  EXPECT_NO_THROW(validate(paper_config()));
  EXPECT_NO_THROW(validate(cpu_scaled_config()));
  EXPECT_NO_THROW(validate(tiny_config()));
}

TEST(Presets, PaperConfigMatchesPublication) {
  const auto config = paper_config();
  EXPECT_EQ(config.pipeline.top_k, 500U);
  EXPECT_EQ(config.pipeline.walk.walks_per_labeling, 10U);
  EXPECT_DOUBLE_EQ(config.pipeline.walk.length_multiplier, 5.0);
  EXPECT_EQ(config.pipeline.gram_sizes,
            (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(config.autoencoder.hidden_dims,
            (std::vector<std::size_t>{2000, 3000, 2000}));
  EXPECT_EQ(config.cnn.filters, 46U);
  EXPECT_EQ(config.cnn.dense_units, 512U);
  EXPECT_EQ(config.detector_training.epochs, 100U);
  EXPECT_EQ(config.detector_training.batch_size, 128U);
  EXPECT_DOUBLE_EQ(config.detector_alpha, 1.0);
}

TEST(PooledMatrix, ValidatesBundle) {
  features::SampleFeatures empty;
  EXPECT_ERROR((void)pooled_matrix(empty), core::ErrorCode::kInvalidArgument);
  features::SampleFeatures ok;
  ok.pooled_dbl = {1.0F, 2.0F};
  ok.pooled_lbl = {3.0F};
  const auto m = pooled_matrix(ok);
  EXPECT_EQ(m.rows(), 1U);
  EXPECT_EQ(m.cols(), 3U);
}

}  // namespace
}  // namespace soteria::core
