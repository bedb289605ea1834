// End-to-end frontend integration: bytes decoded through
// loader::load_image and a resolved front end must give bit-identical
// verdicts to the CFG-taking path for toy binaries — raw or
// ELF-wrapped — and decoder identity must separate
// the pipeline fingerprint, and with it every feature-store key, so
// models and stores built under one front end can never serve
// another's.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/extractor.h"
#include "dataset/generator.h"
#include "expect_error.h"
#include "features/pipeline.h"
#include "frontend/frontend.h"
#include "isa/assembler.h"
#include "loader/elf.h"
#include "loader/elf_writer.h"
#include "soteria/presets.h"
#include "soteria/system.h"
#include "store/fingerprint.h"

namespace soteria::core {
namespace {

// Shared tiny experiment, trained once for the suite (training
// dominates test time; see tests/soteria/system_test.cpp).
struct FrontendE2E : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(29);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));
    SoteriaConfig config = tiny_config();
    config.seed = 29;
    system = new SoteriaSystem(SoteriaSystem::train(data->train, config));
  }
  static void TearDownTestSuite() {
    delete system;
    delete data;
    system = nullptr;
    data = nullptr;
  }

  static const dataset::Sample& binary_sample() {
    for (const auto& sample : data->test) {
      if (!sample.binary.empty()) return sample;
    }
    throw std::logic_error("no test sample with a binary image");
  }

  static dataset::Dataset* data;
  static SoteriaSystem* system;
};

dataset::Dataset* FrontendE2E::data = nullptr;
SoteriaSystem* FrontendE2E::system = nullptr;

// Bytes to verdict as the CLI and perfbench decode them: load_image
// tells raw from ELF, `frontend` names a decoder (empty or "auto"
// detects one), and the CFG it extracts is analyzed.
Verdict analyze_bytes(const SoteriaSystem& system,
                      std::span<const std::uint8_t> bytes, std::uint64_t seed,
                      const std::string& frontend = "") {
  const loader::Image image = loader::load_image(bytes);
  const cfg::Cfg cfg =
      frontend::resolve_frontend(frontend::FrontendRegistry::builtin(), image,
                                 frontend)
          .extract(image);
  return system.analyze(cfg, math::Rng(seed), AnalyzeOptions{});
}

void expect_same_verdict(const Verdict& a, const Verdict& b) {
  EXPECT_EQ(a.adversarial, b.adversarial);
  EXPECT_EQ(a.reconstruction_error, b.reconstruction_error);
  EXPECT_EQ(a.predicted, b.predicted);
}

TEST_F(FrontendE2E, AnalyzeImageMatchesCfgAnalysis) {
  const auto& sample = binary_sample();
  const Verdict via_cfg =
      system->analyze(sample.cfg, math::Rng(123), AnalyzeOptions{});
  const Verdict via_image = analyze_bytes(*system, sample.binary, 123);
  expect_same_verdict(via_cfg, via_image);
}

TEST_F(FrontendE2E, ElfWrappedBinaryMatchesRaw) {
  const auto& sample = binary_sample();
  const Verdict raw = analyze_bytes(*system, sample.binary, 321);
  for (const loader::ElfClass elf_class :
       {loader::ElfClass::kElf32, loader::ElfClass::kElf64}) {
    loader::ElfWriteOptions options;
    options.elf_class = elf_class;
    const auto elf_bytes = loader::write_elf(sample.binary, options);
    const Verdict wrapped = analyze_bytes(*system, elf_bytes, 321);
    expect_same_verdict(raw, wrapped);
  }
}

TEST_F(FrontendE2E, ExplicitFrontendSelection) {
  const auto& sample = binary_sample();
  const Verdict named = analyze_bytes(*system, sample.binary, 55, "toy");
  const Verdict detected = analyze_bytes(*system, sample.binary, 55, "auto");
  expect_same_verdict(named, detected);

  // Forcing a decoder that rejects the image is a typed error.
  EXPECT_ERROR((void)analyze_bytes(*system, sample.binary, 55, "x86_64"),
               core::ErrorCode::kInvalidArgument);
}

TEST_F(FrontendE2E, MalformedImagesAreTypedErrors) {
  const auto& sample = binary_sample();
  const auto elf_bytes = loader::write_elf(sample.binary);
  const std::vector<std::uint8_t> truncated(elf_bytes.begin(),
                                            elf_bytes.begin() + 30);
  EXPECT_ERROR((void)analyze_bytes(*system, truncated, 1),
               core::ErrorCode::kCorruptModel);
  EXPECT_ERROR(
      (void)analyze_bytes(*system, std::vector<std::uint8_t>{}, 1),
      core::ErrorCode::kInvalidArgument);
}

TEST_F(FrontendE2E, TrainedSystemRecordsFrontend) {
  EXPECT_EQ(system->config().pipeline.frontend, "toy");
  std::stringstream stream;
  system->save(stream);
  const auto loaded = SoteriaSystem::load(stream);
  EXPECT_EQ(loaded.config().pipeline.frontend, "toy");
  EXPECT_EQ(loaded.pipeline().fingerprint(),
            system->pipeline().fingerprint());
}

std::vector<cfg::Cfg> tiny_corpus() {
  std::vector<cfg::Cfg> corpus;
  for (int variant = 0; variant < 3; ++variant) {
    isa::AsmProgram p;
    p.emit(isa::Opcode::kCmpImm, 0, static_cast<std::int16_t>(variant));
    p.emit_branch(isa::Opcode::kJz, "skip");
    for (int i = 0; i <= variant; ++i) p.emit(isa::Opcode::kAdd, 1, 2);
    p.emit_branch(isa::Opcode::kJmp, "out");
    p.define_label("skip");
    p.emit(isa::Opcode::kXor, 1, 1);
    p.define_label("out");
    p.emit(isa::Opcode::kHalt);
    corpus.push_back(cfg::extract(assemble(p)));
  }
  return corpus;
}

TEST(FrontendFingerprint, SeparatesDecodersWithIdenticalVocabularies) {
  const auto corpus = tiny_corpus();
  features::PipelineConfig config;
  config.top_k = 16;

  config.frontend = "toy";
  math::Rng rng_a(5);
  const auto toy_pipeline =
      features::FeaturePipeline::fit(corpus, config, rng_a);

  config.frontend = "x86_64";
  math::Rng rng_b(5);
  const auto x86_pipeline =
      features::FeaturePipeline::fit(corpus, config, rng_b);

  // Same corpus, same seed, same hyper-parameters: the vocabularies are
  // identical, so the *only* difference is the frontend name — and that
  // alone must separate the store key space.
  EXPECT_EQ(toy_pipeline.dbl_vocabulary().size(),
            x86_pipeline.dbl_vocabulary().size());
  EXPECT_NE(toy_pipeline.fingerprint(), x86_pipeline.fingerprint());
  EXPECT_EQ(store::fingerprint_of(toy_pipeline), toy_pipeline.fingerprint());
}

TEST(FrontendFingerprint, SaveLoadRoundTripsFrontendName) {
  const auto corpus = tiny_corpus();
  features::PipelineConfig config;
  config.top_k = 16;
  config.frontend = "x86_64";
  math::Rng rng(9);
  const auto pipeline = features::FeaturePipeline::fit(corpus, config, rng);

  std::stringstream stream;
  pipeline.save(stream);
  const auto loaded = features::FeaturePipeline::load(stream);
  EXPECT_EQ(loaded.config().frontend, "x86_64");
  EXPECT_EQ(loaded.fingerprint(), pipeline.fingerprint());
}

TEST(FrontendFingerprint, EmptyFrontendNameIsInvalid) {
  features::PipelineConfig config;
  config.frontend.clear();
  EXPECT_ERROR(features::validate(config), core::ErrorCode::kInvalidArgument);

  SoteriaConfig system_config = tiny_config();
  system_config.pipeline.frontend = "sparc";
  EXPECT_ERROR(validate(system_config), core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::core
