// FrontendRegistry contract: registration rules, by-name lookup,
// magic-byte auto-detection, and the resolve_frontend policy the CLI
// and perfbench decode binaries through.
#include "frontend/frontend.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "frontend/toy_isa_frontend.h"
#include "frontend/x86_64_frontend.h"
#include "loader/elf.h"
#include "loader/elf_writer.h"
#include "soteria/error.h"

namespace soteria::frontend {
namespace {

/// Minimal stub frontend for registration tests.
class StubFrontend final : public Frontend {
 public:
  explicit StubFrontend(std::string name, bool claims_everything = false)
      : name_(std::move(name)), claims_(claims_everything) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] bool can_decode(
      const loader::Image& /*image*/) const noexcept override {
    return claims_;
  }
  [[nodiscard]] cfg::Cfg extract(
      const loader::Image& /*image*/,
      const FrontendOptions& /*options*/) const override {
    return {};
  }

 private:
  std::string name_;
  bool claims_;
};

loader::Image raw_image(const std::vector<std::uint8_t>& bytes) {
  loader::Image image;
  image.bytes = bytes;
  image.text = bytes;
  return image;
}

core::ErrorCode error_code(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const core::Error& e) {
    return e.code();
  }
  return core::ErrorCode::kOk;
}

TEST(FrontendRegistry, BuiltinShipsToyAndX8664) {
  const auto& registry = FrontendRegistry::builtin();
  ASSERT_EQ(registry.size(), 2U);
  const auto names = registry.names();
  ASSERT_EQ(names.size(), 2U);
  EXPECT_EQ(names[0], "toy");
  EXPECT_EQ(names[1], "x86_64");

  EXPECT_NE(registry.find("toy"), nullptr);
  EXPECT_NE(registry.find("x86_64"), nullptr);
  EXPECT_EQ(registry.find("arm"), nullptr);
  EXPECT_EQ(registry.by_name("toy").name(), "toy");
  EXPECT_EQ(registry.by_name("x86_64").name(), "x86_64");
}

TEST(FrontendRegistry, RejectsNullAndDuplicateRegistration) {
  FrontendRegistry registry;
  EXPECT_EQ(error_code([&] { registry.add(nullptr); }),
            core::ErrorCode::kInvalidArgument);

  registry.add(std::make_shared<StubFrontend>("alpha"));
  EXPECT_EQ(error_code(
                [&] { registry.add(std::make_shared<StubFrontend>("alpha")); }),
            core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 1U);
}

TEST(FrontendRegistry, ByNameErrorListsRegisteredNames) {
  const auto& registry = FrontendRegistry::builtin();
  try {
    (void)registry.by_name("mips");
    FAIL() << "expected kInvalidArgument";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
    const std::string what = e.what();
    EXPECT_NE(what.find("toy"), std::string::npos) << what;
    EXPECT_NE(what.find("x86_64"), std::string::npos) << what;
  }
}

TEST(FrontendRegistry, DetectsRawAsToy) {
  const std::vector<std::uint8_t> bytes(8, 0x00);
  const auto image = raw_image(bytes);
  const Frontend* frontend = FrontendRegistry::builtin().detect(image);
  ASSERT_NE(frontend, nullptr);
  EXPECT_EQ(frontend->name(), "toy");
}

TEST(FrontendRegistry, DetectsElfByMachine) {
  const std::vector<std::uint8_t> code(8, 0x00);

  loader::ElfWriteOptions toy_options;  // default machine = toy tag
  const auto toy_bytes = loader::write_elf(code, toy_options);
  const auto toy_image = loader::load_elf(toy_bytes);
  const Frontend* toy = FrontendRegistry::builtin().detect(toy_image);
  ASSERT_NE(toy, nullptr);
  EXPECT_EQ(toy->name(), "toy");

  loader::ElfWriteOptions x86_options;
  x86_options.machine = loader::kElfMachineX8664;
  const auto x86_bytes = loader::write_elf(code, x86_options);
  const auto x86_image = loader::load_elf(x86_bytes);
  const Frontend* x86 = FrontendRegistry::builtin().detect(x86_image);
  ASSERT_NE(x86, nullptr);
  EXPECT_EQ(x86->name(), "x86_64");
}

TEST(FrontendRegistry, DetectionFailureIsTyped) {
  const std::vector<std::uint8_t> code(8, 0x00);
  loader::ElfWriteOptions options;
  options.machine = 40;  // EM_ARM: no registered decoder
  const auto bytes = loader::write_elf(code, options);
  const auto image = loader::load_elf(bytes);

  EXPECT_EQ(FrontendRegistry::builtin().detect(image), nullptr);
  EXPECT_EQ(error_code([&] {
              (void)FrontendRegistry::builtin().detect_or_throw(image);
            }),
            core::ErrorCode::kInvalidArgument);
}

TEST(ResolveFrontend, EmptyAndAutoDetect) {
  const std::vector<std::uint8_t> bytes(8, 0x00);
  const auto image = raw_image(bytes);
  const auto& registry = FrontendRegistry::builtin();
  EXPECT_EQ(resolve_frontend(registry, image).name(), "toy");
  EXPECT_EQ(resolve_frontend(registry, image, "auto").name(), "toy");
}

TEST(ResolveFrontend, ExplicitNameWinsWhenCompatible) {
  const std::vector<std::uint8_t> bytes(8, 0x00);
  const auto image = raw_image(bytes);
  const auto& registry = FrontendRegistry::builtin();
  EXPECT_EQ(resolve_frontend(registry, image, "toy").name(), "toy");
}

TEST(ResolveFrontend, NamedFrontendMustAcceptTheImage) {
  // x86_64 refuses raw images: forcing it must be a typed error, not a
  // silent mis-decode.
  const std::vector<std::uint8_t> bytes(8, 0x00);
  const auto image = raw_image(bytes);
  const auto& registry = FrontendRegistry::builtin();
  EXPECT_EQ(
      error_code([&] { (void)resolve_frontend(registry, image, "x86_64"); }),
      core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      error_code([&] { (void)resolve_frontend(registry, image, "sparc"); }),
      core::ErrorCode::kInvalidArgument);
}

TEST(ResolveFrontend, RegistrationOrderBreaksTies) {
  // A catch-all registered first shadows later decoders under
  // auto-detection but stays reachable by name.
  FrontendRegistry registry;
  registry.add(std::make_shared<StubFrontend>("greedy", true));
  registry.add(std::make_shared<StubFrontend>("other", true));
  const std::vector<std::uint8_t> bytes(4, 0x00);
  const auto image = raw_image(bytes);
  EXPECT_EQ(registry.detect(image)->name(), "greedy");
  EXPECT_EQ(resolve_frontend(registry, image, "other").name(), "other");
}

TEST(FrontendCanDecode, MatchesFormatAndMachine) {
  const ToyIsaFrontend toy;
  const X8664Frontend x86;

  const std::vector<std::uint8_t> raw_bytes(8, 0x00);
  const auto raw = raw_image(raw_bytes);
  EXPECT_TRUE(toy.can_decode(raw));
  EXPECT_FALSE(x86.can_decode(raw));

  const auto x86_bytes =
      loader::write_elf(raw_bytes, {.machine = loader::kElfMachineX8664});
  const auto x86_image = loader::load_elf(x86_bytes);
  EXPECT_FALSE(toy.can_decode(x86_image));
  EXPECT_TRUE(x86.can_decode(x86_image));
}

}  // namespace
}  // namespace soteria::frontend
