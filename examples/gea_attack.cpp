// Anatomy of a GEA attack (paper Figs. 1 and 4).
//
// Builds two small firmware programs, disassembles them, extracts their
// CFGs, prints both labelings, then GEA-combines them and shows how the
// shared-entry/shared-exit merge perturbs every label — the property
// Soteria's detector keys on.
//
//   ./examples/gea_attack [seed]
#include <cstdio>
#include <cstdlib>

#include "cfg/extractor.h"
#include "cfg/gea.h"
#include "cfg/labeling.h"
#include "dataset/family_profiles.h"
#include "isa/codegen.h"
#include "isa/isa.h"

namespace {

void print_labeling(const soteria::cfg::Cfg& cfg, const char* name) {
  using namespace soteria;
  const auto dbl = cfg::label_nodes(cfg, cfg::LabelingMethod::kDensity);
  const auto lbl = cfg::label_nodes(cfg, cfg::LabelingMethod::kLevel);
  std::printf("%s: %zu blocks, %zu edges, entry block %zu\n", name,
              cfg.node_count(), cfg.edge_count(), cfg.entry());
  std::printf("  node:  ");
  for (std::size_t v = 0; v < std::min<std::size_t>(cfg.node_count(), 12);
       ++v) {
    std::printf("%4zu", v);
  }
  std::printf("%s\n", cfg.node_count() > 12 ? " ..." : "");
  std::printf("  DBL:   ");
  for (std::size_t v = 0; v < std::min<std::size_t>(cfg.node_count(), 12);
       ++v) {
    std::printf("%4zu", dbl[v]);
  }
  std::printf("%s\n", cfg.node_count() > 12 ? " ..." : "");
  std::printf("  LBL:   ");
  for (std::size_t v = 0; v < std::min<std::size_t>(cfg.node_count(), 12);
       ++v) {
    std::printf("%4zu", lbl[v]);
  }
  std::printf("%s\n", cfg.node_count() > 12 ? " ..." : "");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soteria;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  math::Rng rng(seed);

  // A malicious sample (Mirai-flavoured) and a benign target.
  auto mirai_profile = dataset::profile_for(dataset::Family::kMirai);
  mirai_profile.max_functions = 3;
  mirai_profile.max_constructs = 3;
  const auto malware_binary = isa::generate_binary(mirai_profile, rng);

  auto benign_profile = dataset::profile_for(dataset::Family::kBenign);
  benign_profile.max_functions = 3;
  benign_profile.max_constructs = 3;
  const auto benign_binary = isa::generate_binary(benign_profile, rng);

  std::printf("malware binary: %zu bytes\n", malware_binary.size());
  const auto instructions = isa::disassemble(malware_binary);
  std::printf("first instructions:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(instructions.size(), 8);
       ++i) {
    std::printf("  %3zu: %s\n", i,
                isa::to_string(instructions[i], i).c_str());
  }

  const cfg::Cfg malware_cfg = cfg::extract(malware_binary);
  const cfg::Cfg benign_cfg = cfg::extract(benign_binary);
  std::printf("\n--- original sample (Fig. 1a / Fig. 4a,c) ---\n");
  print_labeling(malware_cfg, "malware CFG");
  std::printf("\n--- injection target (Fig. 1b) ---\n");
  print_labeling(benign_cfg, "benign CFG");

  const cfg::GeaResult gea = cfg::gea_combine(malware_cfg, benign_cfg);
  std::printf("\n--- GEA combination (Fig. 1c / Fig. 4b,d) ---\n");
  print_labeling(gea.combined, "combined CFG");
  std::printf("shared entry = node %zu, shared exit = node %zu\n",
              gea.combined.entry(), gea.shared_exit);
  std::printf("original blocks now live at ids %zu..%zu, target blocks at "
              "%zu..%zu\n",
              gea.original_offset,
              gea.original_offset + malware_cfg.node_count() - 1,
              gea.target_offsets[0],
              gea.target_offsets[0] + benign_cfg.node_count() - 1);

  // Show the label perturbation: how many of the original sample's
  // blocks kept their DBL label after the merge?
  const auto before = cfg::label_nodes(malware_cfg,
                                       cfg::LabelingMethod::kDensity);
  const auto after = cfg::label_nodes(gea.combined,
                                      cfg::LabelingMethod::kDensity);
  std::size_t unchanged = 0;
  for (std::size_t v = 0; v < malware_cfg.node_count(); ++v) {
    if (before[v] == after[gea.original_offset + v]) ++unchanged;
  }
  std::printf("\nDBL labels preserved across the merge: %zu / %zu — every "
              "shifted label perturbs the walk grams Soteria observes.\n",
              unchanged, malware_cfg.node_count());
  return 0;
}
