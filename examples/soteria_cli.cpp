// soteria_cli — command-line front end over the library, the interface
// a downstream user would script against.
//
//   soteria_cli train <model-path> [scale] [seed]
//       Generate a corpus, train the full system, save it.
//   soteria_cli analyze <model-path> [seed]
//       Load a model, draw a fresh test corpus, analyze every sample
//       and print the verdict summary.
//   soteria_cli attack <model-path> [seed] [--attack gea|score|adaptive]
//                      [--params k=v,...]
//       Load a model, mount attacks from the attacker registry against
//       it, verify the AEs execute (VM), and report how many the
//       detector catches and what they cost in oracle queries.
//   soteria_cli eval-matrix <model-path> [seed] [--threads N]
//                      [--victims N] [--out <json-path>]
//       Run the attack x defense robustness matrix: per-cell detection
//       / evasion / family-flip rates and query counts, as a text table
//       plus versioned JSON (bit-identical for a fixed seed at any
//       --threads setting).
//   soteria_cli corpus <dir> [scale] [seed]
//       Write a fresh test corpus as raw firmware binaries into <dir>
//       and print one path per line (pipe into `serve`).
//   soteria_cli serve <model-path> [--queue-depth N] [--threads T]
//                     [--batch B] [--seed S]
//       Run the async analysis service: read firmware binary paths from
//       stdin (one per line), stream one JSON verdict per line to
//       stdout in submission order. --batch bounds the per-worker
//       micro-batch. Verdicts are bit-identical at every setting. The
//       control line `!swap <path>` hot-swaps the model; a failed swap
//       keeps serving the current one.
//
// `analyze` and `serve` extract every sample's features afresh (the
// feature store is a library option, not a CLI one). Any command
// accepts --metrics (human-readable per-stage breakdown on stdout after
// the run) and/or --metrics-json (same data as one JSON document). A
// flag the command does not take, a flag without its value, an extra
// positional token or a malformed number exits 2 with the usage text.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "attack/attacker.h"
#include "attack/registry.h"
#include "cfg/extractor.h"
#include "dataset/adversarial.h"
#include "dataset/generator.h"
#include "eval/matrix.h"
#include "eval/metrics.h"
#include "frontend/frontend.h"
#include "isa/vm.h"
#include "loader/elf.h"
#include "loader/elf_writer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "soteria/error.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace {

using namespace soteria;

int usage() {
  std::fprintf(stderr,
               "usage: soteria_cli train   <model-path> [scale] [seed]\n"
               "       soteria_cli analyze <model-path> [seed]"
               " [--format auto|toy|elf] [--arch <name>]\n"
               "       soteria_cli attack  <model-path> [seed]"
               " [--attack gea|score|adaptive] [--params k=v,...]"
               " [--data-scale S] [--data-seed N]\n"
               "       soteria_cli eval-matrix <model-path> [seed]"
               " [--threads N] [--victims N] [--out <json-path>]"
               " [--data-scale S] [--data-seed N]\n"
               "       soteria_cli corpus  <dir> [scale] [seed]"
               " [--format toy|elf]\n"
               "       soteria_cli serve   <model-path> [--queue-depth N]"
               " [--threads T] [--batch B] [--seed S]"
               " [--format auto|toy|elf] [--arch <name>]\n"
               "options: --metrics        print per-stage metrics report\n"
               "         --metrics-json   print metrics as JSON\n"
               "         --format         binary container: auto-detect,\n"
               "                          raw toy bytes, or ELF (corpus\n"
               "                          --format elf wraps samples in\n"
               "                          ELF64 containers)\n"
               "         --arch           force a decoder front end by\n"
               "                          name (toy, x86_64); default\n"
               "                          auto-detects\n");
  return 2;
}

/// Parses all of `text` into `out`. False for an empty or partial
/// token, a sign on an unsigned type, a value out of range, or a
/// non-finite double; `out` is then unchanged.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// Decodes one binary into a CFG under the --format/--arch policy:
/// "auto" sniffs the container (ELF magic vs raw toy bytes), "toy"
/// forces the raw historical path, "elf" requires an ELF container.
/// `arch` names a front end ("toy", "x86_64"); empty auto-detects.
cfg::Cfg decode_binary(std::span<const std::uint8_t> bytes,
                       const std::string& format, const std::string& arch) {
  loader::Image image;
  if (format == "toy") {
    image.bytes = bytes;
    image.text = bytes;
  } else if (format == "elf") {
    image = loader::load_elf(bytes);
  } else if (format == "auto" || format.empty()) {
    image = loader::load_image(bytes);
  } else {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "unknown --format " + format +
                          " (expected auto, toy, or elf)");
  }
  const auto& fe = frontend::resolve_frontend(
      frontend::FrontendRegistry::builtin(), image, arch);
  return fe.extract(image);
}

dataset::Dataset make_corpus(double scale, std::uint64_t seed) {
  dataset::DatasetConfig config;
  config.scale = scale;
  math::Rng rng(seed);
  return dataset::generate_dataset(config, rng);
}

int cmd_train(const char* path, double scale, std::uint64_t seed) {
  const auto data = make_corpus(scale, seed);
  std::printf("corpus: %zu train / %zu test samples (scale %.3f)\n",
              data.train.size(), data.test.size(), scale);
  core::SoteriaConfig config = core::cpu_scaled_config();
  config.seed = seed;
  std::printf("training...\n");
  const auto system = core::SoteriaSystem::train(data.train, config);
  system.save_file(path);
  std::printf("model saved to %s (threshold %.4f)\n", path,
              system.detector().threshold());
  return 0;
}

int cmd_analyze(const char* path, std::uint64_t seed,
                const std::string& format, const std::string& arch) {
  const auto system = core::SoteriaSystem::load_file(path);
  const auto data = make_corpus(0.01, seed + 1);

  std::vector<cfg::Cfg> cfgs;
  cfgs.reserve(data.test.size());
  if (format.empty()) {
    // Historical path: the generator's CFGs, no binary decode.
    for (const auto& sample : data.test) cfgs.push_back(sample.cfg);
  } else {
    // Exercise the loader/frontend seam end to end: every sample's
    // runnable binary goes through container load + decoder resolution
    // (--format elf wraps the toy binaries in ELF64 containers first,
    // so the ELF parser sits on the path too).
    for (const auto& sample : data.test) {
      if (sample.binary.empty()) {
        cfgs.push_back(sample.cfg);
        continue;
      }
      if (format == "elf") {
        const auto wrapped = loader::write_elf(sample.binary);
        cfgs.push_back(decode_binary(wrapped, format, arch));
      } else {
        cfgs.push_back(decode_binary(sample.binary, format, arch));
      }
    }
  }
  const auto verdicts = system.analyze_batch(cfgs, math::Rng(seed ^ 0xa11ce));

  eval::ConfusionMatrix confusion(dataset::kFamilyCount);
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].adversarial) {
      ++flagged;
      continue;
    }
    confusion.record(dataset::family_index(data.test[i].family),
                     dataset::family_index(verdicts[i].predicted));
  }
  std::printf("analyzed %zu fresh samples: %zu flagged as adversarial\n",
              data.test.size(), flagged);
  std::printf("classification accuracy over passed samples: %.2f%%\n",
              100.0 * confusion.overall_accuracy());
  for (auto family : dataset::all_families()) {
    const auto i = dataset::family_index(family);
    if (confusion.class_total(i) == 0) continue;
    std::printf("  %-8s %zu samples, %.2f%% correct\n",
                dataset::family_name(family), confusion.class_total(i),
                100.0 * confusion.class_accuracy(i));
  }
  return 0;
}

int cmd_attack(const char* path, std::uint64_t seed, double data_scale,
               std::uint64_t data_seed, const std::string& attack_name,
               const std::string& attack_params) {
  const auto system = core::SoteriaSystem::load_file(path);
  // The victims must come from the distribution the model was fitted
  // on (same scale/seed as `train`): against shifted data the detector
  // flags even clean samples, and every attack drowns in that noise.
  const auto data = make_corpus(data_scale, data_seed);
  const auto attacker =
      attack::make_attacker(attack_name, attack_params, &system);
  const math::Rng rng(seed ^ 0x47ac);

  std::size_t attacks = 0;
  std::size_t executable = 0;
  std::size_t detected = 0;
  std::size_t flipped = 0;
  std::size_t queries = 0;
  const std::size_t limit = std::min<std::size_t>(data.test.size(), 24);
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& victim = data.test[i];
    math::Rng generate_rng = rng.child(2 * i);
    attack::AttackResult result;
    try {
      result = attacker->generate(victim, data.train, generate_rng);
    } catch (const core::Error& e) {
      std::fprintf(stderr, "attack on sample %zu failed: %s\n", i,
                   e.what());
      continue;
    }
    if (victim.family == result.target_family) continue;
    ++attacks;
    queries += result.queries;
    if (!result.binary.empty()) {
      executable += isa::execute(result.binary).status ==
                    isa::VmStatus::kHalted;
    }
    math::Rng analyze_rng = rng.child(2 * i + 1);
    const auto verdict = system.analyze(result.cfg, analyze_rng);
    detected += verdict.adversarial;
    flipped += verdict.predicted != victim.family;
  }
  std::printf("%s attacks mounted (params \"%s\"): %zu\n",
              std::string(attacker->name()).c_str(),
              attacker->params().c_str(), attacks);
  std::printf("  executable (practical AEs):     %zu\n", executable);
  std::printf("  caught by the detector:         %zu (%.1f%%)\n", detected,
              attacks ? 100.0 * static_cast<double>(detected) /
                            static_cast<double>(attacks)
                      : 0.0);
  std::printf("  family flipped:                 %zu\n", flipped);
  std::printf("  oracle queries spent:           %zu\n", queries);
  return 0;
}

int cmd_eval_matrix(const char* path, std::uint64_t seed,
                    double data_scale, std::uint64_t data_seed,
                    std::size_t threads, std::size_t victims,
                    const std::string& out_path) {
  const auto system = core::SoteriaSystem::load_file(path);
  // Same-distribution victims/corpus as `train` (see cmd_attack).
  const auto data = make_corpus(data_scale, data_seed);

  // The default grid: the plain-GEA baselines against the guided
  // strategies, at the calibrated operating point and a looser one.
  const std::vector<eval::AttackSpec> attacks = {
      {"gea-small", "gea", "target=benign,size=small"},
      {"gea-large", "gea", "target=benign,size=large"},
      {"gea-multi", "gea", "target=benign,injections=2"},
      {"score", "score", "target=benign,candidates=4"},
      {"adaptive", "adaptive", "target=benign,candidates=4"},
  };
  const double alpha = system.detector().alpha();
  const auto alpha_label = [](double a) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "alpha=%.2f", a);
    return std::string(buffer);
  };
  const std::vector<eval::DefenseSpec> defenses = {
      {alpha_label(alpha), alpha},
      {alpha_label(alpha * 2.0), alpha * 2.0},
  };

  eval::MatrixOptions options;
  options.seed = seed;
  options.num_threads = threads;
  options.victims_per_cell = victims == 0 ? 6 : victims;
  const auto report = eval::run_matrix(system, data.test, data.train,
                                       attacks, defenses, options);

  std::fputs(report.to_text().c_str(), stdout);
  const std::string json = report.to_json();
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      throw core::Error(core::ErrorCode::kIoError,
                        "eval-matrix: cannot open " + out_path);
    }
    out << json << '\n';
    std::fprintf(stderr, "matrix JSON written to %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_corpus(const char* dir, double scale, std::uint64_t seed,
               const std::string& format) {
  namespace fs = std::filesystem;
  const bool elf = format == "elf";
  if (!elf && !format.empty() && format != "toy") {
    std::fprintf(stderr, "corpus: --format must be toy or elf (got %s)\n",
                 format.c_str());
    return 2;
  }
  fs::create_directories(dir);
  const auto data = make_corpus(scale, seed);
  std::size_t written = 0;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    const auto& sample = data.test[i];
    if (sample.binary.empty()) continue;
    const auto path =
        fs::path(dir) / ("sample_" + std::to_string(i) + "_" +
                         std::string(dataset::family_name(sample.family)) +
                         (elf ? ".elf" : ".bin"));
    const std::vector<std::uint8_t> bytes =
        elf ? loader::write_elf(sample.binary) : sample.binary;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      throw core::Error(core::ErrorCode::kIoError,
                        "corpus: cannot open " + path.string());
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("%s\n", path.string().c_str());
    ++written;
  }
  std::fprintf(stderr, "wrote %zu sample binaries to %s%s\n", written, dir,
               elf ? " (ELF64 containers)" : "");
  return 0;
}

/// `text` as a quoted JSON string.
std::string json_string(std::string_view text) {
  std::string quoted;
  obs::append_json_string(quoted, text);
  return quoted;
}

std::vector<std::uint8_t> read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw core::Error(core::ErrorCode::kIoError,
                      "serve: cannot open " + path);
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A trained system loaded from `path`, ready to publish to the
/// service. Loading completes before any swap, so a failed load never
/// touches the published model.
std::shared_ptr<const core::SoteriaSystem> load_shared(
    const std::string& path) {
  return std::make_shared<const core::SoteriaSystem>(
      core::SoteriaSystem::load_file(path));
}

struct PendingRequest {
  std::optional<std::uint64_t> id;  // empty: the path failed to read or decode
  std::string path;
  std::future<core::Verdict> verdict;
};

/// One JSON verdict (or failure) line on stdout, flushed so a piped
/// consumer sees it immediately. A path that never reached the
/// service prints without an id.
void print_outcome(PendingRequest& pending) {
  std::string head = "{";
  if (pending.id) head += "\"id\":" + std::to_string(*pending.id) + ",";
  head += "\"path\":" + json_string(pending.path);
  try {
    const auto verdict = pending.verdict.get();
    std::printf("%s,\"adversarial\":%s,\"family\":\"%s\","
                "\"reconstruction_error\":%.17g}\n",
                head.c_str(), verdict.adversarial ? "true" : "false",
                std::string(dataset::family_name(verdict.predicted)).c_str(),
                verdict.reconstruction_error);
  } catch (const core::Error& e) {
    std::printf("%s,\"error\":\"%s\",\"message\":%s}\n", head.c_str(),
                std::string(core::error_code_name(e.code())).c_str(),
                json_string(e.what()).c_str());
  } catch (const std::exception& e) {
    std::printf("%s,\"error\":\"%s\",\"message\":%s}\n", head.c_str(),
                pending.id ? "Internal" : "IoError",
                json_string(e.what()).c_str());
  }
  std::fflush(stdout);
}

int cmd_serve(const char* model_path, int argc, char** argv) {
  serve::ServiceConfig config;
  std::string format = "auto";
  std::string arch;
  for (int i = 0; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    bool ok = true;
    if (flag == "--queue-depth") {
      ok = parse_number(v, config.queue_depth);
    } else if (flag == "--threads") {
      ok = parse_number(v, config.num_threads);
    } else if (flag == "--batch") {
      ok = parse_number(v, config.max_batch);
    } else if (flag == "--seed") {
      ok = parse_number(v, config.seed);
    } else if (flag == "--format") {
      format = v;
    } else if (flag == "--arch") {
      arch = v;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }

  serve::AnalysisService service(load_shared(model_path), config);
  std::fprintf(stderr,
               "serving %s: %zu workers, queue depth %zu, micro-batch %zu "
               "(paths on stdin, `!swap <path>` to hot-swap)\n",
               model_path, service.worker_count(), config.queue_depth,
               config.max_batch);

  std::deque<PendingRequest> pending;
  // Print any finished requests at the head of the line; completion is
  // in-order by construction only at one worker, so the deque holds
  // results back until their turn.
  const auto drain_ready = [&] {
    while (!pending.empty() &&
           pending.front().verdict.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      print_outcome(pending.front());
      pending.pop_front();
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line.rfind("!swap ", 0) == 0) {
      const std::string path = line.substr(6);
      try {
        service.swap_model(load_shared(path));
        std::fprintf(stderr, "model swapped from %s\n", path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "swap failed: %s\n", e.what());
      }
      continue;
    }

    std::shared_ptr<const cfg::Cfg> cfg;
    try {
      // Container + decoder resolution per file: a directory of raw
      // toy binaries and ELF-wrapped ones serves uniformly under
      // --format auto.
      const auto bytes = read_binary_file(line);
      cfg = std::make_shared<const cfg::Cfg>(
          decode_binary(bytes, format, arch));
    } catch (const std::exception&) {
      // Queued as an already-failed request, so its line keeps its
      // place among the verdicts before it.
      std::promise<core::Verdict> failed;
      failed.set_exception(std::current_exception());
      pending.push_back({std::nullopt, line, failed.get_future()});
      drain_ready();
      continue;
    }

    for (;;) {
      auto ticket = service.submit(cfg);
      if (ticket.accepted()) {
        pending.push_back(
            {ticket.id, line, std::move(ticket.verdict)});
        break;
      }
      if (ticket.status == core::ErrorCode::kQueueFull &&
          !pending.empty()) {
        // Backpressure: block on the oldest in-flight request (its
        // completion means the queue has drained at least one slot),
        // then retry.
        print_outcome(pending.front());
        pending.pop_front();
        continue;
      }
      std::fprintf(stderr, "submit rejected: %s\n",
                   std::string(core::error_code_name(ticket.status)).c_str());
      break;
    }
    drain_ready();
  }

  while (!pending.empty()) {
    print_outcome(pending.front());
    pending.pop_front();
  }
  service.shutdown(serve::ShutdownPolicy::kDrain);
  const auto stats = service.stats();
  std::fprintf(stderr,
               "served: %llu accepted, %llu completed, %llu rejected, "
               "%llu expired, %llu failed, %llu swaps\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.expired),
               static_cast<unsigned long long>(stats.failed),
               static_cast<unsigned long long>(stats.swaps));
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view command = argv[1];
  const char* path = argv[2];
  try {
    if (command == "train" || command == "corpus") {
      const bool is_corpus = command == "corpus";
      double scale = 0.02;
      std::uint64_t seed = 42;
      std::string format;
      int positional = 0;
      for (int i = 3; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (is_corpus && arg == "--format" && i + 1 < argc) {
          format = argv[++i];
          continue;
        }
        const bool ok = positional == 0   ? parse_number(arg, scale)
                        : positional == 1 ? parse_number(arg, seed)
                                          : false;
        if (!ok) return usage();
        ++positional;
      }
      return is_corpus ? cmd_corpus(path, scale, seed, format)
                       : cmd_train(path, scale, seed);
    }
    if (command == "serve") {
      return cmd_serve(path, argc - 3, argv + 3);
    }
    // Positional [seed] plus the command's flags: --format/--arch for
    // analyze, --attack/--params for attack, --threads/
    // --victims/--out for eval-matrix, --data-scale/--data-seed for
    // both of the latter.
    const bool analyze = command == "analyze";
    const bool attack = command == "attack";
    const bool matrix = command == "eval-matrix";
    if (!analyze && !attack && !matrix) return usage();
    std::uint64_t seed = 42;
    bool seeded = false;
    std::string format;
    std::string arch;
    std::string attack_name = "gea";
    std::string attack_params;
    std::string out_path;
    std::size_t threads = 1;
    std::size_t victims = 0;
    double data_scale = 0.02;
    std::uint64_t data_seed = 42;
    for (int i = 3; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        if (seeded || !parse_number(arg, seed)) return usage();
        seeded = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const char* v = argv[++i];
      bool ok = true;
      if (analyze && arg == "--format") {
        format = v;
      } else if (analyze && arg == "--arch") {
        arch = v;
      } else if (attack && arg == "--attack") {
        attack_name = v;
      } else if (attack && arg == "--params") {
        attack_params = v;
      } else if (matrix && arg == "--out") {
        out_path = v;
      } else if (matrix && arg == "--threads") {
        ok = parse_number(v, threads);
      } else if (matrix && arg == "--victims") {
        ok = parse_number(v, victims);
      } else if (!analyze && arg == "--data-scale") {
        ok = parse_number(v, data_scale);
      } else if (!analyze && arg == "--data-seed") {
        ok = parse_number(v, data_seed);
      } else {
        ok = false;
      }
      if (!ok) return usage();
    }
    if (analyze) return cmd_analyze(path, seed, format, arch);
    if (attack) {
      return cmd_attack(path, seed, data_scale, data_seed, attack_name,
                        attack_params);
    }
    return cmd_eval_matrix(path, seed, data_scale, data_seed, threads,
                           victims, out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics_text = false;
  bool metrics_json = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_text = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_json = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (metrics_text || metrics_json) soteria::obs::set_enabled(true);

  const int rc = dispatch(kept, argv);

  if (metrics_text || metrics_json) {
    const auto snapshot = soteria::obs::registry().snapshot();
    if (metrics_text) {
      std::fputs(soteria::obs::export_text(snapshot).c_str(), stdout);
    }
    if (metrics_json) {
      std::fputs(soteria::obs::export_json(snapshot).c_str(), stdout);
      std::fputc('\n', stdout);
    }
  }
  return rc;
}
