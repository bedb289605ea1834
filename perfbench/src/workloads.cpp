#include "workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <cstdio>
#include <exception>
#include <functional>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "cfg/labeling.h"
#include "cfg/labeling_cache.h"
#include "corpus.h"
#include "features/ngram.h"
#include "features/random_walk.h"
#include "frontend/frontend.h"
#include "graph/centrality.h"
#include "loader/elf.h"
#include "runtime/thread_pool.h"
#include "serve/service.h"
#include "soteria/presets.h"
#include "soteria/system.h"
#include "store/feature_store.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace core = soteria::core;
namespace ds = soteria::dataset;
using soteria::cfg::Cfg;
using soteria::math::Rng;

/// Set-ups per end-to-end run; setup_s and train_s are their medians.
constexpr std::size_t kSetupRepeats = 3;
/// scan-cold: samples per analyze_batch call (one scanner request).
constexpr std::size_t kScanBatch = 32;
/// serve-replay: distinct requests in the replayed stream.
constexpr std::size_t kStreamLength = 512;
/// serve-replay: nominal open-loop rate, below the warm-store capacity
/// of 2 workers (about 700 verdicts/s on the reference host).
constexpr double kServeRate = 300.0;
/// serve-replay saturation phase: requests kept in flight (queue depth
/// 256, so nothing is ever rejected, and well above the 2 x 8 requests
/// the workers can drain at once, so the queue never runs dry).
constexpr std::size_t kSaturationWindow = 64;
/// Saturation throughput is the median over slices of this length, so
/// a burst of contention from other tenants moves one slice, not the
/// result.
constexpr double kRateWindow = 0.5;
constexpr std::size_t kServeQueueDepth = 256;
constexpr std::size_t kServeMaxBatch = 8;
/// scan-large: firmware CFGs generated per measured second.
constexpr double kLargeInputsPerSecond = 12.0;
/// Traced run: inputs pushed through the layer-by-layer pass.
constexpr std::size_t kTraceSmall = 128;
constexpr std::size_t kTraceLarge = 4;
/// Child stream of the run seed that seeds per-sample walks.
constexpr std::uint64_t kWalkStream = 0x5ca9;

core::SoteriaConfig product_config() {
  core::SoteriaConfig config = core::cpu_scaled_config();
  config.seed = kModelSeed;
  config.num_threads = kTrainThreads;
  return config;
}

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  return a.adversarial == b.adversarial && a.predicted == b.predicted &&
         std::bit_cast<std::uint64_t>(a.reconstruction_error) ==
             std::bit_cast<std::uint64_t>(b.reconstruction_error);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Cfg decode(std::span<const std::uint8_t> bytes) {
  const auto image = soteria::loader::load_image(bytes);
  return soteria::frontend::resolve_frontend(
             soteria::frontend::FrontendRegistry::builtin(), image)
      .extract(image);
}

std::shared_ptr<soteria::store::FeatureStore> open_store(
    const std::string& directory) {
  return std::make_shared<soteria::store::FeatureStore>(
      soteria::store::StoreConfig{directory});
}

/// Flushes the filesystem holding `directory` (syncfs), so writeback of
/// set-up data does not run inside a measured window.
void flush_filesystem(const std::string& directory) {
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

std::string fresh_dir(const RunOptions& options, const std::string& name) {
  const std::string path = options.workdir + "/" + name;
  fs::remove_all(path);
  return path;
}

std::vector<Rng> walk_rngs(std::uint64_t seed, std::size_t count) {
  const Rng base = Rng(seed).child(kWalkStream);
  std::vector<Rng> rngs;
  rngs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) rngs.push_back(base.child(i));
  return rngs;
}

// ---------------------------------------------------------------- setup

struct Setup {
  ModelCorpus corpus;
  std::shared_ptr<const core::SoteriaSystem> system;
  std::vector<double> setup_s;
  std::vector<double> train_s;
};

/// Corpus generation, training, save + load (so caches start as a
/// user's would), then the workload's warm-up; `repeats` times, keeping
/// the last. `prepare(corpus)` generates the workload's inputs;
/// `warm(system, repeat)` plays what a deployment would have run before;
/// `measure(system, repeat)` runs one untimed-for-set-up segment of the
/// measured window after each set-up, so the window is spread over the
/// whole run instead of sampling one stretch of host drift.
template <typename Prepare, typename Warm, typename Measure>
Setup set_up(const RunOptions& options, std::size_t repeats,
             Prepare&& prepare, Warm&& warm, Measure&& measure) {
  Setup setup;
  const std::string model_path = options.workdir + "/model.bin";
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    setup.corpus = make_model_corpus();
    prepare(setup.corpus);
    const auto train_start = Clock::now();
    const auto trained =
        core::SoteriaSystem::train(setup.corpus.train, product_config());
    setup.train_s.push_back(seconds_since(train_start));
    trained.save_file(model_path);
    setup.system = std::make_shared<const core::SoteriaSystem>(
        core::SoteriaSystem::load_file(model_path));
    warm(setup.system, r);
    setup.setup_s.push_back(seconds_since(start));
    measure(setup.system, r);
  }
  return setup;
}

void report_setup(Result& result, const Setup& setup) {
  const auto spread = [](const std::vector<double>& values) {
    char note[96];
    std::snprintf(note, sizeof(note), "median of %zu (%.3f .. %.3f s)",
                  values.size(),
                  *std::min_element(values.begin(), values.end()),
                  *std::max_element(values.begin(), values.end()));
    return std::string(note);
  };
  result.add("setup_s", median(setup.setup_s), "s", setup.setup_s.size(),
             spread(setup.setup_s) + " set-ups");
  result.add("train_s", median(setup.train_s), "s", setup.train_s.size(),
             spread(setup.train_s) + " SoteriaSystem::train calls");
}

void report_latency(Result& result, const std::vector<double>& latency_ms,
                    const std::string& what) {
  const auto tail = tail_percentile(latency_ms);
  result.add("verdict_p50_ms", median(latency_ms), "ms", latency_ms.size(),
             what);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f (highest with >= 10 beyond); %s",
                tail.percentile, what.c_str());
  result.add("verdict_p99_ms", tail.value, "ms", latency_ms.size(), note);
}

void report_tail(Result& result) {
  result.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "getrusage ru_maxrss");
  const double attempted = static_cast<double>(result.attempted());
  const double failed = static_cast<double>(result.failed());
  result.add("fail_ratio", attempted == 0.0 ? 1.0 : failed / attempted,
             "ratio", result.attempted(), "failed / attempted operations");
}

/// Verdict quality over a labelled mix: accuracy over the clean samples
/// the detector passes, clean false-positive rate, AE detection rate.
void report_quality(Result& result, const std::vector<Input>& inputs,
                    std::span<const core::Verdict> verdicts) {
  std::size_t clean = 0, clean_flagged = 0, passed_correct = 0, ae = 0,
              ae_flagged = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const auto& input = inputs[i];
    if (input.adversarial) {
      ++ae;
      ae_flagged += verdicts[i].adversarial ? 1 : 0;
    } else {
      ++clean;
      if (verdicts[i].adversarial) {
        ++clean_flagged;
      } else if (verdicts[i].predicted == input.family) {
        ++passed_correct;
      }
    }
  }
  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  result.add("accuracy", ratio(passed_correct, clean - clean_flagged), "ratio",
             clean - clean_flagged, "correct family / clean samples passed");
  result.add("clean_fpr", ratio(clean_flagged, clean), "ratio", clean,
             "clean samples flagged");
  result.add("ae_detect_rate", ratio(ae_flagged, ae), "ratio", ae,
             "adversarial examples flagged");
}

// -------------------------------------------------------------- serving

using CfgPtr = std::shared_ptr<const Cfg>;

soteria::serve::ServiceConfig service_config(
    std::uint64_t seed, std::shared_ptr<soteria::store::FeatureStore> store) {
  soteria::serve::ServiceConfig config;
  config.queue_depth = kServeQueueDepth;
  config.num_threads = kServeWorkers;
  config.max_batch = kServeMaxBatch;
  config.seed = seed;
  config.feature_store = std::move(store);
  return config;
}

/// Outcome accounting shared by every load loop below. Request k of a
/// replay carries id k % stream length, so its verdict must equal
/// `expected[id]` whenever `expected` is non-empty.
struct ServeCounts {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;   ///< verdict differs from the expected one
  std::uint64_t errors = 0;  ///< the request failed (exception)

  ServeCounts& operator+=(const ServeCounts& other) {
    submitted += other.submitted;
    rejected += other.rejected;
    completed += other.completed;
    wrong += other.wrong;
    errors += other.errors;
    return *this;
  }

  void settle(soteria::serve::Ticket& ticket,
              const std::vector<core::Verdict>& expected,
              std::vector<core::Verdict>* out) {
    try {
      const core::Verdict verdict = ticket.verdict.get();
      ++completed;
      if (!expected.empty() && !same_verdict(verdict, expected[ticket.id])) {
        ++wrong;
      }
      if (out != nullptr) (*out)[ticket.id] = verdict;
    } catch (const std::exception&) {
      ++errors;
    }
  }
};

/// Closed loop with kSaturationWindow requests in flight: replays
/// `stream` until `seconds` pass (or, with seconds <= 0, exactly one
/// pass over the stream). Returns the completion rate of each full
/// kRateWindow-long slice of the run (empty for a single pass).
std::vector<double> run_closed_loop(soteria::serve::AnalysisService& service,
                                    const std::vector<CfgPtr>& stream,
                                    const std::vector<core::Verdict>& expected,
                                    double seconds, ServeCounts& counts,
                                    std::vector<core::Verdict>* out = nullptr) {
  std::deque<soteria::serve::Ticket> in_flight;
  std::vector<double> completed_at;  // seconds since start
  std::uint64_t k = 0;
  const auto start = Clock::now();
  const auto more = [&] {
    return seconds > 0.0 ? seconds_since(start) < seconds
                         : k < stream.size();
  };
  while (more() || !in_flight.empty()) {
    while (more() && in_flight.size() < kSaturationWindow) {
      const std::uint64_t id = k++ % stream.size();
      auto ticket = service.submit_keyed(stream[id],
                                         Clock::time_point::max(), id);
      ++counts.submitted;
      if (ticket.accepted()) {
        in_flight.push_back(std::move(ticket));
      } else {
        ++counts.rejected;
      }
    }
    if (in_flight.empty()) continue;
    counts.settle(in_flight.front(), expected, out);
    completed_at.push_back(seconds_since(start));
    in_flight.pop_front();
  }
  // Per slice: completions after its first one over the time they took.
  std::vector<double> rates;
  for (double from = 0.0; from + kRateWindow <= seconds; from += kRateWindow) {
    const auto begin = std::lower_bound(completed_at.begin(),
                                        completed_at.end(), from);
    const auto end = std::lower_bound(completed_at.begin(),
                                      completed_at.end(), from + kRateWindow);
    if (end - begin >= 2) {
      rates.push_back(static_cast<double>(end - begin - 1) /
                      (*(end - 1) - *begin));
    }
  }
  return rates;
}

/// Open loop at a fixed rate: request k is submitted at start + k / rate
/// whatever the service's state. Latency runs from when a request was
/// *due*, so a stall in the system counts against every request it
/// delays; the generator's own lateness is reported separately. The
/// generator runs on its own thread and busy-polls for both due times
/// and completions: on a virtualized host a sleeping thread can take
/// milliseconds to be woken, which would otherwise be charged to the
/// service.
struct OpenLoop {
  ServeCounts counts;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
};

OpenLoop run_open_loop(soteria::serve::AnalysisService& service,
                       const std::vector<CfgPtr>& stream,
                       const std::vector<core::Verdict>& expected,
                       double rate, double seconds,
                       std::size_t max_requests = SIZE_MAX) {
  struct Pending {
    Clock::time_point due;
    soteria::serve::Ticket ticket;
  };
  OpenLoop loop;
  std::exception_ptr error;
  std::thread generator([&] {
    try {
      std::vector<Pending> waiting;
      const auto start = Clock::now();
      bool generating = true;
      for (std::uint64_t k = 0; generating || !waiting.empty();) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(k) / rate));
        generating = k < max_requests && seconds_between(start, due) < seconds;
        const auto now = Clock::now();
        if (generating && now >= due) {
          loop.lag_ms.push_back(1e3 * seconds_between(due, now));
          const std::uint64_t id = k++ % stream.size();
          waiting.push_back(
              {due, service.submit_keyed(stream[id], Clock::time_point::max(),
                                         id)});
          continue;
        }
        std::erase_if(waiting, [&](Pending& pending) {
          if (pending.ticket.accepted() &&
              pending.ticket.verdict.wait_for(std::chrono::seconds(0)) !=
                  std::future_status::ready) {
            return false;
          }
          ++loop.counts.submitted;
          if (!pending.ticket.accepted()) {
            ++loop.counts.rejected;
            return true;
          }
          loop.latency_ms.push_back(1e3 * seconds_since(pending.due));
          loop.counts.settle(pending.ticket, expected, nullptr);
          return true;
        });
      }
    } catch (...) {
      error = std::current_exception();
    }
  });
  generator.join();
  if (error) std::rethrow_exception(error);
  return loop;
}

/// Service failures as failed operations: whatever the service's
/// counters saw go wrong, verdicts that differ from the expected ones,
/// and accepted requests whose verdict never arrived.
void check_service(Result& result, const soteria::serve::ServiceStats& stats,
                   const ServeCounts& counts, const std::string& phase) {
  const std::uint64_t bad = stats.rejected + stats.expired + stats.failed +
                            stats.cancelled;
  if (bad > 0) {
    result.fail(phase + ": " + std::to_string(bad) +
                    " requests rejected, expired, failed or cancelled",
                bad);
  }
  if (counts.wrong > 0) {
    result.fail(phase + ": " + std::to_string(counts.wrong) +
                    " verdicts differ from the set-up pass's cold verdicts",
                counts.wrong);
  }
  if (counts.errors > 0) {
    result.fail(phase + ": " + std::to_string(counts.errors) +
                    " requests threw",
                counts.errors);
  }
  if (stats.completed != counts.completed) {
    result.fail(phase + ": the service completed " +
                    std::to_string(stats.completed) +
                    " requests, the load loop received " +
                    std::to_string(counts.completed) + " verdicts",
                1);
  }
}

// ------------------------------------------------------------ scan-cold

struct ScanPass {
  std::vector<core::Verdict> verdicts;
  std::vector<double> batch_seconds;
  soteria::cfg::LabelingCache::Stats cache;
  soteria::store::StoreStats store;
};

/// One cold scan over `inputs` in kScanBatch batches: cleared labeling
/// cache, feature store on a fresh empty directory.
ScanPass scan_pass(const core::SoteriaSystem& system,
                   const std::vector<Input>& inputs,
                   const std::vector<Rng>& rngs,
                   const std::string& store_dir, Result& result) {
  ScanPass pass;
  fs::remove_all(store_dir);
  auto store = open_store(store_dir);
  const auto& cache = system.pipeline().labeling_cache();
  cache->clear();
  core::AnalyzeOptions options;
  options.num_threads = kScanColdThreads;
  options.feature_store = store;

  for (std::size_t begin = 0; begin < inputs.size(); begin += kScanBatch) {
    const std::size_t count = std::min(kScanBatch, inputs.size() - begin);
    std::vector<Cfg> decoded(count);
    std::vector<const Cfg*> cfgs(count);
    result.attempt(count);
    std::vector<core::Verdict> verdicts;
    const auto start = Clock::now();
    try {
      for (std::size_t j = 0; j < count; ++j) {
        const auto& input = inputs[begin + j];
        if (input.image.empty()) {
          cfgs[j] = &input.cfg;
        } else {
          decoded[j] = decode(input.image);
          cfgs[j] = &decoded[j];
        }
      }
      verdicts = system.analyze_batch(
          cfgs, std::span(rngs).subspan(begin, count), options);
    } catch (const std::exception& e) {
      result.fail(std::string("scan batch threw: ") + e.what(), count);
      verdicts.assign(count, core::Verdict{});
    }
    pass.batch_seconds.push_back(seconds_since(start));
    if (verdicts.size() != count) {
      result.fail("analyze_batch returned " + std::to_string(verdicts.size()) +
                      " verdicts for " + std::to_string(count) + " samples",
                  count);
      verdicts.resize(count);
    }
    for (std::size_t j = 0; j < count; ++j) {
      const auto& input = inputs[begin + j];
      if (!input.image.empty() &&
          soteria::cfg::LabelingCache::content_hash(decoded[j]) !=
              soteria::cfg::LabelingCache::content_hash(input.cfg)) {
        result.fail("decoded CFG differs from the generator's CFG");
      }
    }
    pass.verdicts.insert(pass.verdicts.end(), verdicts.begin(),
                         verdicts.end());
  }
  pass.cache = cache->stats();
  pass.store = store->stats();
  store.reset();
  fs::remove_all(store_dir);
  return pass;
}

Result scan_cold(const RunOptions& options) {
  Result result;
  std::vector<Input> inputs;
  std::vector<core::Verdict> reference;  // the first pass's verdicts
  std::vector<double> latency_ms;        // per verdict: its batch's latency
  std::vector<double> pass_rates;        // verdicts / batch time, per pass
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  // Whole passes (identical work each) until this segment's share of the
  // window is spent.
  const auto measure = [&](const auto& system, std::size_t) {
    const auto rngs = walk_rngs(options.seed, inputs.size());
    double busy = 0.0;
    while (busy < options.seconds / kSetupRepeats) {
      const auto pass = scan_pass(*system, inputs, rngs,
                                  options.workdir + "/scan-store", result);
      double pass_s = 0.0;
      for (std::size_t b = 0; b < pass.batch_seconds.size(); ++b) {
        pass_s += pass.batch_seconds[b];
        const std::size_t count =
            std::min(kScanBatch, pass.verdicts.size() - b * kScanBatch);
        latency_ms.insert(latency_ms.end(), count,
                          1e3 * pass.batch_seconds[b]);
      }
      busy += pass_s;
      pass_rates.push_back(static_cast<double>(pass.verdicts.size()) /
                           pass_s);
      cache_hits += pass.cache.hits;
      cache_lookups += pass.cache.hits + pass.cache.misses;
      if (reference.empty()) {
        reference = pass.verdicts;
        continue;
      }
      // Same inputs and walk seeds, and a retrained model that must be
      // bit-identical: every pass returns the first pass's verdicts.
      std::uint64_t differ = 0;
      for (std::size_t i = 0; i < pass.verdicts.size(); ++i) {
        differ += same_verdict(pass.verdicts[i], reference[i]) ? 0 : 1;
      }
      if (differ > 0) {
        result.fail(std::to_string(differ) +
                        " verdicts differ between identical scan passes",
                    differ);
      }
    }
  };
  const auto setup = set_up(
      options, kSetupRepeats,
      [&](const ModelCorpus& corpus) {
        Rng rng(options.seed);
        inputs = make_mixed_inputs(corpus, MixOptions{}, rng);
      },
      [](const auto&, std::size_t) {}, measure);

  report_setup(result, setup);
  result.add("verdicts_per_s", median(pass_rates), "1/s", latency_ms.size(),
             "median of " + std::to_string(pass_rates.size()) +
                 " passes, " + std::to_string(kScanColdThreads) + " threads");
  report_latency(result, latency_ms, "per verdict: its batch's latency");
  report_tail(result);
  report_quality(result, inputs, reference);
  result.add("label_cache_hit_ratio",
             cache_lookups == 0 ? 0.0
                                : static_cast<double>(cache_hits) /
                                      static_cast<double>(cache_lookups),
             "ratio", cache_lookups, "labeling-cache hits / lookups");
  return result;
}

// --------------------------------------------------------- serve-replay

struct Stream {
  std::vector<Input> inputs;
  std::vector<CfgPtr> cfgs;
  std::vector<core::Verdict> cold;  ///< set-up pass verdicts, by id
  std::string store_dir;            ///< the warm store of the last set-up
};

/// serve-replay's set-up: the stream (generated from the run seed) and
/// one cold pass through a service, which fills a fresh feature store.
/// Every set-up's cold verdicts must equal the first one's (training
/// and serving are both deterministic).
template <typename Measure>
Setup set_up_stream(const RunOptions& options, std::size_t repeats,
                    Stream& stream, Result& result, Measure&& measure) {
  return set_up(
      options, repeats,
      [&](const ModelCorpus& corpus) {
        Rng rng(options.seed);
        MixOptions mix;
        mix.groups = kStreamLength / (mix.clean_per_group +
                                      mix.adversarial_per_group);
        stream.inputs = make_mixed_inputs(corpus, mix, rng);
        stream.cfgs.clear();
        for (const auto& input : stream.inputs) {
          stream.cfgs.push_back(std::make_shared<const Cfg>(input.cfg));
        }
      },
      [&](const std::shared_ptr<const core::SoteriaSystem>& system,
          std::size_t repeat) {
        if (!stream.store_dir.empty()) fs::remove_all(stream.store_dir);
        stream.store_dir =
            fresh_dir(options, "serve-store-" + std::to_string(repeat));
        soteria::serve::AnalysisService service(
            system, service_config(options.seed, open_store(stream.store_dir)));
        const auto previous = stream.cold;
        stream.cold.assign(stream.cfgs.size(), core::Verdict{});
        ServeCounts counts;
        run_closed_loop(service, stream.cfgs, previous, 0.0, counts,
                        &stream.cold);
        service.shutdown(soteria::serve::ShutdownPolicy::kDrain);
        check_service(result, service.stats(), counts, "set-up pass");
        flush_filesystem(stream.store_dir);
      },
      measure);
}

/// The determinism contract: the set-up pass's cold verdicts equal a
/// serial analyze_batch (one thread, no store) over the same ids.
void check_against_serial(Result& result, const core::SoteriaSystem& system,
                          const Stream& stream, std::uint64_t seed) {
  std::vector<const Cfg*> cfgs;
  std::vector<Rng> rngs;
  const Rng base(seed);
  for (std::size_t id = 0; id < stream.cfgs.size(); ++id) {
    cfgs.push_back(stream.cfgs[id].get());
    rngs.push_back(base.child(id));
  }
  core::AnalyzeOptions options;
  options.num_threads = 1;
  const auto serial = system.analyze_batch(cfgs, rngs, options);
  std::uint64_t differ = 0;
  for (std::size_t id = 0; id < serial.size(); ++id) {
    differ += same_verdict(serial[id], stream.cold[id]) ? 0 : 1;
  }
  if (differ > 0 || serial.size() != stream.cold.size()) {
    result.fail(std::to_string(differ) +
                    " service verdicts differ from a serial analyze_batch",
                std::max<std::uint64_t>(differ, 1));
  }
}

Result serve_replay(const RunOptions& options) {
  Result result;
  Stream stream;
  OpenLoop open;
  std::vector<double> rates;  // saturation completions/s per slice
  ServeCounts measured;
  std::uint64_t store_hits = 0, store_lookups = 0;
  // The measured segment: the same stream, ids and seed into a new
  // service instance over the reopened (warm) store, so every request
  // hits. An untimed pass over the stream first starts the instance's
  // threads and does each entry's first read (which, on a relatime
  // mount, also writes the file's access time); then the open loop,
  // then saturation.
  const auto measure = [&](const auto& system, std::size_t) {
    const double share = options.seconds / kSetupRepeats / 2.0;
    auto store = open_store(stream.store_dir);
    soteria::serve::AnalysisService service(
        system, service_config(options.seed, store));
    ServeCounts counts;
    run_closed_loop(service, stream.cfgs, stream.cold, 0.0, counts);
    auto segment =
        run_open_loop(service, stream.cfgs, stream.cold, kServeRate, share);
    const auto segment_rates = run_closed_loop(service, stream.cfgs,
                                               stream.cold, share, counts);
    service.shutdown(soteria::serve::ShutdownPolicy::kDrain);
    counts += segment.counts;
    check_service(result, service.stats(), counts, "measured pass");
    measured += counts;
    open.latency_ms.insert(open.latency_ms.end(), segment.latency_ms.begin(),
                           segment.latency_ms.end());
    open.lag_ms.insert(open.lag_ms.end(), segment.lag_ms.begin(),
                       segment.lag_ms.end());
    rates.insert(rates.end(), segment_rates.begin(), segment_rates.end());
    const auto stats = store->stats();
    store_hits += stats.hits;
    store_lookups += stats.hits + stats.misses;
  };
  const auto setup =
      set_up_stream(options, kSetupRepeats, stream, result, measure);
  result.attempt(measured.submitted);
  check_against_serial(result, *setup.system, stream, options.seed);

  report_setup(result, setup);
  char what[96];
  std::snprintf(what, sizeof(what),
                "saturation: median of %zu %.1f s slices, %zu workers, "
                "%zu in flight",
                rates.size(), kRateWindow, kServeWorkers, kSaturationWindow);
  result.add("verdicts_per_s", median(rates), "1/s", rates.size(), what);
  std::snprintf(what, sizeof(what), "open loop at %.0f/s, from due time",
                kServeRate);
  report_latency(result, open.latency_ms, what);
  report_tail(result);
  report_quality(result, stream.inputs, stream.cold);
  result.add("store_hit_ratio",
             static_cast<double>(store_hits) /
                 static_cast<double>(std::max<std::uint64_t>(1, store_lookups)),
             "ratio", store_lookups,
             "feature-store hits / lookups, measured pass");
  result.add("gen_lag_p99_ms", tail_percentile(open.lag_ms).value, "ms",
             open.lag_ms.size(), "open-loop generator lateness");
  fs::remove_all(stream.store_dir);
  return result;
}

// ----------------------------------------------------------- scan-large

Result scan_large(const RunOptions& options) {
  Result result;
  std::vector<Cfg> inputs;
  std::vector<core::Verdict> verdicts;  // verdict i is of inputs[i]
  std::vector<double> latency_ms;
  // Each segment continues with the next (distinct) inputs.
  const auto measure = [&](const auto& system, std::size_t) {
    const auto rngs = walk_rngs(options.seed, inputs.size());
    core::AnalyzeOptions analyze;
    analyze.num_threads = kScanLargeThreads;
    double busy = 0.0;
    for (std::size_t i = verdicts.size();
         i < inputs.size() && busy < options.seconds / kSetupRepeats; ++i) {
      result.attempt(1);
      const auto start = Clock::now();
      try {
        verdicts.push_back(system->analyze(inputs[i], rngs[i], analyze));
      } catch (const std::exception& e) {
        result.fail(std::string("analyze threw: ") + e.what());
        verdicts.emplace_back();
      }
      const double elapsed = seconds_since(start);
      busy += elapsed;
      latency_ms.push_back(1e3 * elapsed);
    }
  };
  const auto setup = set_up(
      options, kSetupRepeats,
      [&](const ModelCorpus&) {
        Rng rng(options.seed);
        inputs = make_firmware_inputs(
            static_cast<std::size_t>(kLargeInputsPerSecond * options.seconds) +
                2,
            rng);
      },
      [](const auto&, std::size_t) {}, measure);

  // Determinism: the serial verdicts equal a batch re-analysis.
  core::AnalyzeOptions analyze;
  analyze.num_threads = kScanLargeThreads;
  const std::size_t recheck = std::min<std::size_t>(2, verdicts.size());
  const auto again = setup.system->analyze_batch(
      std::span(inputs).first(recheck), Rng(options.seed).child(kWalkStream),
      analyze);
  for (std::size_t i = 0; i < recheck; ++i) {
    if (!same_verdict(again[i], verdicts[i])) {
      result.fail("analyze and analyze_batch disagree on a firmware CFG");
    }
  }

  report_setup(result, setup);
  double busy_ms = 0.0;
  for (const double ms : latency_ms) busy_ms += ms;
  result.add("verdicts_per_s",
             1e3 * static_cast<double>(latency_ms.size()) / busy_ms, "1/s",
             latency_ms.size(), "serial, 1 thread");
  report_latency(result, latency_ms, "serial analyze");
  report_tail(result);
  return result;
}

// --------------------------------------------------------------- traced

/// One request of the layer-by-layer pass.
struct TraceRequest {
  const Cfg* cfg = nullptr;
  std::span<const std::uint8_t> image;  ///< decoded first when non-empty
  Rng rng{0};                           ///< fresh per-sample walk stream
};

/// The feature-store key SoteriaSystem::analyze uses for `request`.
soteria::store::FeatureKey store_key(const core::SoteriaSystem& system,
                                     const TraceRequest& request) {
  return {soteria::cfg::LabelingCache::content_hash(*request.cfg),
          system.pipeline().fingerprint().value, request.rng.seed()};
}

/// The verdict path through each layer's public call, one span per
/// layer; mirrors SoteriaSystem::analyze with a feature store.
core::Verdict traced_verdict(Tracer& tracer, const core::SoteriaSystem& system,
                             const TraceRequest& request, std::int64_t id,
                             soteria::store::FeatureStore* store,
                             soteria::features::SampleFeatures* kept) {
  const Tracer::Scope root(tracer, "verdict", id);
  const auto& pipeline = system.pipeline();
  Cfg decoded;
  const Cfg* cfg = request.cfg;
  if (!request.image.empty()) {
    const Tracer::Scope span(tracer, "frontend.decode", id);
    decoded = decode(request.image);
    cfg = &decoded;
  }
  std::optional<soteria::features::SampleFeatures> features;
  soteria::store::FeatureKey key;
  if (store != nullptr) {
    const Tracer::Scope span(tracer, "store.get", id);
    key = store_key(system, {cfg, {}, request.rng});
    features = store->get(key);
  }
  if (!features) {
    {
      const Tracer::Scope span(tracer, "cfg.label_lookup", id);
      (void)pipeline.labeling_cache()->labels(*cfg, pipeline.config().labeling);
    }
    {
      const Tracer::Scope span(tracer, "features.extract", id);
      Rng rng = request.rng;
      features = pipeline.extract(*cfg, rng);
    }
    if (store != nullptr) {
      const Tracer::Scope span(tracer, "store.put", id);
      store->put(key, *features);
    }
  }
  core::Verdict verdict;
  {
    const Tracer::Scope span(tracer, "detector.score", id);
    verdict.reconstruction_error =
        system.detector().sample_error(core::pooled_matrix(*features));
  }
  verdict.adversarial =
      verdict.reconstruction_error > system.detector().threshold();
  {
    const Tracer::Scope span(tracer, "classifier.predict", id);
    verdict.predicted = system.classifier().predict(*features);
  }
  if (kept != nullptr) *kept = std::move(*features);
  return verdict;
}

/// Layers that are not on the verdict path, or are inside another
/// layer's call there, timed on the same request under a "probe" root
/// (excluded from the verdict-time comparison).
void probe_layers(Tracer& tracer, const core::SoteriaSystem& system,
                  const TraceRequest& request, std::int64_t id,
                  bool with_extract) {
  namespace feat = soteria::features;
  const Tracer::Scope root(tracer, "probe", id);
  const auto& pipeline = system.pipeline();
  const auto& config = pipeline.config();
  const Cfg& cfg = *request.cfg;
  soteria::cfg::NodeLabelings labels;
  {
    const Tracer::Scope span(tracer, "cfg.label", id);
    labels = soteria::cfg::label_both(cfg, config.labeling);
  }
  {
    const Tracer::Scope span(tracer, "graph.centrality", id);
    (void)soteria::graph::centrality_scores(cfg.graph(), 1);
  }
  std::vector<std::vector<soteria::cfg::Label>> dbl_walks, lbl_walks;
  {
    const Tracer::Scope span(tracer, "features.walks", id);
    Rng rng = request.rng;
    dbl_walks = feat::labeled_walks(cfg, labels.dbl, config.walk, rng);
    lbl_walks = feat::labeled_walks(cfg, labels.lbl, config.walk, rng);
  }
  {
    // Per-walk counting into reserved maps, as FeaturePipeline::extract
    // counts them.
    const Tracer::Scope span(tracer, "features.ngrams", id);
    for (const auto* walks : {&dbl_walks, &lbl_walks}) {
      for (const auto& walk : *walks) {
        feat::GramCounts counts;
        counts.reserve(2048);
        feat::count_grams(walk, config.gram_sizes, counts);
      }
    }
  }
  if (with_extract) {
    (void)pipeline.labeling_cache()->labels(cfg, config.labeling);
    const Tracer::Scope span(tracer, "features.extract", id);
    Rng rng = request.rng;
    (void)pipeline.extract(cfg, rng);
  }
}

/// SoteriaSystem::train's phases replayed through the public calls of
/// each module (same seeds and forks), one span per phase. The replayed
/// detector must land on the trained system's threshold bit for bit.
void trace_training(Tracer& tracer, const ModelCorpus& corpus,
                    const core::SoteriaSystem& trained, Result& result) {
  namespace feat = soteria::features;
  const auto config = product_config();
  const Tracer::Scope root(tracer, "train");
  Rng rng(config.seed);
  const auto& train = corpus.train;
  std::vector<Cfg> cfgs;
  for (const auto& sample : train) cfgs.push_back(sample.cfg);

  feat::FeaturePipeline pipeline;
  {
    const Tracer::Scope span(tracer, "train.fit");
    Rng fit_rng = rng.fork(1);
    pipeline = feat::FeaturePipeline::fit(
        cfgs, config.pipeline, fit_rng, kTrainThreads,
        std::make_shared<soteria::cfg::LabelingCache>(
            config.labeling_cache_capacity));
  }
  auto holdout = static_cast<std::size_t>(config.calibration_fraction *
                                          static_cast<double>(train.size()));
  holdout = std::min(std::max<std::size_t>(holdout, 1), train.size() - 1);
  const std::size_t fit_count = train.size() - holdout;
  std::vector<feat::SampleFeatures> extracted;
  std::vector<std::vector<float>> calibration_rows;
  {
    const Tracer::Scope span(tracer, "train.extract");
    const Rng extract_rng = rng.fork(2);
    extracted = soteria::runtime::parallel_map(
        kTrainThreads, train.size(), [&](std::size_t i) {
          Rng sample_rng = extract_rng.child(i);
          return pipeline.extract(train[i].cfg, sample_rng);
        });
    const Rng calibration_rng = rng.fork(5);
    calibration_rows = soteria::runtime::parallel_map(
        kTrainThreads, holdout, [&](std::size_t j) {
          Rng sample_rng = calibration_rng.child(j);
          return pipeline.extract(train[fit_count + j].cfg, sample_rng)
              .pooled_combined();
        });
  }
  std::vector<std::vector<float>> detector_rows, dbl_rows, lbl_rows;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (i < fit_count) detector_rows.push_back(extracted[i].pooled_combined());
    const std::size_t walks =
        std::min({config.training_vectors_per_sample, extracted[i].dbl.size(),
                  extracted[i].lbl.size()});
    for (std::size_t w = 0; w < walks; ++w) {
      dbl_rows.push_back(extracted[i].dbl[w]);
      lbl_rows.push_back(extracted[i].lbl[w]);
      labels.push_back(ds::family_index(train[i].family));
    }
  }
  Rng detector_rng = rng.fork(3);
  double threshold = 0.0;
  {
    const Tracer::Scope span(tracer, "train.detector");
    threshold = core::AeDetector::train(
                    core::pack_rows(detector_rows),
                    core::pack_rows(calibration_rows), config.autoencoder,
                    config.detector_training, config.detector_alpha,
                    config.detector_learning_rate, detector_rng)
                    .threshold();
  }
  {
    const Tracer::Scope span(tracer, "train.classifier");
    Rng classifier_rng = rng.fork(4);
    (void)core::FamilyClassifier::train(
        {core::pack_rows(dbl_rows), labels},
        {core::pack_rows(lbl_rows), labels}, config.cnn,
        config.classifier_training, config.classifier_learning_rate,
        classifier_rng);
  }
  if (std::bit_cast<std::uint64_t>(threshold) !=
      std::bit_cast<std::uint64_t>(trained.detector().threshold())) {
    result.fail("replayed training phases disagree with SoteriaSystem::train");
  }
}

/// What the traced run measures besides spans.
struct LayerExtras {
  double untraced_s = 0.0;  ///< untraced serial pass over the trace inputs
  std::size_t requests = 0;
  /// Labeling-cache stats after the workload's own pass (the full scan
  /// pass, the open loop, or the untraced serial pass).
  soteria::cfg::LabelingCache::Stats cache;
  soteria::cfg::LabelingCache::Stats untraced_cache;
  soteria::store::StoreStats store;
  OpenLoop serve;
  soteria::serve::ServiceStats serve_stats;
};

void report_layers(Result& result, const Tracer& tracer,
                   const LayerExtras& extras) {
  const auto layers = tracer.layer_times();
  const auto mean =
      [&](const std::string& name) -> std::pair<double, std::size_t> {
    const auto it = layers.find(name);
    if (it == layers.end()) return {0.0, 0};
    return {it->second.mean_ms(), it->second.calls};
  };
  const auto add_ms = [&](const std::string& metric, const std::string& span,
                          const std::string& note) {
    const auto [value, calls] = mean(span);
    result.add(metric, value, "ms", calls, note);
  };
  add_ms("frontend.decode_ms", "frontend.decode",
         "load_image + resolve_frontend().extract");
  add_ms("cfg.label_ms", "cfg.label", "label_both, uncached");
  add_ms("graph.centrality_ms", "graph.centrality",
         "centrality_scores, 1 thread");
  const std::uint64_t lookups = extras.cache.hits + extras.cache.misses;
  result.add("cfg.label_cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(extras.cache.hits) /
                                static_cast<double>(lookups),
             "ratio", lookups, "LabelingCache::stats after the workload pass");
  result.add("cfg.label_cache_lookups", static_cast<double>(lookups), "count",
             1, "base of cfg.label_cache_hit_ratio");
  add_ms("features.walks_ms", "features.walks",
         "labeled_walks, both labelings");
  add_ms("features.ngrams_ms", "features.ngrams", "count_grams per walk");
  add_ms("features.extract_ms", "features.extract",
         "FeaturePipeline::extract, labels cached");
  result.add("features.tfidf_ms",
             mean("features.extract").first - mean("features.walks").first -
                 mean("features.ngrams").first,
             "ms", mean("features.extract").second, "extract - walks - ngrams");
  add_ms("store.get_ms", "store.get", "FeatureStore::get (with key hash)");
  add_ms("store.put_ms", "store.put", "FeatureStore::put");
  const std::uint64_t store_lookups = extras.store.hits + extras.store.misses;
  result.add("store.hit_ratio",
             store_lookups == 0 ? 0.0
                                : static_cast<double>(extras.store.hits) /
                                      static_cast<double>(store_lookups),
             "ratio", store_lookups, "FeatureStore::stats");
  result.add("store.lookups", static_cast<double>(store_lookups), "count", 1,
             "base of store.hit_ratio");
  result.add("store.entry_kb",
             extras.store.entries == 0
                 ? 0.0
                 : static_cast<double>(extras.store.bytes) /
                       static_cast<double>(extras.store.entries) / 1024.0,
             "KB", extras.store.entries, "resident bytes / entries");
  add_ms("detector.score_ms", "detector.score",
         "AeDetector::sample_error(pooled_matrix)");
  add_ms("classifier.predict_ms", "classifier.predict",
         "FamilyClassifier::predict");

  const auto& stats = extras.serve_stats;
  result.add("serve.batch_size_mean",
             stats.batches == 0 ? 0.0
                                : static_cast<double>(stats.completed) /
                                      static_cast<double>(stats.batches),
             "count", stats.batches, "completed / drained batches");
  const double service_ms =
      extras.requests == 0
          ? 0.0
          : 1e3 * extras.untraced_s / static_cast<double>(extras.requests);
  result.add("serve.queue_wait_ms",
             median(extras.serve.latency_ms) - service_ms, "ms",
             extras.serve.latency_ms.size(),
             "open-loop p50 latency - serial single-verdict time");
  result.add("serve.rejected", static_cast<double>(stats.rejected), "count",
             1, "ServiceStats");
  result.add("serve.expired", static_cast<double>(stats.expired), "count", 1,
             "ServiceStats");
  result.add("gen.lag_p99_ms", tail_percentile(extras.serve.lag_ms).value,
             "ms", extras.serve.lag_ms.size(), "open-loop generator lateness");

  add_ms("train.fit_ms", "train.fit", "FeaturePipeline::fit");
  add_ms("train.extract_ms", "train.extract",
         "training + calibration FeaturePipeline::extract");
  add_ms("train.detector_ms", "train.detector", "AeDetector::train");
  add_ms("train.classifier_ms", "train.classifier",
         "FamilyClassifier::train");

  // Layer time inside verdict spans against the untraced serial pass.
  const double attributed = tracer.children_seconds("verdict");
  const double traced = tracer.total_seconds("verdict");
  result.add("trace.unattributed_share",
             extras.untraced_s <= 0.0
                 ? 0.0
                 : (extras.untraced_s - attributed) / extras.untraced_s,
             "ratio", extras.requests,
             "(untraced pass - layer spans) / untraced pass");
  result.add("trace.overhead_pct",
             extras.untraced_s <= 0.0
                 ? 0.0
                 : 100.0 * (traced - extras.untraced_s) / extras.untraced_s,
             "%", extras.requests, "traced verdict spans vs untraced pass");
}

/// Untraced serial passes (SoteriaSystem::analyze per request, one
/// thread) before and after the traced layer-by-layer pass over the
/// same requests, each from the same cache and store state; the
/// untraced time is their mean (so warm-up order favours neither side)
/// and all three passes must return the same verdicts.
void trace_verdicts(Tracer& tracer, Result& result,
                    const core::SoteriaSystem& system,
                    const std::vector<TraceRequest>& requests,
                    const std::function<std::shared_ptr<
                        soteria::store::FeatureStore>()>& make_store,
                    LayerExtras& extras,
                    std::vector<soteria::features::SampleFeatures>* kept) {
  const auto& cache = system.pipeline().labeling_cache();
  const auto untraced_pass = [&] {
    cache->clear();
    core::AnalyzeOptions options;
    options.num_threads = 1;
    options.feature_store = make_store();
    std::vector<core::Verdict> verdicts;
    const auto start = Clock::now();
    for (const auto& request : requests) {
      verdicts.push_back(
          request.image.empty()
              ? system.analyze(*request.cfg, request.rng, options)
              : system.analyze(decode(request.image), request.rng, options));
    }
    extras.untraced_s += 0.5 * seconds_since(start);
    return verdicts;
  };
  extras.untraced_s = 0.0;
  extras.requests = requests.size();
  const auto before = untraced_pass();
  extras.untraced_cache = cache->stats();

  cache->clear();
  std::vector<core::Verdict> traced;
  {
    const auto store = make_store();
    if (kept != nullptr) kept->resize(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      traced.push_back(traced_verdict(
          tracer, system, requests[i], static_cast<std::int64_t>(i),
          store.get(), kept != nullptr ? &(*kept)[i] : nullptr));
    }
  }
  const auto after = untraced_pass();

  result.attempt(3 * requests.size());
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    differ += same_verdict(traced[i], before[i]) &&
                      same_verdict(after[i], before[i])
                  ? 0
                  : 1;
  }
  if (differ > 0) {
    result.fail(std::to_string(differ) +
                    " traced or repeated verdicts differ from "
                    "SoteriaSystem::analyze",
                differ);
  }
}

/// A short open loop of `requests` through a fresh 2-worker service at
/// half the serial capacity the untraced pass measured.
void serve_probe(LayerExtras& extras, const RunOptions& options,
                 const std::shared_ptr<const core::SoteriaSystem>& system,
                 const std::vector<TraceRequest>& requests,
                 std::shared_ptr<soteria::store::FeatureStore> store) {
  system->pipeline().labeling_cache()->clear();
  std::vector<CfgPtr> cfgs;
  for (const auto& request : requests) {
    cfgs.push_back(std::make_shared<const Cfg>(
        request.image.empty() ? *request.cfg : decode(request.image)));
  }
  const double per_verdict_s =
      extras.untraced_s / static_cast<double>(requests.size());
  const double rate = 0.5 * static_cast<double>(kServeWorkers) / per_verdict_s;
  soteria::serve::AnalysisService service(
      system, service_config(options.seed, std::move(store)));
  extras.serve = run_open_loop(service, cfgs, {}, rate,
                               static_cast<double>(cfgs.size()) / rate,
                               cfgs.size());
  service.shutdown(soteria::serve::ShutdownPolicy::kDrain);
  extras.serve_stats = service.stats();
}

Result traced(const RunOptions& options) {
  Result result;
  Tracer tracer;
  LayerExtras extras;
  std::vector<TraceRequest> requests;
  const auto no_store = [] {
    return std::shared_ptr<soteria::store::FeatureStore>();
  };
  const auto fresh_store = [&] {
    return open_store(fresh_dir(options, "trace-store"));
  };

  if (options.workload == "scan-cold") {
    std::vector<Input> inputs;
    const auto setup = set_up(
        options, 1,
        [&](const ModelCorpus& corpus) {
          Rng rng(options.seed);
          inputs = make_mixed_inputs(corpus, MixOptions{}, rng);
        },
        [](const auto&, std::size_t) {}, [](const auto&, std::size_t) {});
    trace_training(tracer, setup.corpus, *setup.system, result);
    const auto rngs = walk_rngs(options.seed, inputs.size());
    const auto pass = scan_pass(*setup.system, inputs, rngs,
                                options.workdir + "/scan-store", result);
    extras.cache = pass.cache;
    extras.store = pass.store;
    for (std::size_t i = 0; i < std::min(kTraceSmall, inputs.size()); ++i) {
      requests.push_back({&inputs[i].cfg, inputs[i].image, rngs[i]});
    }
    trace_verdicts(tracer, result, *setup.system, requests, fresh_store,
                   extras, nullptr);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      probe_layers(tracer, *setup.system, requests[i],
                   static_cast<std::int64_t>(i), false);
    }
    serve_probe(extras, options, setup.system, requests, fresh_store());
  } else if (options.workload == "serve-replay") {
    Stream stream;
    const auto setup = set_up_stream(options, 1, stream, result,
                                     [](const auto&, std::size_t) {});
    trace_training(tracer, setup.corpus, *setup.system, result);
    auto store = open_store(stream.store_dir);
    setup.system->pipeline().labeling_cache()->clear();
    {
      soteria::serve::AnalysisService service(
          setup.system, service_config(options.seed, store));
      extras.serve = run_open_loop(service, stream.cfgs, stream.cold,
                                   kServeRate,
                                   std::min(3.0, options.seconds / 2.0));
      service.shutdown(soteria::serve::ShutdownPolicy::kDrain);
      extras.serve_stats = service.stats();
      check_service(result, extras.serve_stats, extras.serve.counts,
                    "open loop");
    }
    extras.store = store->stats();
    extras.cache = setup.system->pipeline().labeling_cache()->stats();
    const Rng base(options.seed);
    for (std::size_t id = 0; id < std::min(kTraceSmall, stream.cfgs.size());
         ++id) {
      requests.push_back({stream.cfgs[id].get(), {}, base.child(id)});
    }
    std::vector<soteria::features::SampleFeatures> features;
    trace_verdicts(tracer, result, *setup.system, requests,
                   [&] { return store; }, extras, &features);
    // Every request hits the store, so writes and decoding are off the
    // verdict path: time them on the same requests' features and binaries.
    const auto scratch = fresh_store();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto id = static_cast<std::int64_t>(i);
      probe_layers(tracer, *setup.system, requests[i], id, true);
      const Tracer::Scope root(tracer, "probe", id);
      {
        const Tracer::Scope span(tracer, "store.put", id);
        scratch->put(store_key(*setup.system, requests[i]), features[i]);
      }
      const auto& image = stream.inputs[i].image;
      if (!image.empty()) {
        const Tracer::Scope span(tracer, "frontend.decode", id);
        (void)decode(image);
      }
    }
    fs::remove_all(stream.store_dir);
  } else {
    std::vector<Cfg> inputs;
    const auto setup = set_up(
        options, 1,
        [&](const ModelCorpus&) {
          Rng rng(options.seed);
          inputs = make_firmware_inputs(kTraceLarge, rng);
        },
        [](const auto&, std::size_t) {}, [](const auto&, std::size_t) {});
    trace_training(tracer, setup.corpus, *setup.system, result);
    const auto rngs = walk_rngs(options.seed, inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      requests.push_back({&inputs[i], {}, rngs[i]});
    }
    std::vector<soteria::features::SampleFeatures> features;
    trace_verdicts(tracer, result, *setup.system, requests, no_store, extras,
                   &features);
    extras.cache = extras.untraced_cache;
    // No store and no binaries on this workload's path: time the store
    // on its features and the decoder on the training corpus's binaries.
    const auto store = fresh_store();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto id = static_cast<std::int64_t>(i);
      probe_layers(tracer, *setup.system, requests[i], id, false);
      const Tracer::Scope root(tracer, "probe", id);
      const auto key = store_key(*setup.system, requests[i]);
      {
        const Tracer::Scope span(tracer, "store.put", id);
        store->put(key, features[i]);
      }
      const Tracer::Scope span(tracer, "store.get", id);
      (void)store->get(key);
    }
    extras.store = store->stats();
    for (const auto& sample : setup.corpus.train) {
      const Tracer::Scope root(tracer, "probe");
      const Tracer::Scope span(tracer, "frontend.decode");
      (void)decode(sample.binary);
    }
    serve_probe(extras, options, setup.system, requests, nullptr);
  }

  report_layers(result, tracer, extras);
  const std::string dump = options.workdir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!tracer.write_json(dump, {{"workload", json_string(options.workload)},
                                {"seed", std::to_string(options.seed)}})) {
    result.fail("cannot write the span dump " + dump);
  }
  return result;
}

}  // namespace

std::size_t workload_threads(const std::string& workload) {
  if (workload == "scan-cold") return kScanColdThreads;
  if (workload == "serve-replay") return kServeWorkers;
  if (workload == "scan-large") return kScanLargeThreads;
  return 0;
}

Result run_workload(const RunOptions& options) {
  if (options.trace) return traced(options);
  if (options.workload == "scan-cold") return scan_cold(options);
  if (options.workload == "serve-replay") return serve_replay(options);
  return scan_large(options);
}

}  // namespace perfbench
