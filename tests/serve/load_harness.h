// Deterministic load-generator harness for the serving tests: seeded
// arrival patterns over a fixed CFG corpus, submitted through the
// AnalysisService, with the resulting verdict stream checked
// bit-exactly against a serial analyze_batch.
//
// The harness is header-only and allocation-light on purpose: the same
// code drives the 12-combination bit-identity sweep in
// load_harness_test.cpp and (by inclusion) any future soak test.
//
// Determinism: every pattern is a pure function of (seed, corpus size,
// request count). Submission happens from ONE thread in pattern order,
// with yield-retry on backpressure, so the accepted sequence — and
// therefore the dense request ids — is exactly the pattern order
// regardless of worker count or micro-batch size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cfg/cfg.h"
#include "math/rng.h"
#include "serve/service.h"
#include "soteria/error.h"

namespace soteria::serve::testing {

/// Seeded arrival patterns: which corpus entry each request presents.
enum class ArrivalPattern {
  /// Every request draws uniformly at random from the corpus — the
  /// steady-state storm where the caches stay warm.
  kUniformStorm,
  /// Requests arrive in runs of the same binary (burst length drawn
  /// from [1, 8]) — stresses micro-batch packing and the labeling and
  /// feature caches with repeated keys.
  kBursty,
  /// 80% of requests hammer one "hot" binary with the rest uniform —
  /// adversarially skewed keys: most micro-batches carry the same
  /// binary several times over.
  kSkewedHotKey,
};

/// The corpus indices requests present, in submission order. Pure
/// function of its arguments (no global state, no clock).
inline std::vector<std::size_t> arrival_indices(ArrivalPattern pattern,
                                                std::size_t corpus_size,
                                                std::size_t requests,
                                                std::uint64_t seed) {
  std::vector<std::size_t> indices;
  indices.reserve(requests);
  math::Rng rng(seed);
  switch (pattern) {
    case ArrivalPattern::kUniformStorm:
      for (std::size_t i = 0; i < requests; ++i) {
        indices.push_back(rng.index(corpus_size));
      }
      break;
    case ArrivalPattern::kBursty:
      while (indices.size() < requests) {
        const auto index = rng.index(corpus_size);
        const std::size_t burst = 1 + rng.index(8);
        for (std::size_t b = 0; b < burst && indices.size() < requests;
             ++b) {
          indices.push_back(index);
        }
      }
      break;
    case ArrivalPattern::kSkewedHotKey: {
      const std::size_t hot = rng.index(corpus_size);
      for (std::size_t i = 0; i < requests; ++i) {
        const bool hammer = rng.index(10) < 8;  // 80% hot key
        indices.push_back(hammer ? hot : rng.index(corpus_size));
      }
      break;
    }
  }
  return indices;
}

/// Submits `indices` through `service` from the calling thread in
/// order, spinning (yield) through kQueueFull backpressure so every
/// request is eventually accepted and the accepted order equals the
/// arrival order. Returns one accepted ticket per request, in
/// submission order.
inline std::vector<Ticket> submit_all(
    AnalysisService& service,
    const std::vector<std::shared_ptr<const cfg::Cfg>>& corpus,
    const std::vector<std::size_t>& indices) {
  std::vector<Ticket> tickets;
  tickets.reserve(indices.size());
  for (const std::size_t index : indices) {
    for (;;) {
      auto ticket = service.submit(corpus[index]);
      if (ticket.accepted()) {
        tickets.push_back(std::move(ticket));
        break;
      }
      // Backpressure is the only acceptable rejection mid-run; anything
      // else (kShuttingDown, ...) means the harness is misused.
      if (ticket.status != core::ErrorCode::kQueueFull) {
        throw core::Error(core::ErrorCode::kInternal,
                          "load harness: unexpected submit rejection");
      }
      std::this_thread::yield();
    }
  }
  return tickets;
}

}  // namespace soteria::serve::testing
