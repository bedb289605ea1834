#include "store/fingerprint.h"

#include <sstream>
#include <string>

#include "features/pipeline.h"

namespace soteria::store {

namespace {

/// Bumped whenever anything that determines feature bytes changes
/// meaning — the fingerprint derivation, the serialized pipeline
/// layout it hashes, or the numeric routine that turns counts into
/// vectors — so stores written by an older scheme miss instead of
/// serving bundles the current build would not reproduce bit-for-bit.
///   v1: original double-precision TF-IDF accumulation.
///   v2: TF-IDF arithmetic moved to float throughout (then a
///       map-based Vocabulary::tfidf_into; today's dense overload over
///       rows counted through the vocabulary's GramAutomaton sees the
///       same counts and totals and does the same float operations, so
///       v2 bundles still hit); persisted v1 bundles differ in the low
///       mantissa bits, so they must not hit.
///   v3: serialized pipeline blob grew the front-end name
///       (PipelineConfig::frontend) — CFGs now come from pluggable
///       decoders, and entries keyed under the v2 layout predate that
///       distinction.
constexpr std::uint64_t kFingerprintVersion = 3;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t hash, const char* data,
                    std::size_t size) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

PipelineFingerprint fingerprint_of(
    const features::FeaturePipeline& pipeline) {
  // The pipeline's own serialization already covers exactly the state
  // that determines feature output: walk config, gram sizes, top_k,
  // normalization flag, and both vocabularies with their IDF tables.
  std::ostringstream bytes(std::ios::binary);
  pipeline.save(bytes);
  const std::string blob = bytes.str();

  std::uint64_t hash = kFnvOffset;
  const std::uint64_t version = kFingerprintVersion;
  hash = fnv1a(hash, reinterpret_cast<const char*>(&version),
               sizeof(version));
  hash = fnv1a(hash, blob.data(), blob.size());
  return PipelineFingerprint{hash};
}

}  // namespace soteria::store
