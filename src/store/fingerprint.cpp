#include "store/fingerprint.h"

#include <sstream>
#include <string>

#include "features/pipeline.h"
#include "io/binary_io.h"

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
///   The labeling block inside the blob is a reserved constant now
///   that labeling is always exact (features/pipeline.cpp); it holds
///   the same 40 bytes every exact model wrote, so the layout and the
///   v3 keys are unchanged.
constexpr std::uint64_t kFingerprintVersion = 3;

}  // namespace

PipelineFingerprint fingerprint_of(
    const features::FeaturePipeline& pipeline) {
  // The pipeline's own serialization already covers exactly the state
  // that determines feature output: walk config, gram sizes, top_k,
  // normalization flag, and both vocabularies with their IDF tables.
  std::ostringstream bytes(std::ios::binary);
  pipeline.save(bytes);
  const std::string blob = bytes.str();

  const std::uint64_t version = kFingerprintVersion;
  const std::uint64_t hash = io::fnv1a(&version, sizeof(version));
  return PipelineFingerprint{io::fnv1a(blob.data(), blob.size(), hash)};
}

}  // namespace soteria::store
