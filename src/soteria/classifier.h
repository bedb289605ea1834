// Family classifier (paper Section III-C, Figs. 6-7): two CNNs — one
// over DBL feature vectors, one over LBL — with majority voting across
// all per-walk vectors. The class with the most argmax votes wins; vote
// ties are broken by summed softmax probability. `tally` runs each CNN
// once over all its vectors through Sequential::infer; `predict` stops
// counting once the winner is fixed and returns the same class.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "dataset/family.h"
#include "features/pipeline.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/cnn.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace soteria::core {

/// Per-labeling training data: rows of per-walk feature vectors with
/// one class label each.
struct LabeledVectors {
  math::Matrix features;             ///< n x vocabulary-size
  std::vector<std::size_t> labels;   ///< n class indices
};

/// Majority-vote tally over a sample's per-walk vectors, per class in
/// Family label order.
struct VoteTally {
  std::vector<std::size_t> votes =
      std::vector<std::size_t>(dataset::kFamilyCount, 0);
  /// Summed softmax probability per class (the vote tie-break).
  std::vector<double> probability_mass =
      std::vector<double>(dataset::kFamilyCount, 0.0);

  /// The class with the most votes; ties go to the larger mass.
  [[nodiscard]] dataset::Family winner() const;
};

class FamilyClassifier {
 public:
  /// Trains both CNNs. `config.input_length` is overridden per model by
  /// the corresponding feature width. Throws core::Error{kInvalidArgument} on
  /// empty inputs or label/row mismatch.
  static FamilyClassifier train(const LabeledVectors& dbl,
                                const LabeledVectors& lbl,
                                const nn::CnnConfig& config,
                                const nn::TrainConfig& training,
                                double learning_rate, math::Rng& rng);

  /// Majority-vote prediction over a sample's feature bundle, equal to
  /// `tally(features).winner()` for every input. Runs the DBL CNN over
  /// all DBL vectors, then the LBL CNN over LBL vectors two at a time,
  /// and stops once the leader's votes exceed the runner-up's plus the
  /// vectors left: no class can then catch it, and the probability-mass
  /// tie-break is never reached. Records the rows it ran as
  /// `soteria.classifier.rows`. Const and safe for concurrent callers.
  [[nodiscard]] dataset::Family predict(
      const features::SampleFeatures& features) const;

  /// The full count: runs both CNNs once over every DBL and LBL vector
  /// and tallies votes and probability mass. Const and safe for
  /// concurrent callers; does not touch the observability registry.
  [[nodiscard]] VoteTally tally(
      const features::SampleFeatures& features) const;

  /// Single-model per-sample prediction: majority vote within one
  /// labeling only (used for the Table VII ablation columns).
  [[nodiscard]] dataset::Family predict_dbl_only(
      const features::SampleFeatures& features) const;
  [[nodiscard]] dataset::Family predict_lbl_only(
      const features::SampleFeatures& features) const;

  /// Binary (de)serialization of both CNNs. `load` reads CNNs for
  /// DBL vectors of `dbl_length` and LBL vectors of `lbl_length`
  /// floats. It throws core::Error{kCorruptModel} on any corrupt
  /// stream, and before building either CNN when the stream's input
  /// lengths disagree or an architecture is invalid or needs more
  /// weights than the stream holds.
  void save(std::ostream& out) const;
  [[nodiscard]] static FamilyClassifier load(std::istream& in,
                                             std::size_t dbl_length,
                                             std::size_t lbl_length);

  /// Default-constructed untrained classifier; a placeholder until
  /// assigned from train().
  FamilyClassifier() = default;

 private:
  /// Accumulates votes and probability mass from one model over a run
  /// of vectors, in order. A vector's votes do not depend on the run it
  /// is counted in.
  static void accumulate(const nn::Sequential& model,
                         std::span<const std::vector<float>> vectors,
                         VoteTally& tally);

  nn::CnnConfig dbl_arch_;  ///< architectures actually built
  nn::CnnConfig lbl_arch_;
  nn::Sequential dbl_model_;
  nn::Sequential lbl_model_;
};

/// Packs per-walk vectors into a matrix (rows = vectors). Throws
/// core::Error{kInvalidArgument} on ragged input.
[[nodiscard]] math::Matrix pack_rows(
    const std::vector<std::vector<float>>& vectors);

}  // namespace soteria::core
