// Classification metrics: confusion matrix, per-class and overall
// accuracy, precision/recall/F1.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace soteria::eval {

/// Square confusion matrix over `classes` labels; rows = truth,
/// columns = prediction.
class ConfusionMatrix {
 public:
  /// Throws core::Error{kInvalidArgument} for zero classes.
  explicit ConfusionMatrix(std::size_t classes);

  /// Records one (truth, prediction) observation. Throws
  /// core::Error{kOutOfRange} for labels >= classes.
  void record(std::size_t truth, std::size_t prediction);

  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
  [[nodiscard]] std::size_t count(std::size_t truth,
                                  std::size_t prediction) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

  /// Samples whose truth is `c`.
  [[nodiscard]] std::size_t class_total(std::size_t truth) const;

  /// Fraction of class-c samples predicted as c; 0 when the class is
  /// empty.
  [[nodiscard]] double class_accuracy(std::size_t truth) const;

  /// Overall accuracy (trace / total); 0 when empty.
  [[nodiscard]] double overall_accuracy() const;

  /// Precision/recall/F1 for one class (one-vs-rest); 0 where undefined.
  [[nodiscard]] double precision(std::size_t c) const;
  [[nodiscard]] double recall(std::size_t c) const;
  [[nodiscard]] double f1(std::size_t c) const;

 private:
  std::size_t classes_;
  std::size_t total_ = 0;
  std::vector<std::size_t> counts_;  // classes_ x classes_, row-major
};

/// Binary detection counts (for the AE detector).
struct DetectionStats {
  std::size_t true_positives = 0;   ///< AEs flagged as AE
  std::size_t false_negatives = 0;  ///< AEs passed as clean
  std::size_t true_negatives = 0;   ///< clean passed as clean
  std::size_t false_positives = 0;  ///< clean flagged as AE

  [[nodiscard]] std::size_t total() const noexcept {
    return true_positives + false_negatives + true_negatives +
           false_positives;
  }
  /// Detection rate over AEs (TP / (TP + FN)); 0 when no AEs seen.
  [[nodiscard]] double detection_rate() const noexcept;
  /// False-positive rate over clean samples; 0 when no clean seen.
  [[nodiscard]] double false_positive_rate() const noexcept;
  /// Overall accuracy.
  [[nodiscard]] double accuracy() const noexcept;
};

}  // namespace soteria::eval
