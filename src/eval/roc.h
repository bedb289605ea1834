// ROC analysis for score-based detectors: threshold sweeps and AUC.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace soteria::eval {

/// One point on the ROC curve.
struct RocPoint {
  double threshold = 0.0;
  double true_positive_rate = 0.0;   ///< positives scoring > threshold
  double false_positive_rate = 0.0;  ///< negatives scoring > threshold
};

/// Sweeps `steps`+1 evenly spaced thresholds across the combined score
/// range. `positive_scores` are the anomaly/attack scores (higher =
/// more anomalous), `negative_scores` the clean ones. Throws
/// core::Error{kInvalidArgument} if either set is empty or steps == 0.
[[nodiscard]] std::vector<RocPoint> roc_curve(
    std::span<const double> positive_scores,
    std::span<const double> negative_scores, std::size_t steps = 50);

/// Exact AUC by rank comparison (the probability that a random positive
/// outscores a random negative; ties count half). Throws
/// core::Error{kInvalidArgument} if either set is empty.
[[nodiscard]] double auc(std::span<const double> positive_scores,
                         std::span<const double> negative_scores);

/// The threshold whose TPR/FPR point maximizes Youden's J (TPR - FPR) —
/// a standard blind operating-point rule. Throws on empty inputs.
[[nodiscard]] double best_youden_threshold(
    std::span<const double> positive_scores,
    std::span<const double> negative_scores, std::size_t steps = 200);

}  // namespace soteria::eval
