#include "eval/roc.h"

#include <algorithm>

#include "soteria/error.h"

namespace soteria::eval {

namespace {

std::pair<double, double> score_range(std::span<const double> a,
                                      std::span<const double> b) {
  const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
  const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
  return {std::min(*a_min, *b_min), std::max(*a_max, *b_max)};
}

void require_nonempty(std::span<const double> positives,
                      std::span<const double> negatives,
                      const char* what) {
  if (positives.empty() || negatives.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string(what) + ": empty score set");
  }
}

double rate_above(std::span<const double> scores, double threshold) {
  std::size_t above = 0;
  for (double s : scores) above += s > threshold;
  return static_cast<double>(above) / static_cast<double>(scores.size());
}

}  // namespace

std::vector<RocPoint> roc_curve(std::span<const double> positive_scores,
                                std::span<const double> negative_scores,
                                std::size_t steps) {
  require_nonempty(positive_scores, negative_scores, "roc_curve");
  if (steps == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "roc_curve: steps must be > 0");
  }
  const auto [lo, hi] = score_range(positive_scores, negative_scores);
  std::vector<RocPoint> curve;
  curve.reserve(steps + 1);
  for (std::size_t i = 0; i <= steps; ++i) {
    RocPoint point;
    // Pin the endpoints exactly so rounding cannot place the last
    // threshold below the maximum score.
    point.threshold =
        i == steps ? hi
                   : lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(steps);
    point.true_positive_rate = rate_above(positive_scores, point.threshold);
    point.false_positive_rate =
        rate_above(negative_scores, point.threshold);
    curve.push_back(point);
  }
  return curve;
}

double auc(std::span<const double> positive_scores,
           std::span<const double> negative_scores) {
  require_nonempty(positive_scores, negative_scores, "auc");
  // Rank-based computation via sorted negatives: O((m+n) log n).
  std::vector<double> negatives(negative_scores.begin(),
                                negative_scores.end());
  std::sort(negatives.begin(), negatives.end());
  double wins = 0.0;
  for (double p : positive_scores) {
    const auto below = std::lower_bound(negatives.begin(), negatives.end(),
                                        p) -
                       negatives.begin();
    const auto not_above = std::upper_bound(negatives.begin(),
                                            negatives.end(), p) -
                           negatives.begin();
    const auto ties = not_above - below;
    wins += static_cast<double>(below) + 0.5 * static_cast<double>(ties);
  }
  return wins / (static_cast<double>(positive_scores.size()) *
                 static_cast<double>(negative_scores.size()));
}

double best_youden_threshold(std::span<const double> positive_scores,
                             std::span<const double> negative_scores,
                             std::size_t steps) {
  const auto curve = roc_curve(positive_scores, negative_scores, steps);
  double best_j = -2.0;
  double best_threshold = curve.front().threshold;
  for (const auto& point : curve) {
    const double j = point.true_positive_rate - point.false_positive_rate;
    if (j > best_j) {
      best_j = j;
      best_threshold = point.threshold;
    }
  }
  return best_threshold;
}

}  // namespace soteria::eval
