#include "eval/metrics.h"

#include "soteria/error.h"

namespace soteria::eval {

ConfusionMatrix::ConfusionMatrix(std::size_t classes)
    : classes_(classes), counts_(classes * classes, 0) {
  if (classes == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ConfusionMatrix: zero classes");
  }
}

void ConfusionMatrix::record(std::size_t truth, std::size_t prediction) {
  if (truth >= classes_ || prediction >= classes_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "ConfusionMatrix::record: label out of range");
  }
  ++counts_[truth * classes_ + prediction];
  ++total_;
}

std::size_t ConfusionMatrix::count(std::size_t truth,
                                   std::size_t prediction) const {
  if (truth >= classes_ || prediction >= classes_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "ConfusionMatrix::count: label out of range");
  }
  return counts_[truth * classes_ + prediction];
}

std::size_t ConfusionMatrix::class_total(std::size_t truth) const {
  if (truth >= classes_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "ConfusionMatrix::class_total: label out of "
                      "range");
  }
  std::size_t sum = 0;
  for (std::size_t p = 0; p < classes_; ++p) {
    sum += counts_[truth * classes_ + p];
  }
  return sum;
}

double ConfusionMatrix::class_accuracy(std::size_t truth) const {
  const std::size_t total = class_total(truth);
  if (total == 0) return 0.0;
  return static_cast<double>(count(truth, truth)) /
         static_cast<double>(total);
}

double ConfusionMatrix::overall_accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t trace = 0;
  for (std::size_t c = 0; c < classes_; ++c) {
    trace += counts_[c * classes_ + c];
  }
  return static_cast<double>(trace) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(std::size_t c) const {
  if (c >= classes_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "ConfusionMatrix::precision: label out of "
                      "range");
  }
  std::size_t predicted = 0;
  for (std::size_t t = 0; t < classes_; ++t) {
    predicted += counts_[t * classes_ + c];
  }
  if (predicted == 0) return 0.0;
  return static_cast<double>(count(c, c)) / static_cast<double>(predicted);
}

double ConfusionMatrix::recall(std::size_t c) const {
  return class_accuracy(c);
}

double ConfusionMatrix::f1(std::size_t c) const {
  const double p = precision(c);
  const double r = recall(c);
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double DetectionStats::detection_rate() const noexcept {
  const std::size_t aes = true_positives + false_negatives;
  if (aes == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(aes);
}

double DetectionStats::false_positive_rate() const noexcept {
  const std::size_t clean = true_negatives + false_positives;
  if (clean == 0) return 0.0;
  return static_cast<double>(false_positives) / static_cast<double>(clean);
}

double DetectionStats::accuracy() const noexcept {
  const std::size_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(true_positives + true_negatives) /
         static_cast<double>(n);
}

}  // namespace soteria::eval
