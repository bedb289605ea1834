#include "soteria/detector.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "io/binary_io.h"
#include "math/stats.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::core {

AeDetector AeDetector::train(const math::Matrix& clean_features,
                             const math::Matrix& calibration_features,
                             const nn::AutoencoderConfig& config,
                             const nn::TrainConfig& training, double alpha,
                             double learning_rate, math::Rng& rng) {
  if (clean_features.rows() == 0 || clean_features.cols() == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::train: empty feature matrix");
  }
  if (calibration_features.rows() == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::train: empty calibration set");
  }
  if (calibration_features.cols() != clean_features.cols()) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::train: calibration width mismatch");
  }
  if (calibration_features.rows() < 4) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::train: need at least 4 calibration rows");
  }
  if (alpha < 0.0) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::train: negative alpha");
  }
  const obs::Span span("detector.train");

  nn::AutoencoderConfig arch = config;
  arch.input_dim = clean_features.cols();

  AeDetector detector;
  detector.arch_ = arch;
  detector.model_ = nn::build_autoencoder(arch, rng);
  nn::Adam optimizer(learning_rate);
  detector.report_ = nn::train_regression(detector.model_, clean_features,
                                          clean_features, optimizer,
                                          training, rng);
  const std::size_t dim = clean_features.cols();

  // Calibration split A: per-dimension residual statistics.
  const std::size_t half = calibration_features.rows() / 2;
  const math::Matrix part_a = nn::gather_rows(
      calibration_features, [&] {
        std::vector<std::size_t> idx(half);
        for (std::size_t i = 0; i < half; ++i) idx[i] = i;
        return idx;
      }());
  const math::Matrix reconstructed_a = detector.model_.infer(part_a);
  detector.residual_mean_.assign(dim, 0.0);
  detector.residual_stddev_.assign(dim, 0.0);
  for (std::size_t r = 0; r < part_a.rows(); ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      detector.residual_mean_[c] +=
          static_cast<double>(reconstructed_a(r, c)) - part_a(r, c);
    }
  }
  const auto n_a = static_cast<double>(part_a.rows());
  for (double& v : detector.residual_mean_) v /= n_a;
  for (std::size_t r = 0; r < part_a.rows(); ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const double d = static_cast<double>(reconstructed_a(r, c)) -
                       part_a(r, c) - detector.residual_mean_[c];
      detector.residual_stddev_[c] += d * d;
    }
  }
  for (double& v : detector.residual_stddev_) {
    v = std::sqrt(v / n_a) + 1e-6;
  }

  // Calibration split B: score distribution -> threshold.
  const math::Matrix part_b = nn::gather_rows(
      calibration_features, [&] {
        std::vector<std::size_t> idx(calibration_features.rows() - half);
        for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = half + i;
        return idx;
      }());
  const auto calibration_scores = detector.scores(part_b);
  detector.mean_ = math::mean(calibration_scores);
  detector.stddev_ = math::stddev(calibration_scores);
  // Degenerate calibration must collapse the threshold to the mean,
  // never to NaN. All-identical scores are forced to sigma = 0 exactly
  // (the mean of n copies of x can differ from x by an ulp, leaving a
  // spurious ~1e-17 deviation), and a non-finite or non-positive sigma
  // is discarded.
  if (math::min(calibration_scores) == math::max(calibration_scores)) {
    detector.stddev_ = 0.0;
  }
  if (!std::isfinite(detector.stddev_) || detector.stddev_ <= 0.0) {
    detector.stddev_ = 0.0;
  }
  detector.alpha_ = alpha;
  detector.threshold_ = detector.mean_ + alpha * detector.stddev_;
  return detector;
}

std::vector<double> AeDetector::scores(
    const math::Matrix& features) const {
  if (residual_stddev_.empty()) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::scores: detector not calibrated");
  }
  if (features.cols() != residual_stddev_.size()) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::scores: width mismatch");
  }
  const obs::Span span("detector.score");
  const math::Matrix reconstructed = model_.infer(features);
  std::vector<double> out(features.rows(), 0.0);
  for (std::size_t r = 0; r < features.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < features.cols(); ++c) {
      const double z = (static_cast<double>(reconstructed(r, c)) -
                        features(r, c) - residual_mean_[c]) /
                       residual_stddev_[c];
      acc += z * z;
    }
    out[r] = std::sqrt(acc / static_cast<double>(features.cols()));
    obs::registry().record("soteria.detector.score", out[r]);
  }
  return out;
}

std::vector<double> AeDetector::reconstruction_errors(
    const math::Matrix& features) const {
  return nn::row_rmse(model_.infer(features), features);
}

double AeDetector::sample_error(
    const math::Matrix& sample_vectors) const {
  if (sample_vectors.rows() == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::sample_error: empty sample");
  }
  const auto sample_scores = scores(sample_vectors);
  return math::mean(sample_scores);
}

void AeDetector::set_alpha(double alpha) {
  if (alpha < 0.0) {
    throw Error(ErrorCode::kInvalidArgument,
                "AeDetector::set_alpha: negative alpha");
  }
  alpha_ = alpha;
  threshold_ = mean_ + alpha * stddev_;
}

void AeDetector::save(std::ostream& out) const {
  io::write_scalar<std::uint64_t>(out, arch_.input_dim);
  io::write_vector<std::size_t>(out, arch_.hidden_dims);
  io::write_scalar(out, arch_.width_scale);
  io::write_vector<double>(out, residual_mean_);
  io::write_vector<double>(out, residual_stddev_);
  io::write_scalar(out, mean_);
  io::write_scalar(out, stddev_);
  io::write_scalar(out, alpha_);
  io::write_vector<double>(out, report_.epoch_losses);
  model_.save_parameters(out);
}

namespace {

// Floats (weights and biases) in the autoencoder build_autoencoder
// makes from a validated `arch`, counted in double so that a corrupt
// width cannot overflow the count.
double parameter_floats(const nn::AutoencoderConfig& arch) {
  double floats = 0.0;
  double width = static_cast<double>(arch.input_dim);
  for (const std::size_t hidden : arch.hidden_dims) {
    const double scaled =
        std::max(8.0, std::round(static_cast<double>(hidden) *
                                 arch.width_scale));
    floats += (width + 1.0) * scaled;
    width = scaled;
  }
  return floats + (width + 1.0) * static_cast<double>(arch.input_dim);
}

}  // namespace

AeDetector AeDetector::load(std::istream& in, std::size_t input_dim) {
  AeDetector detector;
  detector.arch_.input_dim =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  detector.arch_.hidden_dims = io::read_vector<std::size_t>(in);
  detector.arch_.width_scale = io::read_scalar<double>(in);
  detector.residual_mean_ = io::read_vector<double>(in);
  detector.residual_stddev_ = io::read_vector<double>(in);
  detector.mean_ = io::read_scalar<double>(in);
  detector.stddev_ = io::read_scalar<double>(in);
  detector.alpha_ = io::read_scalar<double>(in);
  detector.threshold_ = detector.mean_ + detector.alpha_ * detector.stddev_;
  detector.report_.epoch_losses = io::read_vector<double>(in);
  if (detector.arch_.input_dim != input_dim) {
    throw Error(ErrorCode::kCorruptModel,
                "AeDetector::load: input width " +
                    std::to_string(detector.arch_.input_dim) + " != " +
                    std::to_string(input_dim));
  }
  if (detector.residual_mean_.size() != input_dim ||
      detector.residual_stddev_.size() != input_dim) {
    throw Error(ErrorCode::kCorruptModel,
                "AeDetector::load: residual statistics size mismatch");
  }
  try {
    nn::validate(detector.arch_);
  } catch (const Error& e) {
    throw Error(ErrorCode::kCorruptModel,
                std::string("AeDetector::load: ") + e.what());
  }
  // The weights follow as float32s. An architecture that needs more of
  // them than the stream holds is corrupt; rejecting it here keeps a
  // corrupt width from allocating a net the stream cannot fill.
  if (parameter_floats(detector.arch_) * sizeof(float) > io::bytes_left(in)) {
    throw Error(ErrorCode::kCorruptModel,
                "AeDetector::load: architecture larger than the stream");
  }
  math::Rng scratch(0);  // weights are overwritten by load_parameters
  detector.model_ = nn::build_autoencoder(detector.arch_, scratch);
  detector.model_.load_parameters(in);
  return detector;
}

}  // namespace soteria::core
