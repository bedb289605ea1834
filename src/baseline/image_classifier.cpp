#include "baseline/image_classifier.h"

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/optimizer.h"
#include "soteria/error.h"

namespace soteria::baseline {

std::vector<float> ImageBaseline::to_image(
    std::span<const std::uint8_t> binary, std::size_t side) {
  if (binary.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ImageBaseline::to_image: empty binary");
  }
  if (side == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ImageBaseline::to_image: zero side");
  }
  const std::size_t pixels = side * side;
  std::vector<float> image(pixels);
  for (std::size_t p = 0; p < pixels; ++p) {
    // Nearest-neighbour resample of the byte stream onto the image.
    const std::size_t byte_index = p * binary.size() / pixels;
    image[p] = static_cast<float>(binary[byte_index]) / 255.0F;
  }
  return image;
}

ImageBaseline ImageBaseline::train(
    std::span<const dataset::Sample> training,
    const ImageBaselineConfig& config) {
  if (training.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ImageBaseline::train: empty training set");
  }
  nn::validate(config.training);
  if (config.image_side == 0 || config.hidden_units == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ImageBaselineConfig: zero dimension");
  }

  const std::size_t dim = config.image_side * config.image_side;
  math::Matrix features(training.size(), dim);
  std::vector<std::size_t> labels(training.size());
  for (std::size_t i = 0; i < training.size(); ++i) {
    if (training[i].binary.empty()) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "ImageBaseline::train: sample without a binary");
    }
    const auto image = to_image(training[i].binary, config.image_side);
    std::copy(image.begin(), image.end(), features.row(i).begin());
    labels[i] = dataset::family_index(training[i].family);
  }

  ImageBaseline baseline;
  baseline.config_ = config;
  math::Rng rng(config.seed);
  baseline.model_.emplace<nn::Dense>(dim, config.hidden_units, rng);
  baseline.model_.emplace<nn::Relu>();
  baseline.model_.emplace<nn::Dropout>(0.25, rng);
  baseline.model_.emplace<nn::Dense>(config.hidden_units,
                                     dataset::kFamilyCount, rng);

  nn::Adam optimizer(config.learning_rate);
  baseline.report_ = nn::train_classifier(
      baseline.model_, features, labels, optimizer, config.training, rng);
  return baseline;
}

dataset::Family ImageBaseline::predict(
    std::span<const std::uint8_t> binary) const {
  if (config_.image_side == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ImageBaseline: not trained");
  }
  const auto image = to_image(binary, config_.image_side);
  math::Matrix input(1, image.size());
  std::copy(image.begin(), image.end(), input.row(0).begin());
  const auto prediction = nn::argmax_rows(model_.infer(input));
  return dataset::family_from_index(prediction.front());
}

}  // namespace soteria::baseline
