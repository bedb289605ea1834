#include "nn/trainer.h"

#include <algorithm>
#include <string>

#include "nn/loss.h"
#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::nn {

void validate(const TrainConfig& config) {
  if (config.epochs == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "TrainConfig: epochs must be > 0");
  }
  if (config.batch_size == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "TrainConfig: batch size must be > 0");
  }
}

TrainConfig make_train_config(std::size_t epochs, std::size_t batch_size) {
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch_size;
  return config;
}

namespace {

// Shared epoch loop: `run_batch` maps a row-index batch to its loss.
// The caller has validated the config and a non-empty dataset.
template <typename BatchFn>
TrainReport epoch_loop(std::size_t sample_count, const TrainConfig& config,
                       math::Rng& rng, BatchFn&& run_batch) {
  std::vector<std::size_t> order(sample_count);
  for (std::size_t i = 0; i < sample_count; ++i) order[i] = i;

  TrainReport report;
  report.epoch_losses.reserve(config.epochs);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const obs::Span epoch_span("nn.epoch");
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < sample_count;
         start += config.batch_size) {
      const std::size_t end =
          std::min(start + config.batch_size, sample_count);
      const std::span<const std::size_t> batch(order.data() + start,
                                               end - start);
      loss_sum += run_batch(batch);
      ++batches;
    }
    const double epoch_loss = loss_sum / static_cast<double>(batches);
    report.epoch_losses.push_back(epoch_loss);
    obs::registry().counter_add("soteria.nn.epochs");
    obs::registry().gauge_set("soteria.nn.loss", epoch_loss);
  }
  return report;
}

// Validates the config and dataset, then returns the largest batch.
std::size_t max_batch_rows(std::size_t sample_count,
                           const TrainConfig& config) {
  validate(config);
  if (sample_count == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "train: empty dataset");
  }
  return std::min(config.batch_size, sample_count);
}

// Copies the selected rows of `m` into `out` (rows.size() x m.cols()).
void gather_rows_into(const math::Matrix& m,
                      std::span<const std::size_t> rows, float* out) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto src = m.row(rows[i]);
    std::copy(src.begin(), src.end(), out + i * m.cols());
  }
}

}  // namespace

TrainReport train_regression(Sequential& model, const math::Matrix& inputs,
                             const math::Matrix& targets,
                             Adam& optimizer, const TrainConfig& config,
                             math::Rng& rng) {
  if (inputs.rows() != targets.rows()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "train_regression: row count mismatch");
  }
  const std::size_t max_rows = max_batch_rows(inputs.rows(), config);
  TrainingWorkspace workspace(model, inputs.cols(), max_rows);
  if (workspace.output_width() != targets.cols()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "train_regression: target width " +
                      std::to_string(targets.cols()) +
                      " != model output width " +
                      std::to_string(workspace.output_width()));
  }
  std::vector<float> batch_targets(max_rows * targets.cols());
  std::vector<float> grad(max_rows * targets.cols());
  const auto params = model.parameters();
  return epoch_loop(
      inputs.rows(), config, rng,
      [&](std::span<const std::size_t> batch) {
        gather_rows_into(inputs, batch, workspace.input());
        gather_rows_into(targets, batch, batch_targets.data());
        model.zero_gradients();
        const float* pred = workspace.forward(batch.size());
        const double loss =
            mse_loss_into(pred, batch_targets.data(),
                          batch.size() * targets.cols(), grad.data());
        workspace.backward(grad.data());
        optimizer.step(params);
        return loss;
      });
}

TrainReport train_classifier(Sequential& model, const math::Matrix& inputs,
                             std::span<const std::size_t> labels,
                             Adam& optimizer, const TrainConfig& config,
                             math::Rng& rng) {
  if (inputs.rows() != labels.size()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "train_classifier: label count mismatch");
  }
  const std::size_t max_rows = max_batch_rows(inputs.rows(), config);
  TrainingWorkspace workspace(model, inputs.cols(), max_rows);
  const std::size_t classes = workspace.output_width();
  std::vector<std::size_t> batch_labels(max_rows);
  std::vector<float> grad(max_rows * classes);
  const auto params = model.parameters();
  return epoch_loop(
      inputs.rows(), config, rng,
      [&](std::span<const std::size_t> batch) {
        gather_rows_into(inputs, batch, workspace.input());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch_labels[i] = labels[batch[i]];
        }
        model.zero_gradients();
        const float* logits = workspace.forward(batch.size());
        const double loss = softmax_cross_entropy_into(
            logits, classes,
            std::span<const std::size_t>(batch_labels.data(), batch.size()),
            grad.data());
        workspace.backward(grad.data());
        optimizer.step(params);
        return loss;
      });
}

std::vector<std::size_t> argmax_rows(const math::Matrix& m) {
  std::vector<std::size_t> result(m.rows(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    result[r] = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return result;
}

math::Matrix gather_rows(const math::Matrix& m,
                         std::span<const std::size_t> rows) {
  for (const std::size_t r : rows) {
    if (r >= m.rows()) {
      throw core::Error(core::ErrorCode::kOutOfRange,
                        "gather_rows: row index out of range");
    }
  }
  math::Matrix out(rows.size(), m.cols());
  gather_rows_into(m, rows, out.data().data());
  return out;
}

}  // namespace soteria::nn
