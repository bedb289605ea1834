#include "nn/optimizer.h"

#include <cmath>
#include <string>

#include "soteria/error.h"

namespace soteria::nn {

namespace {

// Moment decay rates and the denominator's stabilizer: Kingma & Ba's
// recommended settings. Every model to date trained with them, so a
// change here changes model bytes.
constexpr double kDecay1 = 0.9;
constexpr double kDecay2 = 0.999;
constexpr double kEps = 1e-8;

void check_binding(std::size_t bound, std::span<const ParamRef> params) {
  if (bound != 0 && bound != params.size()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Adam::step: parameter list size changed (" +
                      std::to_string(bound) + " -> " +
                      std::to_string(params.size()) + ")");
  }
  for (const auto& p : params) {
    if (p.value == nullptr || p.grad == nullptr) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Adam::step: null parameter");
    }
    if (p.value->size() != p.grad->size()) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Adam::step: parameter/gradient size mismatch");
    }
  }
}

}  // namespace

Adam::Adam(double learning_rate) : lr_(learning_rate) {
  if (learning_rate <= 0.0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Adam: learning rate must be positive");
  }
}

void Adam::step(std::span<const ParamRef> parameters) {
  check_binding(first_moment_.size(), parameters);
  if (first_moment_.empty()) {
    first_moment_.reserve(parameters.size());
    second_moment_.reserve(parameters.size());
    for (const auto& p : parameters) {
      first_moment_.emplace_back(p.value->size(), 0.0F);
      second_moment_.emplace_back(p.value->size(), 0.0F);
    }
  }
  ++timestep_;
  const double bias1 = 1.0 - std::pow(kDecay1, static_cast<double>(timestep_));
  const double bias2 = 1.0 - std::pow(kDecay2, static_cast<double>(timestep_));
  const auto step_size = static_cast<float>(lr_ * std::sqrt(bias2) / bias1);
  const auto b1 = static_cast<float>(kDecay1);
  const auto b2 = static_cast<float>(kDecay2);
  const auto eps = static_cast<float>(kEps);
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    auto value = parameters[i].value->data();
    const auto grad = parameters[i].grad->data();
    auto& m = first_moment_[i];
    auto& v = second_moment_[i];
    if (m.size() != value.size()) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Adam::step: parameter shape changed");
    }
    for (std::size_t j = 0; j < value.size(); ++j) {
      m[j] = b1 * m[j] + (1.0F - b1) * grad[j];
      v[j] = b2 * v[j] + (1.0F - b2) * grad[j] * grad[j];
      value[j] -= step_size * m[j] / (std::sqrt(v[j]) + eps);
    }
  }
}

}  // namespace soteria::nn
