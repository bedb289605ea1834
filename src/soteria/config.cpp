#include "soteria/config.h"

#include "frontend/frontend.h"
#include "runtime/thread_pool.h"
#include "soteria/error.h"

namespace soteria::core {

void validate(const SoteriaConfig& config) {
  features::validate(config.pipeline);
  nn::validate(config.autoencoder);
  nn::validate(config.cnn);
  nn::validate(config.detector_training);
  nn::validate(config.classifier_training);
  if (config.detector_alpha < 0.0) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaConfig: negative detector_alpha");
  }
  if (!(config.calibration_fraction > 0.0) ||
      !(config.calibration_fraction < 1.0)) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaConfig: calibration_fraction outside (0, 1)");
  }
  if (config.detector_learning_rate <= 0.0 ||
      config.classifier_learning_rate <= 0.0) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaConfig: learning rates must be positive");
  }
  if (config.training_vectors_per_sample == 0 ||
      config.training_vectors_per_sample >
          config.pipeline.walk.walks_per_labeling) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaConfig: training_vectors_per_sample outside [1, "
                "walks_per_labeling]");
  }
  if (config.num_threads > runtime::kMaxThreads) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaConfig: num_threads exceeds " +
                std::to_string(runtime::kMaxThreads));
  }
  if (frontend::FrontendRegistry::builtin().find(config.pipeline.frontend) ==
      nullptr) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaConfig: unknown frontend \"" +
                config.pipeline.frontend + "\"");
  }
}

}  // namespace soteria::core
