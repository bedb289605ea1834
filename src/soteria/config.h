// Top-level Soteria configuration: feature pipeline, detector, and
// classifier hyper-parameters in one place. Defaults are the paper's;
// the scale knobs exist because the reproduction runs on one CPU core
// (see DESIGN.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "features/pipeline.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/trainer.h"

namespace soteria::core {

/// End-to-end system configuration.
struct SoteriaConfig {
  /// Feature extraction (walks, grams, vocabulary size).
  features::PipelineConfig pipeline;

  /// Detector autoencoder. `input_dim` is overridden at training time
  /// with the fitted pipeline's combined dimension.
  nn::AutoencoderConfig autoencoder;

  /// Classifier CNNs. `input_length` is overridden at training time
  /// with the per-labeling vocabulary size; `classes` stays 4.
  nn::CnnConfig cnn;

  /// Training protocols (paper: 100 epochs, batch 128 for both).
  nn::TrainConfig detector_training = nn::make_train_config(100, 128);
  nn::TrainConfig classifier_training = nn::make_train_config(100, 128);

  /// Detection threshold Th = mean(RE) + alpha * stddev(RE); paper
  /// default alpha = 1 (Section IV-C.1).
  double detector_alpha = 1.0;

  /// Fraction of the training set held out from autoencoder fitting and
  /// used (with fresh walks) to calibrate the RE threshold, so Th
  /// reflects generalization error, not memorization. Stays within the
  /// paper's "80% training and validation" protocol.
  double calibration_fraction = 0.15;

  /// Adam learning rates.
  double detector_learning_rate = 1e-3;
  double classifier_learning_rate = 1e-3;

  /// How many of the per-walk vectors per sample feed classifier
  /// training (<= walks_per_labeling; lower = faster epochs). Prediction
  /// always votes over all walks.
  std::size_t training_vectors_per_sample = 10;

  /// Master seed for dataset-independent randomness (weights, dropout,
  /// walk draws during training).
  std::uint64_t seed = 42;

  /// Worker threads for the parallel phases (training feature
  /// extraction, pipeline fitting, analyze_batch). 0 = all hardware
  /// threads, 1 = serial fallback. Results are bit-identical at any
  /// setting: every sample draws from an RNG child derived from its
  /// index, never from a shared stream. Not persisted by save() —
  /// it describes the machine, not the model.
  std::size_t num_threads = 0;

  /// Capacity (entries) of the shared DBL/LBL labeling cache installed
  /// on the feature pipeline; 0 disables caching. Labeling is a pure
  /// function of CFG content, so the cache only removes re-derivation
  /// (fit -> extract -> calibrate relabel the same training CFGs) —
  /// results are bit-identical with the cache on or off. Like
  /// num_threads, not persisted by save(). Memory per entry is
  /// O(nodes + edges) of the cached CFG.
  std::size_t labeling_cache_capacity = 512;
};

/// Throws core::Error{kInvalidArgument} if any nested config or knob is
/// invalid.
void validate(const SoteriaConfig& config);

}  // namespace soteria::core
