#include "soteria/classifier.h"

#include <algorithm>
#include <string>

#include "io/binary_io.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::core {

namespace {

math::Matrix pack(std::span<const std::vector<float>> vectors) {
  if (vectors.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "pack_rows: no vectors");
  }
  const std::size_t width = vectors.front().size();
  math::Matrix m(vectors.size(), width);
  for (std::size_t r = 0; r < vectors.size(); ++r) {
    if (vectors[r].size() != width) {
      throw Error(ErrorCode::kInvalidArgument,
                  "pack_rows: ragged vector widths");
    }
    std::copy(vectors[r].begin(), vectors[r].end(), m.row(r).begin());
  }
  return m;
}

nn::Sequential train_one(const LabeledVectors& data,
                         const nn::CnnConfig& config,
                         const nn::TrainConfig& training,
                         double learning_rate, math::Rng& rng,
                         nn::CnnConfig& arch_out) {
  if (data.features.rows() == 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "FamilyClassifier: empty training data");
  }
  if (data.features.rows() != data.labels.size()) {
    throw Error(ErrorCode::kInvalidArgument,
                "FamilyClassifier: feature/label count mismatch");
  }
  nn::CnnConfig arch = config;
  arch.input_length = data.features.cols();
  arch_out = arch;
  nn::Sequential model = nn::build_cnn(arch, rng);
  nn::Adam optimizer(learning_rate);
  nn::train_classifier(model, data.features, data.labels, optimizer, training,
                       rng);
  return model;
}

void save_cnn_arch(std::ostream& out, const nn::CnnConfig& arch) {
  io::write_scalar<std::uint64_t>(out, arch.input_length);
  io::write_scalar<std::uint64_t>(out, arch.classes);
  io::write_scalar<std::uint64_t>(out, arch.filters);
  io::write_scalar<std::uint64_t>(out, arch.kernel);
  io::write_scalar<std::uint64_t>(out, arch.dense_units);
  io::write_scalar(out, arch.conv_dropout);
  io::write_scalar(out, arch.dense_dropout);
}

nn::CnnConfig load_cnn_arch(std::istream& in) {
  nn::CnnConfig arch;
  arch.input_length =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.classes = static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.filters = static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.kernel = static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.dense_units =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  arch.conv_dropout = io::read_scalar<double>(in);
  arch.dense_dropout = io::read_scalar<double>(in);
  return arch;
}

// Floats (weights and biases) in the CNN build_cnn makes from a
// validated `arch`, counted in double so that a corrupt width cannot
// overflow the count.
double parameter_floats(const nn::CnnConfig& arch) {
  const auto filters = static_cast<double>(arch.filters);
  double floats = 0.0;
  double channels = 1.0;
  std::size_t length = arch.input_length;
  for (int block = 0; block < 2; ++block) {
    for (int conv = 0; conv < 2; ++conv) {
      floats += (channels * static_cast<double>(arch.kernel) + 1.0) * filters;
      channels = filters;
      length = length - arch.kernel + 1;
    }
    length /= 2;
  }
  const auto dense = static_cast<double>(arch.dense_units);
  floats += (channels * static_cast<double>(length) + 1.0) * dense;
  return floats + (dense + 1.0) * static_cast<double>(arch.classes);
}

}  // namespace

math::Matrix pack_rows(const std::vector<std::vector<float>>& vectors) {
  return pack(vectors);
}

FamilyClassifier FamilyClassifier::train(const LabeledVectors& dbl,
                                         const LabeledVectors& lbl,
                                         const nn::CnnConfig& config,
                                         const nn::TrainConfig& training,
                                         double learning_rate,
                                         math::Rng& rng) {
  const obs::Span span("classifier.train");
  FamilyClassifier classifier;
  classifier.dbl_model_ =
      train_one(dbl, config, training, learning_rate, rng,
                classifier.dbl_arch_);
  classifier.lbl_model_ =
      train_one(lbl, config, training, learning_rate, rng,
                classifier.lbl_arch_);
  return classifier;
}

void FamilyClassifier::save(std::ostream& out) const {
  save_cnn_arch(out, dbl_arch_);
  save_cnn_arch(out, lbl_arch_);
  dbl_model_.save_parameters(out);
  lbl_model_.save_parameters(out);
}

FamilyClassifier FamilyClassifier::load(std::istream& in,
                                        std::size_t dbl_length,
                                        std::size_t lbl_length) {
  FamilyClassifier classifier;
  classifier.dbl_arch_ = load_cnn_arch(in);
  classifier.lbl_arch_ = load_cnn_arch(in);
  if (classifier.dbl_arch_.input_length != dbl_length ||
      classifier.lbl_arch_.input_length != lbl_length) {
    throw Error(ErrorCode::kCorruptModel,
                "FamilyClassifier::load: CNN input lengths " +
                    std::to_string(classifier.dbl_arch_.input_length) + "/" +
                    std::to_string(classifier.lbl_arch_.input_length) +
                    " != vocabulary sizes " + std::to_string(dbl_length) +
                    "/" + std::to_string(lbl_length));
  }
  for (const nn::CnnConfig* arch :
       {&classifier.dbl_arch_, &classifier.lbl_arch_}) {
    try {
      nn::validate(*arch);
    } catch (const Error& e) {
      throw Error(ErrorCode::kCorruptModel,
                  std::string("FamilyClassifier::load: ") + e.what());
    }
  }
  // The weights of both CNNs follow as float32s. Architectures that need
  // more of them than the stream holds are corrupt; rejecting them here
  // keeps a corrupt width from allocating nets the stream cannot fill.
  if ((parameter_floats(classifier.dbl_arch_) +
       parameter_floats(classifier.lbl_arch_)) *
          sizeof(float) >
      io::bytes_left(in)) {
    throw Error(ErrorCode::kCorruptModel,
                "FamilyClassifier::load: architecture larger than the "
                "stream");
  }
  math::Rng scratch(0);  // weights are overwritten by load_parameters
  classifier.dbl_model_ = nn::build_cnn(classifier.dbl_arch_, scratch);
  classifier.lbl_model_ = nn::build_cnn(classifier.lbl_arch_, scratch);
  classifier.dbl_model_.load_parameters(in);
  classifier.lbl_model_.load_parameters(in);
  return classifier;
}

void FamilyClassifier::accumulate(
    const nn::Sequential& model, std::span<const std::vector<float>> vectors,
    VoteTally& tally) {
  if (vectors.empty()) return;
  const math::Matrix probs = nn::softmax(model.infer(pack(vectors)));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    const auto row = probs.row(r);
    const auto best = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
    ++tally.votes[best];
    for (std::size_t c = 0; c < row.size(); ++c) {
      tally.probability_mass[c] += row[c];
    }
  }
}

dataset::Family VoteTally::winner() const {
  std::size_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] &&
         probability_mass[c] > probability_mass[best])) {
      best = c;
    }
  }
  return dataset::family_from_index(best);
}

namespace {

/// LBL rows per CNN call once DBL's rows are counted: a vote decided at
/// row 11 or 12 stops after one call.
constexpr std::size_t kLblChunk = 2;

/// True once no class can catch the leader: its votes exceed every
/// other class's votes plus `rows_left`, so neither more votes nor the
/// probability-mass tie-break can change the winner.
bool decided(const std::vector<std::size_t>& votes, std::size_t rows_left) {
  std::size_t top = 0;
  std::size_t second = 0;
  for (const std::size_t v : votes) {
    if (v > top) {
      second = top;
      top = v;
    } else if (v > second) {
      second = v;
    }
  }
  return top > second + rows_left;
}

}  // namespace

VoteTally FamilyClassifier::tally(
    const features::SampleFeatures& features) const {
  VoteTally tally;
  accumulate(dbl_model_, features.dbl, tally);
  accumulate(lbl_model_, features.lbl, tally);
  return tally;
}

dataset::Family FamilyClassifier::predict(
    const features::SampleFeatures& features) const {
  const obs::Span span("classifier.predict");
  VoteTally tallied;
  accumulate(dbl_model_, features.dbl, tallied);
  const std::span<const std::vector<float>> lbl(features.lbl);
  std::size_t done = 0;
  while (done < lbl.size() && !decided(tallied.votes, lbl.size() - done)) {
    const std::size_t chunk = std::min(kLblChunk, lbl.size() - done);
    accumulate(lbl_model_, lbl.subspan(done, chunk), tallied);
    done += chunk;
  }
  obs::registry().counter_add("soteria.classifier.predictions");
  obs::registry().record("soteria.classifier.rows",
                         static_cast<double>(features.dbl.size() + done));
  return tallied.winner();
}

dataset::Family FamilyClassifier::predict_dbl_only(
    const features::SampleFeatures& features) const {
  VoteTally tally;
  accumulate(dbl_model_, features.dbl, tally);
  return tally.winner();
}

dataset::Family FamilyClassifier::predict_lbl_only(
    const features::SampleFeatures& features) const {
  VoteTally tally;
  accumulate(lbl_model_, features.lbl, tally);
  return tally.winner();
}

}  // namespace soteria::core
