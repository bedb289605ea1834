// Hand-timed benchmarks for the NN substrate. main() times the GEMM,
// Dense's two backward GEMMs and the Conv1d forward and backward
// kernels against their oracles (exit 1 on any bit mismatch of a
// backward GEMM or a conv kernel), prints the product classifier's
// per-layer op table and whole-net Sequential::infer cost at 10 rows
// (bench_results/perf_nn_ops.txt) and the per-layer cost of one 64-row
// training step of the product CNN and autoencoder
// (bench_results/perf_nn_train.txt).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "math/matrix.h"
#include "nn/activations.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "oracles/conv1d_reference.h"
#include "oracles/matmul_reference.h"
#include "runtime/thread_pool.h"
#include "soteria/presets.h"

namespace {

using namespace soteria;

/// Every timed call adds one value of its output here, and main()
/// folds the sum into the exit code (perf_infer's checksum idiom), so
/// no timed work is dead code.
double checksum = 0.0;

/// Seconds per call of `run` over `reps` back-to-back calls (enough of
/// them to make a sub-ms kernel measurable).
template <typename Run>
double seconds_per_call(Run&& run, std::size_t reps) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) run();
  const std::chrono::duration<double> delta =
      std::chrono::steady_clock::now() - start;
  return delta.count() / static_cast<double>(reps);
}

/// Best of `samples` seconds_per_call timings.
template <typename Run>
double best_seconds(Run&& run, std::size_t reps, std::size_t samples) {
  double best = seconds_per_call(run, reps);
  for (std::size_t sample = 1; sample < samples; ++sample) {
    best = std::min(best, seconds_per_call(run, reps));
  }
  return best;
}

/// Best-of-3 GFLOP/s of `run` for `flops` floating-point operations.
template <typename Run>
double best_gflops(double flops, Run&& run) {
  return flops / best_seconds(run, 1, 3) * 1e-9;
}

/// Hand-timed GEMM GFLOP/s for math::matmul (the register-tiled
/// matmul_into) and the preserved naive reference, added to the
/// "perf_nn" section of BENCH_perf.json so kernel regressions show up
/// independently of the end-to-end sweeps.
void emit_gemm_gflops(std::map<std::string, double>& json_values) {
  std::string report = "-- GEMM GFLOP/s (register-tiled vs reference) --\n";
  for (const std::size_t n : {256U, 512U}) {
    math::Rng rng(7);
    math::Matrix a(n, n);
    math::Matrix b(n, n);
    a.fill_normal(rng, 0.0F, 1.0F);
    b.fill_normal(rng, 0.0F, 1.0F);
    const double flops = 2.0 * static_cast<double>(n) * n * n;

    const auto time_gflops = [&](auto&& kernel) {
      return best_gflops(flops,
                         [&] { checksum += kernel(a, b).data()[0]; });
    };
    const double tiled = time_gflops(
        [](const math::Matrix& x, const math::Matrix& y) {
          return math::matmul(x, y);
        });
    const double reference = time_gflops(
        [](const math::Matrix& x, const math::Matrix& y) {
          return oracles::matmul_reference(x, y);
        });

    char line[120];
    std::snprintf(line, sizeof(line),
                  "n=%zu  tiled %6.2f GFLOP/s  reference %6.2f GFLOP/s  "
                  "%4.1fx\n",
                  n, tiled, reference,
                  reference > 0.0 ? tiled / reference : 0.0);
    report += line;

    char key[48];
    std::snprintf(key, sizeof(key), "gemm_%zu_", n);
    json_values[std::string(key) + "tiled_gflops"] = tiled;
    json_values[std::string(key) + "reference_gflops"] = reference;
    json_values[std::string(key) + "speedup"] =
        reference > 0.0 ? tiled / reference : 0.0;
  }
  std::printf("\n%s", report.c_str());
}

/// Dense's two backward GEMMs at a 64-row batch of the classifier's
/// hidden layer (1952 -> 128) and the autoencoder's first (1000 -> 200),
/// each against its oracle: weight_grad += X^T G (matmul_at_into, X
/// post-ReLU sparse) and d(input) = G W^T (matmul_bt_into). Records
/// `dense_<in>x<out>_{at,bt}_gflops`; returns false when a kernel and
/// its oracle disagree in any bit.
bool emit_backward_gemm_gflops(std::map<std::string, double>& json_values) {
  constexpr std::size_t kRows = 64;
  std::printf(
      "\n-- Dense backward GEMM GFLOP/s (64 rows, kernel vs reference) --\n");
  bool identical = true;
  for (const auto& [in_dim, out_dim] :
       {std::pair<std::size_t, std::size_t>{1952, 128}, {1000, 200}}) {
    math::Rng rng(8);
    math::Matrix x(kRows, in_dim);  // the layer input
    for (float& v : x.data()) {
      v = rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(0.0, 1.0))
                             : 0.0F;
    }
    math::Matrix g(kRows, out_dim);  // the output gradient
    math::Matrix w(in_dim, out_dim);
    g.fill_normal(rng, 0.0F, 1.0F);
    w.fill_normal(rng, 0.0F, 1.0F);
    const math::Matrix wt = w.transposed();
    const double flops = 2.0 * kRows * in_dim * out_dim;

    // X^T G, added to zeros, against the k-i-j oracle.
    math::Matrix at(in_dim, out_dim, 0.0F);
    math::matmul_at_into(x.data().data(), g.data().data(), at.data().data(),
                         in_dim, kRows, out_dim);
    const bool at_same = at == oracles::matmul_at_reference(x, g);
    const double at_kernel = best_gflops(flops, [&] {
      math::matmul_at_into(x.data().data(), g.data().data(),
                           at.data().data(), in_dim, kRows, out_dim);
      checksum += at.data()[0];
    });
    const double at_reference = best_gflops(flops, [&] {
      checksum += oracles::matmul_at_reference(x, g).data()[0];
    });

    // G W^T against the i-k-j oracle on W's transpose.
    math::Matrix bt(kRows, in_dim);
    math::matmul_bt_into(g.data().data(), w.data().data(), bt.data().data(),
                         kRows, out_dim, in_dim);
    const bool bt_same = bt == oracles::matmul_reference(g, wt);
    const double bt_kernel = best_gflops(flops, [&] {
      math::matmul_bt_into(g.data().data(), w.data().data(),
                           bt.data().data(), kRows, out_dim, in_dim);
      checksum += bt.data()[0];
    });
    const double bt_reference = best_gflops(flops, [&] {
      checksum += oracles::matmul_reference(g, wt).data()[0];
    });
    identical = identical && at_same && bt_same;

    const std::string shape =
        std::to_string(in_dim) + "x" + std::to_string(out_dim);
    const auto row = [&](const char* what, double kernel, double reference,
                         bool same) {
      std::printf("Dense(%zu->%zu) %s  kernel %6.2f GFLOP/s  reference "
                  "%6.2f GFLOP/s  %4.1fx  %s\n",
                  in_dim, out_dim, what, kernel, reference,
                  reference > 0.0 ? kernel / reference : 0.0,
                  same ? "bit-identical" : "MISMATCH");
    };
    row("X^T G", at_kernel, at_reference, at_same);
    row("G W^T", bt_kernel, bt_reference, bt_same);
    json_values["dense_" + shape + "_at_gflops"] = at_kernel;
    json_values["dense_" + shape + "_at_reference_gflops"] = at_reference;
    json_values["dense_" + shape + "_bt_gflops"] = bt_kernel;
    json_values["dense_" + shape + "_bt_reference_gflops"] = bt_reference;
  }
  return identical;
}

/// Conv1d backward GFLOP/s, SIMD kernel vs the scalar oracle, at the
/// product CNN's inner convolution (16 filters over 16 channels, length
/// 500, kernel 3, batch 64). Returns false when the two disagree in any
/// bit of grad-input, weight-grad or bias-grad.
bool emit_conv_backward_gflops(std::map<std::string, double>& json_values) {
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kChannels = 16;
  constexpr std::size_t kLength = 500;
  constexpr std::size_t kFilters = 16;
  constexpr std::size_t kKernel = 3;
  constexpr std::size_t kOutLen = kLength - kKernel + 1;
  math::Rng rng(9);
  math::Matrix in(kRows, kChannels * kLength);
  math::Matrix grad_out(kRows, kFilters * kOutLen);
  math::Matrix weights(kFilters, kChannels * kKernel);
  in.fill_normal(rng, 0.0F, 1.0F);
  grad_out.fill_normal(rng, 0.0F, 1.0F);
  weights.fill_normal(rng, 0.0F, 1.0F);

  struct Grads {
    std::vector<float> in, weights, bias;
  };
  const auto fresh = [] {
    return Grads{std::vector<float>(kRows * kChannels * kLength, 0.0F),
                 std::vector<float>(kFilters * kChannels * kKernel, 0.0F),
                 std::vector<float>(kFilters, 0.0F)};
  };
  const auto kernel = [&](Grads& g) {
    nn::conv1d_backward_into(in.data().data(), grad_out.data().data(),
                             weights.data().data(), g.in.data(),
                             g.weights.data(), g.bias.data(), kRows,
                             kChannels, kLength, kFilters, kKernel);
  };
  const auto oracle = [&](Grads& g) {
    oracles::conv1d_backward_reference(
        in.data().data(), grad_out.data().data(), weights.data().data(),
        g.in.data(), g.weights.data(), g.bias.data(), kRows, kChannels,
        kLength, kFilters, kKernel);
  };

  Grads fast = fresh();
  Grads slow = fresh();
  kernel(fast);
  oracle(slow);
  const bool identical = fast.in == slow.in &&
                         fast.weights == slow.weights &&
                         fast.bias == slow.bias;

  // Grad-input and weight-grad: one multiply and one add per
  // (row, filter, channel, tap, position) each.
  const double flops = 4.0 * kRows * kFilters * kChannels * kKernel * kOutLen;
  Grads scratch = fresh();
  const double simd = best_gflops(flops, [&] {
    kernel(scratch);
    checksum += scratch.weights[0];
  });
  const double reference = best_gflops(flops, [&] {
    std::fill(scratch.in.begin(), scratch.in.end(), 0.0F);
    oracle(scratch);
    checksum += scratch.weights[0];
  });
  std::printf(
      "\n-- Conv1d backward GFLOP/s (16x500, 16 filters, k=3, batch 64) --\n"
      "SIMD %6.2f GFLOP/s  reference %6.2f GFLOP/s  %4.1fx  %s\n",
      simd, reference, reference > 0.0 ? simd / reference : 0.0,
      identical ? "bit-identical" : "MISMATCH");
  json_values["conv1d_backward_gflops"] = simd;
  json_values["conv1d_backward_reference_gflops"] = reference;
  json_values["conv1d_backward_speedup"] =
      reference > 0.0 ? simd / reference : 0.0;
  return identical;
}

/// Forward Conv1d GFLOP/s, register-tiled kernel vs the scalar oracle,
/// at the product CNN's second convolution (16 channels x 498 -> 16
/// filters, k=3) for one walk set (10 rows) and one training batch (64
/// rows). Returns false when the two disagree in any output bit.
bool emit_conv_forward_gflops(std::map<std::string, double>& json_values) {
  constexpr std::size_t kChannels = 16;
  constexpr std::size_t kLength = 498;
  constexpr std::size_t kFilters = 16;
  constexpr std::size_t kKernel = 3;
  constexpr std::size_t kOutLen = kLength - kKernel + 1;
  std::printf(
      "\n-- Conv1d forward GFLOP/s (16x498, 16 filters, k=3) --\n");
  bool identical = true;
  for (const std::size_t rows : {10U, 64U}) {
    math::Rng rng(10);
    math::Matrix in(rows, kChannels * kLength);
    math::Matrix weights(kFilters, kChannels * kKernel);
    math::Matrix bias(1, kFilters);
    in.fill_normal(rng, 0.0F, 1.0F);
    weights.fill_normal(rng, 0.0F, 1.0F);
    bias.fill_normal(rng, 0.0F, 1.0F);
    std::vector<float> fast(rows * kFilters * kOutLen);
    std::vector<float> slow(fast.size());
    const auto kernel = [&] {
      nn::conv1d_infer_into(in.data().data(), fast.data(),
                            weights.data().data(), bias.data().data(), rows,
                            kChannels, kLength, kFilters, kKernel,
                            /*relu=*/false);
      checksum += fast[0];
    };
    const auto oracle = [&] {
      oracles::conv1d_infer_reference_into(
          in.data().data(), slow.data(), weights.data().data(),
          bias.data().data(), rows, kChannels, kLength, kFilters, kKernel);
      checksum += slow[0];
    };
    kernel();
    oracle();
    const bool same = std::memcmp(fast.data(), slow.data(),
                                  fast.size() * sizeof(float)) == 0;
    identical = identical && same;

    // One multiply and one add per (row, filter, channel, tap, position).
    const double flops = 2.0 * rows * kFilters * kChannels * kKernel * kOutLen;
    // The two alternate, 15 samples each of 640 rows' work (5-20 ms),
    // so a slow stretch of a shared host hits both; each keeps its best.
    const std::size_t reps = 640 / rows;
    double simd_s = seconds_per_call(kernel, reps);
    double reference_s = seconds_per_call(oracle, reps);
    for (std::size_t sample = 1; sample < 15; ++sample) {
      simd_s = std::min(simd_s, seconds_per_call(kernel, reps));
      reference_s = std::min(reference_s, seconds_per_call(oracle, reps));
    }
    const double simd = flops / simd_s * 1e-9;
    const double reference = flops / reference_s * 1e-9;
    std::printf("rows %2zu  SIMD %6.2f GFLOP/s  reference %6.2f GFLOP/s  "
                "%4.1fx  %s\n",
                rows, simd, reference,
                reference > 0.0 ? simd / reference : 0.0,
                same ? "bit-identical" : "MISMATCH");
    const std::string key = "conv1d_forward_" + std::to_string(rows) + "rows_";
    json_values[key + "gflops"] = simd;
    json_values[key + "reference_gflops"] = reference;
    json_values[key + "speedup"] = reference > 0.0 ? simd / reference : 0.0;
  }
  return identical;
}

/// True if layer i is a Conv1d directly followed by a Relu: the pair
/// Sequential::infer and a TrainingWorkspace run as one fused op.
bool is_conv_relu(const nn::Sequential& model, std::size_t i) {
  const auto& layers = model.layers();
  return i + 1 < layers.size() &&
         dynamic_cast<const nn::Conv1d*>(layers[i].get()) != nullptr &&
         dynamic_cast<const nn::Relu*>(layers[i + 1].get()) != nullptr;
}

/// Per-op cost of the product classifier (cpu_scaled_config's CNN) at
/// one walk set of 10 rows, then the whole net through
/// Sequential::infer. Each op is the exact kernel Sequential::infer
/// runs for it, timed directly on the output of the op before it (the
/// first on a TF-IDF-like input: non-negative, ~2/3 exact zeros), so
/// Dense sees the post-ReLU zeros a verdict feeds it. A Conv1d and the
/// Relu after it are one fused op; Dropout, which infer skips, has no
/// row. FLOPs count a conv tap or dense term as a multiply and an add,
/// and a ReLU or pool comparison as one op. Printed and written to
/// bench_results/perf_nn_ops.txt; returns the whole net's µs per row.
double emit_classifier_op_table() {
  constexpr std::size_t kRows = 10;
  const core::SoteriaConfig product = core::cpu_scaled_config();
  nn::CnnConfig config = product.cnn;
  config.input_length = product.pipeline.top_k;
  math::Rng rng(12);
  const nn::Sequential model = nn::build_cnn(config, rng);
  const auto& layers = model.layers();

  std::string report = "-- product classifier, per op at 10 rows --\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-36s %8s %10s\n", "op", "us",
                "GFLOP/s");
  report += line;
  const auto time_us = [](auto&& run) {
    return best_seconds(run, 20, 15) * 1e6;
  };
  math::Matrix input(kRows, config.input_length);
  for (float& x : input.data()) {
    x = rng.bernoulli(0.35) ? static_cast<float>(rng.uniform(0.0, 1.0))
                            : 0.0F;
  }
  std::vector<float> in(input.data().begin(), input.data().end());
  std::vector<float> out;
  double total_us = 0.0;
  std::size_t width = config.input_length;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::Layer& layer = *layers[i];
    if (layer.identity_at_inference()) continue;
    const std::size_t out_width = layer.output_dimension(width);
    out.assign(kRows * out_width, 0.0F);
    std::string name = layer.name();
    double flops = 0.0;
    const nn::Conv1d* fused = nullptr;  // a Conv1d run with its Relu
    if (const auto* conv = dynamic_cast<const nn::Conv1d*>(&layer)) {
      flops = 2.0 * kRows * conv->out_channels() * conv->in_channels() *
              conv->kernel() * conv->out_length();
      if (is_conv_relu(model, i)) {
        fused = conv;
        name += " + ReLU";
        flops += static_cast<double>(kRows) * out_width;
        ++i;
      }
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      flops = 2.0 * kRows * dense->in_dim() * dense->out_dim();
    } else if (const auto* pool =
                   dynamic_cast<const nn::MaxPool1d*>(&layer)) {
      flops = static_cast<double>(kRows) * out_width * (pool->window() - 1);
    } else {
      flops = static_cast<double>(kRows) * out_width;  // ReLU
    }
    const double us = time_us([&] {
      if (fused != nullptr) {
        fused->infer_relu_into(in.data(), kRows, out.data());
      } else {
        layer.infer_into(in.data(), kRows, width, out.data());
      }
      checksum += out[0];
    });
    total_us += us;
    std::snprintf(line, sizeof(line), "  %-36s %8.2f %10.2f\n",
                  name.c_str(), us, flops / us * 1e-3);
    report += line;
    in.swap(out);
    width = out_width;
  }
  std::snprintf(line, sizeof(line), "  %-36s %8.2f\n", "sum of ops",
                total_us);
  report += line;
  const double infer_us = time_us(
      [&] { checksum += model.infer(input).data()[0]; });
  std::snprintf(line, sizeof(line), "  %-36s %8.2f  (%.2f us per row)\n",
                "Sequential::infer, whole net", infer_us,
                infer_us / kRows);
  report += line;
  std::printf("\n%s", report.c_str());

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream file("bench_results/perf_nn_ops.txt");
  if (file) {
    file << report;
    std::printf("per-op table written to bench_results/perf_nn_ops.txt\n");
  } else {
    std::printf("bench_results/ not writable; per-op table not persisted\n");
  }
  return infer_us / kRows;
}

/// Per-layer cost of one 64-row training step (forward, loss, backward,
/// zeroing the gradients plus the Adam step) of a product net, driven
/// one layer at a time through a TrainingWorkspace. Each row is the
/// mean over kSteps steps after kWarmup; "step" is their sum. A
/// Conv1d and the Relu it trains with are one row. The input is
/// TF-IDF-like (non-negative, ~2/3 exact zeros) and the classifier's
/// labels cycle through the four families.
struct TrainStepTable {
  std::string text;
  double step_ms = 0.0;
};

TrainStepTable time_training_step(const char* title, nn::Sequential& model,
                                  std::size_t width, bool classifier) {
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kWarmup = 5;
  constexpr std::size_t kSteps = 30;
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  math::Rng rng(13);
  nn::TrainingWorkspace workspace(model, width, kRows);
  std::vector<float> batch(kRows * width);
  for (float& x : batch) {
    x = rng.bernoulli(0.35) ? static_cast<float>(rng.uniform(0.0, 1.0))
                            : 0.0F;
  }
  std::vector<std::size_t> labels(kRows);
  for (std::size_t i = 0; i < kRows; ++i) labels[i] = i % 4;
  const std::size_t out_width = workspace.output_width();
  std::vector<float> grad(kRows * out_width);
  nn::Adam optimizer(1e-3);
  const auto params = model.parameters();
  const std::size_t layers = model.layer_count();

  std::vector<double> forward_ms(layers, 0.0);
  std::vector<double> backward_ms(layers, 0.0);
  double loss_ms = 0.0;
  double optimizer_ms = 0.0;
  for (std::size_t step = 0; step < kWarmup + kSteps; ++step) {
    const bool timed = step >= kWarmup;
    // Copied in per step, outside the timed rows, as the trainer
    // gathers each batch.
    std::copy(batch.begin(), batch.end(), workspace.input());
    const float* out = nullptr;
    for (std::size_t i = 0; i < layers; ++i) {
      const auto start = Clock::now();
      out = workspace.forward_layer(i, kRows);
      if (timed) forward_ms[i] += ms_since(start);
    }
    auto start = Clock::now();
    const double loss =
        classifier ? nn::softmax_cross_entropy_into(out, out_width, labels,
                                                    grad.data())
                   : nn::mse_loss_into(out, batch.data(), batch.size(),
                                       grad.data());
    checksum += loss;
    if (timed) loss_ms += ms_since(start);
    const float* g = grad.data();
    for (std::size_t i = layers; i-- > 0;) {
      start = Clock::now();
      g = workspace.backward_layer(i, g);
      if (timed) backward_ms[i] += ms_since(start);
    }
    start = Clock::now();
    optimizer.step(params);
    model.zero_gradients();
    if (timed) optimizer_ms += ms_since(start);
  }

  TrainStepTable table;
  char line[160];
  table.text = std::string("-- ") + title + ", one 64-row training step --\n";
  std::snprintf(line, sizeof(line), "  %-36s %10s %10s\n", "layer",
                "fwd ms", "bwd ms");
  table.text += line;
  const auto steps = static_cast<double>(kSteps);
  double total = 0.0;
  for (std::size_t i = 0; i < layers; ++i) {
    double f = forward_ms[i] / steps;
    double b = backward_ms[i] / steps;
    std::string name = model.layers()[i]->name();
    // A Conv1d and the Relu after it train as one op (the Relu's own
    // calls return at once); one row holds both.
    if (is_conv_relu(model, i)) {
      name += " + ReLU";
      f += forward_ms[i + 1] / steps;
      b += backward_ms[i + 1] / steps;
    } else if (i > 0 && is_conv_relu(model, i - 1)) {
      continue;
    }
    total += f + b;
    std::snprintf(line, sizeof(line), "  %-36s %10.3f %10.3f\n",
                  name.c_str(), f, b);
    table.text += line;
  }
  loss_ms /= steps;
  optimizer_ms /= steps;
  total += loss_ms + optimizer_ms;
  std::snprintf(line, sizeof(line), "  %-36s %10.3f\n", "loss", loss_ms);
  table.text += line;
  std::snprintf(line, sizeof(line), "  %-36s %10.3f\n",
                "Adam step + zero gradients", optimizer_ms);
  table.text += line;
  std::snprintf(line, sizeof(line), "  %-36s %10.3f\n", "step", total);
  table.text += line;
  table.step_ms = total;
  return table;
}

/// The training-step tables of the product classifier CNN and detector
/// autoencoder (cpu_scaled_config() shapes), printed, written to
/// bench_results/perf_nn_train.txt and recorded as
/// nn_train_step_{cnn,ae}_ms.
void emit_training_step_tables(std::map<std::string, double>& json_values) {
  const core::SoteriaConfig product = core::cpu_scaled_config();
  math::Rng rng(14);
  nn::CnnConfig cnn_config = product.cnn;
  cnn_config.input_length = product.pipeline.top_k;
  nn::Sequential cnn = nn::build_cnn(cnn_config, rng);
  nn::AutoencoderConfig ae_config = product.autoencoder;
  ae_config.input_dim = 2 * product.pipeline.top_k;
  nn::Sequential autoencoder = nn::build_autoencoder(ae_config, rng);

  const TrainStepTable cnn_table = time_training_step(
      "product classifier CNN", cnn, cnn_config.input_length, true);
  const TrainStepTable ae_table = time_training_step(
      "product autoencoder", autoencoder, ae_config.input_dim, false);
  json_values["nn_train_step_cnn_ms"] = cnn_table.step_ms;
  json_values["nn_train_step_ae_ms"] = ae_table.step_ms;
  const std::string report = cnn_table.text + ae_table.text;
  std::printf("\n%s", report.c_str());

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream out("bench_results/perf_nn_train.txt");
  if (out) {
    out << report;
    std::printf("training table written to bench_results/perf_nn_train.txt\n");
  } else {
    std::printf("bench_results/ not writable; training table not persisted\n");
  }
}

}  // namespace

int main() {
  std::map<std::string, double> json_values;
  emit_gemm_gflops(json_values);
  const bool gemm_identical = emit_backward_gemm_gflops(json_values);
  const bool forward_identical = emit_conv_forward_gflops(json_values);
  const bool backward_identical = emit_conv_backward_gflops(json_values);
  emit_training_step_tables(json_values);
  json_values["classifier_infer_us_per_row"] = emit_classifier_op_table();
  json_values["hardware_threads"] =
      static_cast<double>(runtime::hardware_threads());
  if (soteria::bench::update_perf_json("BENCH_perf.json", "perf_nn",
                                       json_values)) {
    std::printf("kernel GFLOP/s recorded in BENCH_perf.json\n");
  }
  if (!gemm_identical) {
    std::fprintf(stderr,
                 "perf_nn: a Dense backward GEMM differs from its oracle\n");
  }
  if (!forward_identical) {
    std::fprintf(stderr,
                 "perf_nn: Conv1d forward kernel differs from the oracle\n");
  }
  if (!backward_identical) {
    std::fprintf(stderr,
                 "perf_nn: Conv1d backward kernel differs from the oracle\n");
  }
  const bool live = checksum == checksum;  // keep the timed work live
  if (!live) std::fprintf(stderr, "perf_nn: a timed output is NaN\n");
  return gemm_identical && forward_identical && backward_identical && live
             ? 0
             : 1;
}
