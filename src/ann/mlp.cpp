#include "c2b/ann/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "c2b/common/assert.h"
#include "c2b/exec/pool.h"

namespace c2b {
namespace {

void append_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_raw(std::string& out, const T& value) {
  append_bytes(out, &value, sizeof value);
}

void append_doubles(std::string& out, const double* data, std::size_t count) {
  append_bytes(out, data, count * sizeof(double));
}

/// Copies `size` bytes at `*at` to `out` and advances past them.
void read_bytes(const char*& at, void* out, std::size_t size) {
  std::memcpy(out, at, size);
  at += size;
}

}  // namespace

void FeatureScaler::fit(const std::vector<Vector>& samples) {
  C2B_REQUIRE(!samples.empty(), "cannot fit a scaler on no samples");
  const std::size_t dim = samples[0].size();
  lo_.assign(dim, std::numeric_limits<double>::infinity());
  hi_.assign(dim, -std::numeric_limits<double>::infinity());
  for (const Vector& s : samples) {
    C2B_REQUIRE(s.size() == dim, "inconsistent sample dimension");
    for (std::size_t d = 0; d < dim; ++d) {
      lo_[d] = std::min(lo_[d], s[d]);
      hi_[d] = std::max(hi_[d], s[d]);
    }
  }
}

void FeatureScaler::transform_into(const Vector& x, double* out) const {
  C2B_REQUIRE(fitted(), "scaler not fitted");
  C2B_REQUIRE(x.size() == lo_.size(), "dimension mismatch");
  for (std::size_t d = 0; d < x.size(); ++d) {
    const double span = hi_[d] - lo_[d];
    out[d] = span <= 0.0 ? 0.0 : 2.0 * (x[d] - lo_[d]) / span - 1.0;
  }
}

Mlp::Mlp(const MlpConfig& config) : config_(config), rng_(config.seed) {
  C2B_REQUIRE(config_.layer_sizes.size() >= 2, "MLP needs input and output layers");
  C2B_REQUIRE(config_.layer_sizes.back() == 1, "this MLP predicts a single scalar");
  for (std::size_t l = 0; l + 1 < config_.layer_sizes.size(); ++l) {
    const std::size_t fan_in = config_.layer_sizes[l];
    const std::size_t fan_out = config_.layer_sizes[l + 1];
    Matrix w(fan_out, fan_in + 1);  // +1 bias column
    // Xavier/Glorot initialization keeps tanh activations in range.
    const double scale = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (std::size_t r = 0; r < w.rows(); ++r)
      for (std::size_t c = 0; c < w.cols(); ++c) w(r, c) = rng_.uniform(-scale, scale);
    weights_.push_back(std::move(w));
    velocity_.emplace_back(fan_out, fan_in + 1, 0.0);
  }
  acts_.assign(std::accumulate(config_.layer_sizes.begin() + 1, config_.layer_sizes.end(),
                               std::size_t{0}),
               0.0);
  const std::size_t widest =
      *std::max_element(config_.layer_sizes.begin(), config_.layer_sizes.end());
  delta_.assign(widest, 0.0);
  next_delta_.assign(widest, 0.0);
}

double Mlp::activate(double x) const {
  switch (config_.hidden_activation) {
    case Activation::kTanh:
      return std::tanh(x);
    case Activation::kRelu:
      return x > 0.0 ? x : 0.0;
    case Activation::kIdentity:
      return x;
  }
  return x;
}

double Mlp::activate_derivative(double activated) const {
  switch (config_.hidden_activation) {
    case Activation::kTanh:
      return 1.0 - activated * activated;
    case Activation::kRelu:
      return activated > 0.0 ? 1.0 : 0.0;
    case Activation::kIdentity:
      return 1.0;
  }
  return 1.0;
}

double Mlp::forward(const double* scaled_input, double* acts) const {
  const double* in = scaled_input;
  double* out = acts;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& w = weights_[l];
    const std::size_t cols = w.cols();
    const std::size_t fan_in = cols - 1;
    // Hidden layers use the configured activation; the output is linear.
    const bool output_layer = l + 1 == weights_.size();
    // Each row sums bias first, then its inputs in ascending order. Four
    // rows run side by side so their serial add chains overlap; every sum
    // still makes the same additions in the same order.
    const double* row = w.data();
    std::size_t r = 0;
    for (; r + 4 <= w.rows(); r += 4, row += 4 * cols) {
      const double* row1 = row + cols;
      const double* row2 = row1 + cols;
      const double* row3 = row2 + cols;
      double sum0 = row[fan_in], sum1 = row1[fan_in], sum2 = row2[fan_in], sum3 = row3[fan_in];
      for (std::size_t c = 0; c < fan_in; ++c) {
        const double x = in[c];
        sum0 += row[c] * x;
        sum1 += row1[c] * x;
        sum2 += row2[c] * x;
        sum3 += row3[c] * x;
      }
      out[r] = output_layer ? sum0 : activate(sum0);
      out[r + 1] = output_layer ? sum1 : activate(sum1);
      out[r + 2] = output_layer ? sum2 : activate(sum2);
      out[r + 3] = output_layer ? sum3 : activate(sum3);
    }
    for (; r < w.rows(); ++r, row += cols) {
      double sum = row[fan_in];
      for (std::size_t c = 0; c < fan_in; ++c) sum += row[c] * in[c];
      out[r] = output_layer ? sum : activate(sum);
    }
    in = out;
    out += w.rows();
  }
  return in[0];
}

void Mlp::sgd_step(const double* scaled_input, double error) {
  const double lr = config_.learning_rate;
  const double momentum = config_.momentum;
  const double l2 = config_.l2_penalty;
  delta_[0] = error;  // the output layer is linear: its delta is the error
  // Walk the activations back from the output layer; layer l's input is
  // the stretch of acts_ just before its own outputs.
  const double* outputs = acts_.data() + acts_.size();
  for (std::size_t l = weights_.size(); l-- > 0;) {
    outputs -= weights_[l].rows();
    const double* in = l == 0 ? scaled_input : outputs - weights_[l - 1].rows();
    Matrix& w = weights_[l];
    Matrix& v = velocity_[l];
    const std::size_t fan_in = w.cols() - 1;
    // The layer below's delta sums over rows in ascending order, reading
    // each weight before its own update overwrites it. The input layer has
    // no layer below, so its pass only updates.
    const bool propagate = l > 0;
    if (propagate) std::fill_n(next_delta_.begin(), fan_in, 0.0);
    double* w_row = w.data();
    double* v_row = v.data();
    for (std::size_t r = 0; r < w.rows(); ++r, w_row += w.cols(), v_row += v.cols()) {
      const double d = delta_[r];
      for (std::size_t c = 0; c < fan_in; ++c) {
        if (propagate) next_delta_[c] += w_row[c] * d;
        const double grad = d * in[c] + l2 * w_row[c];
        v_row[c] = momentum * v_row[c] - lr * grad;
        w_row[c] += v_row[c];
      }
      const double grad = d + l2 * w_row[fan_in];  // bias input is 1
      v_row[fan_in] = momentum * v_row[fan_in] - lr * grad;
      w_row[fan_in] += v_row[fan_in];
    }
    if (!propagate) break;
    for (std::size_t c = 0; c < fan_in; ++c) next_delta_[c] *= activate_derivative(in[c]);
    std::swap(delta_, next_delta_);
  }
}

void Mlp::cache_training_set(const std::vector<Vector>& inputs,
                             const std::vector<double>& targets) {
  const std::size_t dim = config_.layer_sizes[0];
  scaled_x_.resize(inputs.size() * dim);
  norm_y_.resize(targets.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    scaler_.transform_into(inputs[i], scaled_x_.data() + i * dim);
    norm_y_[i] = (targets[i] - target_mean_) / target_scale_;
  }
}

double Mlp::run_epoch() {
  order_.resize(norm_y_.size());
  std::iota(order_.begin(), order_.end(), 0u);
  for (std::size_t i = order_.size() - 1; i > 0; --i)
    std::swap(order_[i], order_[rng_.uniform_below(i + 1)]);

  const std::size_t dim = config_.layer_sizes[0];
  double squared_error = 0.0;
  for (const std::size_t idx : order_) {
    const double* x = scaled_x_.data() + idx * dim;
    const double error = forward(x, acts_.data()) - norm_y_[idx];
    squared_error += error * error * target_scale_ * target_scale_;
    sgd_step(x, error);
  }
  return squared_error / static_cast<double>(norm_y_.size());
}

double Mlp::train_epoch(const std::vector<Vector>& inputs, const std::vector<double>& targets) {
  C2B_REQUIRE(inputs.size() == targets.size() && !inputs.empty(), "bad training batch");
  C2B_REQUIRE(scaler_.fitted(), "call fit() (which fits the scaler) before train_epoch()");
  cache_training_set(inputs, targets);
  return run_epoch();
}

void Mlp::fit(const std::vector<Vector>& inputs, const std::vector<double>& targets, int epochs) {
  C2B_REQUIRE(inputs.size() == targets.size() && !inputs.empty(), "bad training set");
  C2B_REQUIRE(inputs[0].size() == config_.layer_sizes[0],
              "input dimension differs from the input layer");
  scaler_.fit(inputs);
  // Normalize targets to zero mean / unit scale for stable gradients.
  double mean = 0.0;
  for (const double t : targets) mean += t;
  mean /= static_cast<double>(targets.size());
  double spread = 0.0;
  for (const double t : targets) spread = std::max(spread, std::fabs(t - mean));
  target_mean_ = mean;
  target_scale_ = spread > 0.0 ? spread : 1.0;
  cache_training_set(inputs, targets);

  double best = std::numeric_limits<double>::infinity();
  int stale = 0;
  for (int e = 0; e < epochs; ++e) {
    const double mse = run_epoch();
    if (mse < best * 0.999) {
      best = mse;
      stale = 0;
    } else if (++stale > 50) {
      break;  // plateau
    }
  }
}

std::string Mlp::snapshot() const {
  std::string out;
  append_raw(out, static_cast<std::uint64_t>(scaler_.lo_.size()));
  append_doubles(out, scaler_.lo_.data(), scaler_.lo_.size());
  append_doubles(out, scaler_.hi_.data(), scaler_.hi_.size());
  append_raw(out, target_mean_);
  append_raw(out, target_scale_);
  const Rng::State rng = rng_.state();
  append_raw(out, rng.words);
  append_raw(out, rng.cached_normal);
  append_raw(out, static_cast<std::uint64_t>(rng.has_cached_normal));
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const std::size_t count = weights_[l].rows() * weights_[l].cols();
    append_doubles(out, weights_[l].data(), count);
    append_doubles(out, velocity_[l].data(), count);
  }
  return out;
}

bool Mlp::restore(std::string_view bytes) {
  constexpr std::size_t kWord = sizeof(double);
  if (bytes.size() < kWord) return false;
  std::uint64_t dim = 0;
  std::memcpy(&dim, bytes.data(), kWord);
  if (dim != 0 && dim != config_.layer_sizes[0]) return false;
  std::size_t params = 0;
  for (const Matrix& w : weights_) params += w.rows() * w.cols();
  // dim, 2 x dim bounds, mean, scale, 4 Rng words, cached normal, its flag,
  // then weights and velocities.
  if (bytes.size() != kWord * (1 + 2 * dim + 2 + 4 + 2 + 2 * params)) return false;

  const char* at = bytes.data() + kWord;
  scaler_.lo_.resize(dim);
  scaler_.hi_.resize(dim);
  read_bytes(at, scaler_.lo_.data(), dim * kWord);
  read_bytes(at, scaler_.hi_.data(), dim * kWord);
  read_bytes(at, &target_mean_, kWord);
  read_bytes(at, &target_scale_, kWord);
  Rng::State rng{};
  read_bytes(at, rng.words, sizeof rng.words);
  read_bytes(at, &rng.cached_normal, kWord);
  std::uint64_t has_cached_normal = 0;
  read_bytes(at, &has_cached_normal, kWord);
  rng.has_cached_normal = has_cached_normal != 0;
  rng_.set_state(rng);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const std::size_t bytes_per_matrix = weights_[l].rows() * weights_[l].cols() * kWord;
    read_bytes(at, weights_[l].data(), bytes_per_matrix);
    read_bytes(at, velocity_[l].data(), bytes_per_matrix);
  }
  return true;
}

std::string Mlp::fit_key(const std::vector<Vector>& inputs, const std::vector<double>& targets,
                         int epochs) const {
  // Every variable-length part is preceded by its length, so distinct
  // (config, state, data, epochs) tuples never share a key.
  const std::string state = snapshot();
  const std::size_t dim = config_.layer_sizes[0];
  std::string key;
  key.reserve(8 * (config_.layer_sizes.size() + 8) + state.size() +
              inputs.size() * (dim + 1) * sizeof(double) + targets.size() * sizeof(double));
  append_raw(key, static_cast<std::uint64_t>(config_.layer_sizes.size()));
  for (const std::size_t size : config_.layer_sizes)
    append_raw(key, static_cast<std::uint64_t>(size));
  append_raw(key, static_cast<std::uint64_t>(config_.hidden_activation));
  append_raw(key, config_.learning_rate);
  append_raw(key, config_.momentum);
  append_raw(key, config_.l2_penalty);
  append_raw(key, static_cast<std::uint64_t>(state.size()));
  key += state;
  append_raw(key, static_cast<std::uint64_t>(inputs.size()));
  for (const Vector& x : inputs) {
    append_raw(key, static_cast<std::uint64_t>(x.size()));
    append_doubles(key, x.data(), x.size());
  }
  append_raw(key, static_cast<std::uint64_t>(targets.size()));
  append_doubles(key, targets.data(), targets.size());
  append_raw(key, static_cast<std::int64_t>(epochs));
  return key;
}

double Mlp::predict_into(const Vector& input, double* scratch) const {
  scaler_.transform_into(input, scratch);
  return forward(scratch, scratch + config_.layer_sizes[0]) * target_scale_ + target_mean_;
}

double Mlp::predict(const Vector& input) const {
  std::vector<double> scratch(config_.layer_sizes[0] + acts_.size());
  return predict_into(input, scratch.data());
}

std::vector<double> Mlp::predict_batch(const std::vector<Vector>& inputs) const {
  std::vector<double> out(inputs.size());
  exec::ThreadPool::global().parallel_for(
      0, inputs.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> scratch(config_.layer_sizes[0] + acts_.size());
        for (std::size_t i = lo; i < hi; ++i) out[i] = predict_into(inputs[i], scratch.data());
      },
      kPredictGrain);
  return out;
}

double Mlp::mean_relative_error(const std::vector<Vector>& inputs,
                                const std::vector<double>& targets) const {
  C2B_REQUIRE(inputs.size() == targets.size() && !inputs.empty(), "bad evaluation set");
  const std::vector<double> predicted = predict_batch(inputs);
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (std::fabs(targets[i]) < kMreEpsilon) continue;  // see kMreEpsilon's contract
    sum += std::fabs(predicted[i] - targets[i]) / std::fabs(targets[i]);
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

}  // namespace c2b
