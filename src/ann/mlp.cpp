#include "c2b/ann/mlp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "c2b/common/assert.h"
#include "c2b/exec/pool.h"

namespace c2b {

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
