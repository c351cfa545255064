#include "c2b/ann/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"

namespace c2b {
namespace {

Vector scaled(const FeatureScaler& scaler, const Vector& x) {
  Vector out(x.size());
  scaler.transform_into(x, out.data());
  return out;
}

TEST(FeatureScaler, MapsToMinusOneOne) {
  FeatureScaler scaler;
  scaler.fit({{0.0, 10.0}, {4.0, 20.0}});
  const Vector lo = scaled(scaler, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(lo[0], -1.0);
  EXPECT_DOUBLE_EQ(lo[1], -1.0);
  const Vector hi = scaled(scaler, {4.0, 20.0});
  EXPECT_DOUBLE_EQ(hi[0], 1.0);
  EXPECT_DOUBLE_EQ(hi[1], 1.0);
  const Vector mid = scaled(scaler, {2.0, 15.0});
  EXPECT_DOUBLE_EQ(mid[0], 0.0);
  EXPECT_DOUBLE_EQ(mid[1], 0.0);
}

TEST(FeatureScaler, ConstantFeatureMapsToZero) {
  FeatureScaler scaler;
  scaler.fit({{5.0}, {5.0}});
  EXPECT_DOUBLE_EQ(scaled(scaler, {5.0})[0], 0.0);
}

TEST(FeatureScaler, GuardsMisuse) {
  FeatureScaler scaler;
  EXPECT_THROW((void)scaled(scaler, {1.0}), std::invalid_argument);
  EXPECT_THROW(scaler.fit({}), std::invalid_argument);
}

MlpConfig small_config(std::size_t inputs) {
  MlpConfig config;
  config.layer_sizes = {inputs, 12, 1};
  config.learning_rate = 0.02;
  config.seed = 3;
  return config;
}

TEST(Mlp, LearnsLinearFunction) {
  Mlp mlp(small_config(2));
  Rng rng(1);
  std::vector<Vector> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-2, 2), b = rng.uniform(-2, 2);
    x.push_back({a, b});
    y.push_back(3.0 * a - 2.0 * b + 1.0);
  }
  mlp.fit(x, y, 600);
  EXPECT_LT(mlp.mean_relative_error(x, y), 0.08);
}

TEST(Mlp, LearnsQuadraticSurface) {
  Mlp mlp(small_config(1));
  std::vector<Vector> x;
  std::vector<double> y;
  for (double v = -2.0; v <= 2.0; v += 0.05) {
    x.push_back({v});
    y.push_back(v * v + 1.0);
  }
  mlp.fit(x, y, 1500);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    worst = std::max(worst, std::fabs(mlp.predict(x[i]) - y[i]));
  EXPECT_LT(worst, 0.4);
}

TEST(Mlp, LearnsXorWithTanh) {
  MlpConfig config;
  config.layer_sizes = {2, 8, 1};
  config.learning_rate = 0.05;
  config.seed = 11;
  Mlp mlp(config);
  const std::vector<Vector> x{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<double> y{0, 1, 1, 0};
  mlp.fit(x, y, 4000);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(mlp.predict(x[i]), y[i], 0.25) << "pattern " << i;
}

TEST(Mlp, MoreDataImprovesGeneralization) {
  auto make_set = [](int n, std::uint64_t seed) {
    Rng rng(seed);
    std::pair<std::vector<Vector>, std::vector<double>> set;
    for (int i = 0; i < n; ++i) {
      const double a = rng.uniform(0.5, 4.0), b = rng.uniform(0.5, 4.0);
      set.first.push_back({a, b});
      set.second.push_back(a * b + std::sqrt(a));
    }
    return set;
  };
  const auto test_set = make_set(100, 99);

  Mlp sparse(small_config(2));
  const auto tiny = make_set(8, 1);
  sparse.fit(tiny.first, tiny.second, 800);

  Mlp dense(small_config(2));
  const auto big = make_set(300, 2);
  dense.fit(big.first, big.second, 800);

  EXPECT_LT(dense.mean_relative_error(test_set.first, test_set.second),
            sparse.mean_relative_error(test_set.first, test_set.second));
}

TEST(Mlp, DeterministicForSeed) {
  const auto make = [] {
    Mlp mlp(small_config(1));
    std::vector<Vector> x{{0.0}, {1.0}, {2.0}};
    std::vector<double> y{1.0, 2.0, 3.0};
    mlp.fit(x, y, 100);
    return mlp.predict({1.5});
  };
  EXPECT_DOUBLE_EQ(make(), make());
}

TEST(Mlp, RejectsBadConfigurations) {
  MlpConfig config;
  config.layer_sizes = {3};
  EXPECT_THROW(Mlp{config}, std::invalid_argument);
  config.layer_sizes = {3, 4, 2};  // multi-output unsupported
  EXPECT_THROW(Mlp{config}, std::invalid_argument);
}

TEST(Mlp, RejectsBadTrainingSets) {
  Mlp mlp(small_config(1));
  EXPECT_THROW(mlp.fit({}, {}, 10), std::invalid_argument);
  EXPECT_THROW(mlp.fit({{1.0}}, {1.0, 2.0}, 10), std::invalid_argument);
  EXPECT_THROW((void)mlp.train_epoch({{1.0}}, {1.0}), std::invalid_argument);  // fit first
}

bool bit_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

std::pair<std::vector<Vector>, std::vector<double>> curved_set(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::pair<std::vector<Vector>, std::vector<double>> set;
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform(0.25, 4.0), b = rng.uniform(0.25, 4.0);
    set.first.push_back({a, b});
    set.second.push_back(a * b + std::sqrt(a) + 0.5 * b);
  }
  return set;
}

TEST(Mlp, PredictBatchMatchesPredictBitwise) {
  Mlp mlp(small_config(2));
  const auto train = curved_set(120, 5);
  mlp.fit(train.first, train.second, 300);
  const auto query = curved_set(64, 6);
  const std::vector<double> batch = mlp.predict_batch(query.first);
  ASSERT_EQ(batch.size(), query.first.size());
  for (std::size_t i = 0; i < query.first.size(); ++i)
    EXPECT_TRUE(bit_equal(batch[i], mlp.predict(query.first[i]))) << "query " << i;
  EXPECT_TRUE(mlp.predict_batch({}).empty());
}

TEST(Mlp, MeanRelativeErrorSkipsZeroTargets) {
  Mlp mlp(small_config(1));
  mlp.fit({{0.0}, {1.0}, {2.0}}, {1.0, 2.0, 3.0}, 200);
  // A zero-valued target must not poison the mean with inf/NaN: it is
  // skipped under kMreEpsilon and the error is averaged over the rest.
  const double with_zero = mlp.mean_relative_error({{0.0}, {1.0}}, {0.0, 2.0});
  EXPECT_TRUE(std::isfinite(with_zero));
  EXPECT_DOUBLE_EQ(with_zero, mlp.mean_relative_error({{1.0}}, {2.0}));
  // All-zero targets: nothing to average, defined as 0.0, not NaN.
  EXPECT_DOUBLE_EQ(mlp.mean_relative_error({{1.0}}, {0.0}), 0.0);
  EXPECT_DOUBLE_EQ(mlp.mean_relative_error({{1.0}}, {Mlp::kMreEpsilon / 2.0}), 0.0);
}

// The surrogate driver's reproducibility contract: training is a pure
// function of (config.seed, training set) — the caller's thread-pool width
// must not leak into the weights or the predictions.
TEST(Mlp, TrainingDeterministicAcrossThreadCounts) {
  const auto train = curved_set(80, 9);
  const auto query = curved_set(32, 10);
  auto fit_under_pool = [&](std::size_t threads) {
    exec::set_thread_count(threads);
    Mlp mlp(small_config(2));
    mlp.fit(train.first, train.second, 250);
    return mlp;
  };
  const Mlp reference = fit_under_pool(1);
  const std::vector<double> reference_pred = reference.predict_batch(query.first);
  for (const std::size_t threads : {2UL, 8UL}) {
    const Mlp other = fit_under_pool(threads);
    ASSERT_EQ(other.weights().size(), reference.weights().size());
    for (std::size_t l = 0; l < reference.weights().size(); ++l) {
      const Matrix& a = reference.weights()[l];
      const Matrix& b = other.weights()[l];
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(a.cols(), b.cols());
      for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
          EXPECT_TRUE(bit_equal(a(r, c), b(r, c)))
              << "layer " << l << " (" << r << "," << c << ") threads=" << threads;
    }
    const std::vector<double> pred = other.predict_batch(query.first);
    for (std::size_t i = 0; i < pred.size(); ++i)
      EXPECT_TRUE(bit_equal(pred[i], reference_pred[i])) << "query " << i;
  }
  exec::set_thread_count(0);
}

TEST(FeatureScaler, OutputsStayInUnitRangeOnTrainingSamples) {
  Rng rng(17);
  std::vector<Vector> samples;
  for (int i = 0; i < 100; ++i)
    samples.push_back({rng.uniform(-50.0, 50.0), rng.uniform(0.0, 1e6), 3.25});
  FeatureScaler scaler;
  scaler.fit(samples);
  for (const Vector& s : samples) {
    const Vector t = scaled(scaler, s);
    for (std::size_t d = 0; d < t.size(); ++d) {
      EXPECT_GE(t[d], -1.0) << "dim " << d;
      EXPECT_LE(t[d], 1.0) << "dim " << d;
    }
    EXPECT_DOUBLE_EQ(t[2], 0.0);  // constant feature maps to 0
  }
}

TEST(FeatureScaler, TransformIsAffineRoundTrip) {
  Rng rng(23);
  std::vector<Vector> samples;
  for (int i = 0; i < 40; ++i) samples.push_back({rng.uniform(2.0, 9.0)});
  FeatureScaler scaler;
  scaler.fit(samples);
  double lo = samples[0][0], hi = samples[0][0];
  for (const Vector& s : samples) {
    lo = std::min(lo, s[0]);
    hi = std::max(hi, s[0]);
  }
  // The map is affine per dimension, so the documented inverse recovers
  // every training sample (up to rounding) from its transformed image.
  for (const Vector& s : samples) {
    const double t = scaled(scaler, s)[0];
    EXPECT_NEAR(lo + (t + 1.0) / 2.0 * (hi - lo), s[0], 1e-9);
  }
}

TEST(FeatureScaler, TransformIntoMatchesTransformBitwise) {
  FeatureScaler scaler;
  scaler.fit({{0.0, 10.0, 7.0}, {4.0, 20.0, 7.0}});
  const Vector lo{0.0, 10.0, 7.0};
  const Vector hi{4.0, 20.0, 7.0};
  for (const Vector& q :
       {Vector{1.0, 12.0, 7.0}, Vector{-3.0, 25.0, 8.0}, Vector{4.0, 10.0, 7.0}}) {
    const Vector out = scaled(scaler, q);
    ASSERT_EQ(out.size(), q.size());
    for (std::size_t d = 0; d < q.size(); ++d) {
      const double span = hi[d] - lo[d];
      const double want = span <= 0.0 ? 0.0 : 2.0 * (q[d] - lo[d]) / span - 1.0;
      EXPECT_TRUE(bit_equal(out[d], want)) << "dim " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Reference implementation: the original Vector/Matrix MLP, kept
// deliberately simple — the scaler runs per sample per epoch, the forward
// pass allocates one vector per layer, and backpropagation computes the
// layer below's delta in a separate pass before touching any weight. The
// shipped Mlp must reproduce its weights, velocities, epoch errors and
// predictions bit for bit.

class ReferenceMlp {
 public:
  explicit ReferenceMlp(const MlpConfig& config) : config_(config), rng_(config.seed) {
    for (std::size_t l = 0; l + 1 < config_.layer_sizes.size(); ++l) {
      const std::size_t fan_in = config_.layer_sizes[l];
      const std::size_t fan_out = config_.layer_sizes[l + 1];
      Matrix w(fan_out, fan_in + 1);
      const double scale = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
      for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) w(r, c) = rng_.uniform(-scale, scale);
      weights_.push_back(std::move(w));
      velocity_.emplace_back(fan_out, fan_in + 1, 0.0);
    }
  }

  double train_epoch(const std::vector<Vector>& inputs, const std::vector<double>& targets) {
    std::vector<std::size_t> order(inputs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng_.uniform_below(i + 1)]);
    double squared_error = 0.0;
    std::vector<Vector> layer_outputs;
    for (const std::size_t idx : order) {
      const Vector x = scale(inputs[idx]);
      const double target_norm = (targets[idx] - target_mean_) / target_scale_;
      layer_outputs.clear();
      const Vector out = forward(x, &layer_outputs);
      const double error = out[0] - target_norm;
      squared_error += error * error * target_scale_ * target_scale_;
      backward(layer_outputs, error);
    }
    return squared_error / static_cast<double>(inputs.size());
  }

  void fit(const std::vector<Vector>& inputs, const std::vector<double>& targets, int epochs) {
    const std::size_t dim = inputs[0].size();
    lo_.assign(dim, std::numeric_limits<double>::infinity());
    hi_.assign(dim, -std::numeric_limits<double>::infinity());
    for (const Vector& s : inputs)
      for (std::size_t d = 0; d < dim; ++d) {
        lo_[d] = std::min(lo_[d], s[d]);
        hi_[d] = std::max(hi_[d], s[d]);
      }
    double mean = 0.0;
    for (const double t : targets) mean += t;
    mean /= static_cast<double>(targets.size());
    double spread = 0.0;
    for (const double t : targets) spread = std::max(spread, std::fabs(t - mean));
    target_mean_ = mean;
    target_scale_ = spread > 0.0 ? spread : 1.0;

    double best = std::numeric_limits<double>::infinity();
    int stale = 0;
    for (int e = 0; e < epochs; ++e) {
      const double mse = train_epoch(inputs, targets);
      if (mse < best * 0.999) {
        best = mse;
        stale = 0;
      } else if (++stale > 50) {
        break;
      }
    }
  }

  double predict(const Vector& input) const {
    return forward(scale(input), nullptr)[0] * target_scale_ + target_mean_;
  }

  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& velocities() const { return velocity_; }

 private:
  Vector scale(const Vector& x) const {
    Vector out(x.size());
    for (std::size_t d = 0; d < x.size(); ++d) {
      const double span = hi_[d] - lo_[d];
      out[d] = span <= 0.0 ? 0.0 : 2.0 * (x[d] - lo_[d]) / span - 1.0;
    }
    return out;
  }

  double activate(double x) const {
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

  double activate_derivative(double activated) const {
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

  Vector forward(const Vector& scaled_input, std::vector<Vector>* layer_outputs) const {
    Vector current = scaled_input;
    if (layer_outputs) layer_outputs->push_back(current);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      const Matrix& w = weights_[l];
      Vector next(w.rows(), 0.0);
      for (std::size_t r = 0; r < w.rows(); ++r) {
        double sum = w(r, w.cols() - 1);  // bias
        for (std::size_t c = 0; c + 1 < w.cols(); ++c) sum += w(r, c) * current[c];
        next[r] = (l + 1 == weights_.size()) ? sum : activate(sum);
      }
      current = std::move(next);
      if (layer_outputs) layer_outputs->push_back(current);
    }
    return current;
  }

  void backward(const std::vector<Vector>& layer_outputs, double error) {
    Vector delta{error};
    for (std::size_t l = weights_.size(); l-- > 0;) {
      const Vector& input = layer_outputs[l];
      Matrix& w = weights_[l];
      Matrix& v = velocity_[l];
      Vector next_delta;
      if (l > 0) {
        next_delta.assign(input.size(), 0.0);
        for (std::size_t c = 0; c < input.size(); ++c) {
          double sum = 0.0;
          for (std::size_t r = 0; r < w.rows(); ++r) sum += w(r, c) * delta[r];
          next_delta[c] = sum * activate_derivative(input[c]);
        }
      }
      for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) {
          const double x = (c + 1 == w.cols()) ? 1.0 : input[c];
          const double grad = delta[r] * x + config_.l2_penalty * w(r, c);
          v(r, c) = config_.momentum * v(r, c) - config_.learning_rate * grad;
          w(r, c) += v(r, c);
        }
      delta = std::move(next_delta);
    }
  }

  MlpConfig config_;
  std::vector<Matrix> weights_;
  std::vector<Matrix> velocity_;
  Vector lo_, hi_;
  double target_mean_ = 0.0;
  double target_scale_ = 1.0;
  Rng rng_;
};

/// Counts matrix entries that differ bitwise (and fails on shape mismatch).
std::size_t bit_mismatches(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return std::numeric_limits<std::size_t>::max();
  std::size_t mismatches = 0;
  for (std::size_t l = 0; l < a.size(); ++l) {
    if (a[l].rows() != b[l].rows() || a[l].cols() != b[l].cols())
      return std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < a[l].rows(); ++r)
      for (std::size_t c = 0; c < a[l].cols(); ++c)
        if (!bit_equal(a[l](r, c), b[l](r, c))) ++mismatches;
  }
  return mismatches;
}

bool all_finite(const std::vector<Matrix>& layers) {
  for (const Matrix& m : layers)
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t c = 0; c < m.cols(); ++c)
        if (!std::isfinite(m(r, c))) return false;
  return true;
}

/// A smooth target over `dim` inputs, drawn from its own stream.
std::pair<std::vector<Vector>, std::vector<double>> smooth_set(std::size_t dim, int n,
                                                              std::uint64_t seed) {
  Rng rng(seed);
  std::pair<std::vector<Vector>, std::vector<double>> set;
  for (int i = 0; i < n; ++i) {
    Vector x(dim);
    double y = 0.5;
    for (std::size_t d = 0; d < dim; ++d) {
      x[d] = rng.uniform(0.5, 8.0);
      y += std::sin(x[d]) / static_cast<double>(d + 1);
    }
    y += 0.1 * x[0] * x[dim - 1];
    set.first.push_back(std::move(x));
    set.second.push_back(y);
  }
  return set;
}

const std::vector<std::vector<std::size_t>>& reference_shapes() {
  static const std::vector<std::vector<std::size_t>> shapes{
      {1, 1}, {2, 3, 1}, {3, 5, 4, 1}, {4, 6, 5, 3, 1}};
  return shapes;
}

MlpConfig reference_config(const std::vector<std::size_t>& shape, Activation activation,
                           std::uint64_t seed) {
  MlpConfig config;
  config.layer_sizes = shape;
  config.hidden_activation = activation;
  config.learning_rate = 0.02;
  config.seed = seed;
  return config;
}

// Property: the shipped kernel (buffers allocated once, inputs scaled once
// per fit, the layer below's delta fused into the weight update) is the
// reference, bitwise — weights and velocities after every single epoch,
// the epoch errors, and the plateau-stopped fits — across all activations,
// shapes from a bare linear unit to three hidden layers, and warm-started
// refits whose training sets grow and shrink.
TEST(MlpReference, WeightsAndVelocitiesMatchAfterEveryEpoch) {
  constexpr int kEpochsPerSegment = 8;
  const int segment_sizes[] = {23, 41, 9};
  std::uint64_t seed = 100;
  for (const Activation activation :
       {Activation::kTanh, Activation::kRelu, Activation::kIdentity}) {
    for (const std::vector<std::size_t>& shape : reference_shapes()) {
      const MlpConfig config = reference_config(shape, activation, ++seed);
      Mlp mlp(config);
      ReferenceMlp reference(config);
      ASSERT_EQ(bit_mismatches(mlp.weights(), reference.weights()), 0u);
      const std::string where = "activation " + std::to_string(static_cast<int>(activation)) +
                                " depth " + std::to_string(shape.size());
      for (const int n : segment_sizes) {
        const auto set = smooth_set(shape[0], n, seed * 31 + static_cast<std::uint64_t>(n));
        // A one-epoch fit refits scaler and target normalization for the
        // new sample count; train_epoch then continues under them.
        mlp.fit(set.first, set.second, 1);
        reference.fit(set.first, set.second, 1);
        for (int e = 0; e <= kEpochsPerSegment; ++e) {
          ASSERT_EQ(bit_mismatches(mlp.weights(), reference.weights()), 0u)
              << where << " n " << n << " epoch " << e;
          ASSERT_EQ(bit_mismatches(mlp.velocities(), reference.velocities()), 0u)
              << where << " n " << n << " epoch " << e;
          if (e == kEpochsPerSegment) break;
          const double got = mlp.train_epoch(set.first, set.second);
          const double want = reference.train_epoch(set.first, set.second);
          ASSERT_TRUE(bit_equal(got, want)) << where << " n " << n << " epoch " << e;
        }
        // A multi-epoch warm-started fit runs from the per-fit scaled cache,
        // including the plateau stop.
        mlp.fit(set.first, set.second, 90);
        reference.fit(set.first, set.second, 90);
        ASSERT_EQ(bit_mismatches(mlp.weights(), reference.weights()), 0u) << where << " n " << n;
        ASSERT_EQ(bit_mismatches(mlp.velocities(), reference.velocities()), 0u)
            << where << " n " << n;
      }
      EXPECT_TRUE(all_finite(mlp.weights())) << where;
    }
  }
}

// Property: predict and predict_batch are the reference's predictions,
// bitwise, at pool widths 1, 2 and 8 and for batches below, at and above
// the inline grain — chunking never changes a slot.
TEST(MlpReference, PredictAndPredictBatchMatchAtEveryPoolWidth) {
  const std::size_t batch_sizes[] = {Mlp::kPredictGrain - 1, Mlp::kPredictGrain,
                                     Mlp::kPredictGrain + 1, 4 * Mlp::kPredictGrain + 3};
  std::uint64_t seed = 500;
  for (const Activation activation :
       {Activation::kTanh, Activation::kRelu, Activation::kIdentity}) {
    const MlpConfig config = reference_config({3, 8, 6, 1}, activation, ++seed);
    Mlp mlp(config);
    ReferenceMlp reference(config);
    const auto train = smooth_set(3, 60, seed);
    mlp.fit(train.first, train.second, 40);
    reference.fit(train.first, train.second, 40);
    ASSERT_EQ(bit_mismatches(mlp.weights(), reference.weights()), 0u);
    for (const std::size_t count : batch_sizes) {
      const auto query = smooth_set(3, static_cast<int>(count), seed * 7 + count);
      std::vector<double> want(count);
      for (std::size_t i = 0; i < count; ++i) {
        want[i] = reference.predict(query.first[i]);
        ASSERT_TRUE(bit_equal(mlp.predict(query.first[i]), want[i])) << "query " << i;
      }
      for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        exec::set_thread_count(threads);
        const std::vector<double> got = mlp.predict_batch(query.first);
        ASSERT_EQ(got.size(), count);
        for (std::size_t i = 0; i < count; ++i)
          ASSERT_TRUE(bit_equal(got[i], want[i]))
              << "activation " << static_cast<int>(activation) << " batch " << count
              << " threads " << threads << " query " << i;
      }
    }
  }
  exec::set_thread_count(0);
}

// A snapshot carries exactly what fit() writes: a net restored from it
// predicts like the net that trained and, trained further the same way,
// stays bitwise equal to it (scaler, target normalization and shuffle
// stream included).
TEST(Mlp, RestoredNetPredictsAndKeepsTrainingBitwiseLikeTheTrainedNet) {
  const MlpConfig config = reference_config({3, 8, 6, 1}, Activation::kTanh, 41);
  const auto first = smooth_set(3, 50, 41);
  const auto second = smooth_set(3, 70, 42);
  const auto query = smooth_set(3, 40, 43);
  Mlp trained(config);
  trained.fit(first.first, first.second, 30);

  MlpConfig other_seed = config;
  other_seed.seed = 99;  // different initial weights: restore must overwrite them all
  Mlp restored(other_seed);
  ASSERT_TRUE(restored.restore(trained.snapshot()));
  EXPECT_EQ(restored.snapshot(), trained.snapshot());
  for (const Vector& x : query.first)
    EXPECT_TRUE(bit_equal(restored.predict(x), trained.predict(x)));

  trained.fit(second.first, second.second, 25);
  restored.fit(second.first, second.second, 25);
  EXPECT_EQ(bit_mismatches(restored.weights(), trained.weights()), 0u);
  EXPECT_EQ(bit_mismatches(restored.velocities(), trained.velocities()), 0u);
  EXPECT_TRUE(bit_equal(restored.train_epoch(first.first, first.second),
                        trained.train_epoch(first.first, first.second)));
  EXPECT_EQ(restored.snapshot(), trained.snapshot());
  for (const Vector& x : query.first)
    EXPECT_TRUE(bit_equal(restored.predict(x), trained.predict(x)));
}

TEST(Mlp, RestoreRejectsSnapshotsOfAnotherShape) {
  Mlp wide(reference_config({3, 8, 1}, Activation::kTanh, 5));
  Mlp narrow(reference_config({3, 4, 1}, Activation::kTanh, 5));
  const auto train = smooth_set(3, 20, 5);
  wide.fit(train.first, train.second, 5);
  const std::string before = narrow.snapshot();
  EXPECT_FALSE(narrow.restore(wide.snapshot()));
  const std::string snapshot = wide.snapshot();
  EXPECT_FALSE(wide.restore(std::string_view(snapshot).substr(0, snapshot.size() - 1)));
  EXPECT_FALSE(narrow.restore(""));
  EXPECT_EQ(narrow.snapshot(), before);  // a rejected restore changes nothing
  EXPECT_EQ(wide.snapshot(), snapshot);
}

// fit_key is what a memoized fit is looked up by, so it must change with
// every input fit() reads and with nothing else.
TEST(Mlp, FitKeyChangesWithEveryInputOfFit) {
  const MlpConfig config = reference_config({3, 6, 1}, Activation::kTanh, 8);
  const auto train = smooth_set(3, 30, 8);
  const Mlp net(config);
  const std::string key = net.fit_key(train.first, train.second, 20);
  EXPECT_EQ(Mlp(config).fit_key(train.first, train.second, 20), key);

  MlpConfig faster = config;
  faster.learning_rate *= 2.0;
  EXPECT_NE(Mlp(faster).fit_key(train.first, train.second, 20), key);
  Mlp trained(config);
  trained.fit(train.first, train.second, 3);
  EXPECT_NE(trained.fit_key(train.first, train.second, 20), key);
  auto targets = train.second;
  targets.back() += 1e-9;
  EXPECT_NE(net.fit_key(train.first, targets, 20), key);
  EXPECT_NE(net.fit_key(train.first, train.second, 21), key);
}

}  // namespace
}  // namespace c2b
