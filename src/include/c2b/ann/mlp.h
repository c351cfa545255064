#pragma once

// Feed-forward neural network with backpropagation — the machine-learning
// DSE baseline the paper compares APS against (Ipek et al. [2]). A small
// MLP is trained on (design point -> performance) samples and queried over
// the whole space; the active-learning driver in src/aps grows the training
// set until the prediction error matches APS's, counting how many
// simulations that takes (the paper's 613).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "c2b/common/rng.h"
#include "c2b/linalg/matrix.h"

namespace c2b {

enum class Activation { kTanh, kRelu, kIdentity };

struct MlpConfig {
  std::vector<std::size_t> layer_sizes;  ///< e.g. {6, 16, 16, 1}
  Activation hidden_activation = Activation::kTanh;
  double learning_rate = 0.01;
  double momentum = 0.9;
  double l2_penalty = 1e-5;
  std::uint64_t seed = 7;
};

/// Min/max feature scaling to [-1, 1], fitted on the training set and
/// applied to every query (constant features map to 0). The map is affine
/// per dimension, so any training sample round-trips exactly:
/// x == lo + (t + 1) / 2 * (hi - lo) for t = the scaled image of x.
class FeatureScaler {
 public:
  void fit(const std::vector<Vector>& samples);
  /// Writes the x.size() scaled coordinates of x to out[0..x.size()) —
  /// allocation-free, so the MLP scales straight into its activation
  /// buffers.
  void transform_into(const Vector& x, double* out) const;
  bool fitted() const noexcept { return !lo_.empty(); }

 private:
  friend class Mlp;  // snapshot() and restore() carry the bounds
  Vector lo_, hi_;
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  /// One SGD epoch over the batch (shuffled) under the scaler and target
  /// normalization of the last fit(); returns the epoch's mean squared
  /// error on raw (unscaled) targets. Rescales the batch on every call;
  /// fit() scales its training set once for all of its epochs.
  double train_epoch(const std::vector<Vector>& inputs, const std::vector<double>& targets);

  /// Train until `epochs` or an MSE plateau; inputs are raw design points —
  /// the scaler and target normalization are fitted internally. Training is
  /// serial SGD over buffers allocated once, so a refit performs no
  /// per-sample allocation; refits warm-start from the current weights.
  void fit(const std::vector<Vector>& inputs, const std::vector<double>& targets, int epochs);

  double predict(const Vector& input) const;

  /// Batches at most this long are predicted inline on the caller; longer
  /// ones are split over the pool in chunks of at least this many inputs.
  static constexpr std::size_t kPredictGrain = 512;

  /// out[i] == predict(inputs[i]), bitwise, at every pool width: the inputs
  /// are mapped over exec::ThreadPool::global(), each chunk runs the
  /// forward kernel over its own activation scratch, and each prediction
  /// lands in its own index-ordered slot (nothing reduces across inputs).
  std::vector<double> predict_batch(const std::vector<Vector>& inputs) const;

  /// Targets with |truth| below this are skipped by mean_relative_error —
  /// a relative error against a (near-)zero denominator is unbounded noise,
  /// not signal. Documented here so callers know a zero-valued target never
  /// produces inf/NaN.
  static constexpr double kMreEpsilon = 1e-12;

  /// Mean relative error |pred - truth| / |truth| over a labeled set;
  /// targets with |truth| < kMreEpsilon are skipped (0.0 if all are).
  double mean_relative_error(const std::vector<Vector>& inputs,
                             const std::vector<double>& targets) const;

  const MlpConfig& config() const noexcept { return config_; }

  /// Trained weight matrices, layer l shaped (out, in+1) with a trailing
  /// bias column, and their SGD momentum terms (same shapes) — exposed so
  /// tests can assert bitwise equality of nets against each other and
  /// against a reference implementation.
  const std::vector<Matrix>& weights() const noexcept { return weights_; }
  const std::vector<Matrix>& velocities() const noexcept { return velocity_; }

  /// Exactly the state fit() writes, as bytes: the scaler bounds, the
  /// target mean and scale, the Rng state, then each layer's weights and
  /// velocities. A net of the same config that restore()s them predicts
  /// and keeps training bitwise like this one. The doubles are the host's
  /// native bytes: a snapshot is for this host's cache, not for exchange.
  std::string snapshot() const;
  /// Loads a snapshot(). Returns false, leaving the net untouched, when
  /// `bytes` is not the size of a snapshot of this layer shape.
  bool restore(std::string_view bytes);

  /// The exact bytes of everything fit(inputs, targets, epochs) reads: the
  /// layer shape and hyper-parameters, snapshot() (the state before the
  /// fit), the inputs and targets as passed, and `epochs`. Equal keys
  /// leave bitwise-equal nets, so a fit can be memoized under its key.
  std::string fit_key(const std::vector<Vector>& inputs, const std::vector<double>& targets,
                      int epochs) const;

 private:
  /// The one forward kernel, shared by training, predict and
  /// predict_batch: runs a scaled input through every layer, writing each
  /// layer's outputs to acts back to back (acts holds acts_.size()
  /// doubles), and returns the normalized output. Allocation-free.
  double forward(const double* scaled_input, double* acts) const;
  /// Backpropagates one sample whose normalized output error is `error`
  /// through the activations forward() left in acts_, and applies the
  /// momentum-SGD update to every layer.
  void sgd_step(const double* scaled_input, double error);
  /// Scales `inputs` and normalizes `targets` into the per-fit caches.
  void cache_training_set(const std::vector<Vector>& inputs, const std::vector<double>& targets);
  /// One shuffled SGD pass over the cached training set; returns the MSE
  /// on raw targets.
  double run_epoch();
  double predict_into(const Vector& input, double* scratch) const;
  double activate(double x) const;
  double activate_derivative(double activated) const;

  MlpConfig config_;
  std::vector<Matrix> weights_;  ///< weights_[l]: (out, in+1) with bias column
  std::vector<Matrix> velocity_;
  FeatureScaler scaler_;
  double target_mean_ = 0.0;
  double target_scale_ = 1.0;
  Rng rng_;
  // Training buffers, sized once in the constructor (activations, deltas)
  // or once per fit (the scaled inputs, normalized targets, and order).
  std::vector<double> acts_;  ///< every layer's outputs, back to back
  std::vector<double> delta_, next_delta_;
  std::vector<double> scaled_x_;  ///< row-major, layer_sizes[0] per sample
  std::vector<double> norm_y_;
  std::vector<std::size_t> order_;
};

}  // namespace c2b
