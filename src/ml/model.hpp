#pragma once
// Sequential model with a flat parameter/gradient vector interface.
//
// The collaborative-learning layer treats a model as a point theta in R^d
// and a gradient as a vector in R^d (Section 2.1): Model bridges the layer
// stack and that flat view, so aggregation rules stay oblivious to the
// architecture.

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "ml/layer.hpp"
#include "ml/loss.hpp"

namespace bcl::ml {

class Model {
 public:
  Model() = default;

  /// Appends a layer (builder style).
  Model& add(std::unique_ptr<Layer> layer);

  std::size_t num_layers() const { return layers_.size(); }

  /// Total trainable parameter count d.
  std::size_t parameter_count() const;

  /// Initializes all layers from the rng (deterministic per seed).
  void initialize(Rng& rng);

  /// Flat parameter vector theta in layer order.
  Vector parameters() const;

  /// Overwrites all parameters from a flat vector (size must equal
  /// parameter_count()).
  void set_parameters(const Vector& theta);

  /// Flat gradient accumulated by the last backward pass.
  Vector gradients() const;

  /// Writes the flat gradient into dst[0..parameter_count()) — the
  /// zero-intermediate path clients use to deposit gradients directly into
  /// a shared GradientBatch row.
  void read_gradients(double* dst) const;

  void zero_gradients();

  /// Forward pass through all layers.
  Tensor forward(const Tensor& input);

  /// Inference pass through all layers (Layer::infer): forward()'s output
  /// bits, with no state kept for backward().
  Tensor infer(const Tensor& input);

  /// Backward pass from dLoss/dOutput.
  void backward(const Tensor& grad_output);

  /// One-shot loss + gradient on a batch: zeroes gradients, runs forward,
  /// softmax cross-entropy, backward; returns the mean loss.  Afterwards
  /// gradients() holds dLoss/dtheta.
  double compute_loss_and_gradient(const Tensor& batch,
                                   const std::vector<std::uint8_t>& labels);

  /// Mean loss without touching gradients (an inference pass).
  double compute_loss(const Tensor& batch,
                      const std::vector<std::uint8_t>& labels);

  /// Fraction of correctly classified rows (an inference pass).
  double accuracy(const Tensor& batch, const std::vector<std::uint8_t>& labels);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace bcl::ml
