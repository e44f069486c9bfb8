#pragma once
// Elementwise activation layers.

#include "ml/layer.hpp"

namespace bcl::ml {

/// max(0, x).
class ReLU final : public Layer {
 public:
  std::string name() const override { return "ReLU"; }
  Tensor forward(const Tensor& input) override;
  Tensor infer(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
};

/// tanh(x); used by the smaller test models where a smooth activation makes
/// finite-difference gradient checks tighter.
class Tanh final : public Layer {
 public:
  std::string name() const override { return "Tanh"; }
  Tensor forward(const Tensor& input) override;
  Tensor infer(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

}  // namespace bcl::ml
