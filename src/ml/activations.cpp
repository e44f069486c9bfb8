#include "ml/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace bcl::ml {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  return infer(input);
}

Tensor ReLU::infer(const Tensor& input) {
  Tensor output = input;
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (output[i] < 0.0) output[i] = 0.0;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (grad_output.size() != cached_input_.size()) {
    throw std::logic_error("ReLU::backward: no matching forward pass");
  }
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    if (cached_input_[i] <= 0.0) grad_input[i] = 0.0;
  }
  return grad_input;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor output = infer(input);
  cached_output_ = output;
  return output;
}

Tensor Tanh::infer(const Tensor& input) {
  Tensor output = input;
  for (std::size_t i = 0; i < output.size(); ++i) {
    output[i] = std::tanh(output[i]);
  }
  return output;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (grad_output.size() != cached_output_.size()) {
    throw std::logic_error("Tanh::backward: no matching forward pass");
  }
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    grad_input[i] *= 1.0 - cached_output_[i] * cached_output_[i];
  }
  return grad_input;
}

}  // namespace bcl::ml
