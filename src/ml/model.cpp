#include "ml/model.hpp"

#include <stdexcept>

namespace bcl::ml {

Model& Model::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

std::size_t Model::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

void Model::initialize(Rng& rng) {
  for (auto& layer : layers_) layer->initialize(rng);
}

Vector Model::parameters() const {
  Vector theta(parameter_count());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    layer->read_parameters(theta.data() + offset);
    offset += layer->parameter_count();
  }
  return theta;
}

void Model::set_parameters(const Vector& theta) {
  if (theta.size() != parameter_count()) {
    throw std::invalid_argument("Model::set_parameters: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    layer->write_parameters(theta.data() + offset);
    offset += layer->parameter_count();
  }
}

Vector Model::gradients() const {
  Vector grad(parameter_count());
  read_gradients(grad.data());
  return grad;
}

void Model::read_gradients(double* dst) const {
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    layer->read_gradients(dst + offset);
    offset += layer->parameter_count();
  }
}

void Model::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

namespace {

// Runs `input` through the layers with `pass`; the first layer reads the
// input in place, so the input itself is never copied.
template <typename Pass>
Tensor run_layers(const std::vector<std::unique_ptr<Layer>>& layers,
                  const Tensor& input, Pass pass) {
  if (layers.empty()) return input;
  Tensor x = pass(*layers.front(), input);
  for (std::size_t i = 1; i < layers.size(); ++i) x = pass(*layers[i], x);
  return x;
}

}  // namespace

Tensor Model::forward(const Tensor& input) {
  return run_layers(layers_, input, [](Layer& layer, const Tensor& x) {
    return layer.forward(x);
  });
}

Tensor Model::infer(const Tensor& input) {
  return run_layers(layers_, input, [](Layer& layer, const Tensor& x) {
    return layer.infer(x);
  });
}

void Model::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
}

double Model::compute_loss_and_gradient(
    const Tensor& batch, const std::vector<std::uint8_t>& labels) {
  zero_gradients();
  const Tensor logits = forward(batch);
  LossResult loss = softmax_cross_entropy(logits, labels);
  backward(loss.grad_logits);
  return loss.loss;
}

double Model::compute_loss(const Tensor& batch,
                           const std::vector<std::uint8_t>& labels) {
  const Tensor logits = infer(batch);
  return softmax_cross_entropy(logits, labels).loss;
}

double Model::accuracy(const Tensor& batch,
                       const std::vector<std::uint8_t>& labels) {
  const Tensor logits = infer(batch);
  const auto predictions = argmax_rows(logits);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return predictions.empty()
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(predictions.size());
}

}  // namespace bcl::ml
