#pragma once
// A collaborative-learning client: owns its local data shard, its model
// replica and its private RNG stream, and produces stochastic gradient
// estimates (Equation 2 of the paper) at requested parameter points.

#include <cstddef>
#include <functional>

#include "linalg/vector_ops.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"

namespace bcl {

/// Builds a fresh (uninitialized) model replica; every client gets its own
/// instance so gradient computation parallelizes without shared state.
using ModelFactory = std::function<ml::Model()>;

struct GradientEstimate {
  Vector gradient;
  double loss = 0.0;
};

/// The arithmetic of Client::stochastic_gradient_into as a free function
/// over a caller-provided scratch model: sets `parameters` on `scratch`,
/// samples one mini-batch of `shard` from `rng` (with replacement) and
/// writes the gradient into out_gradient[0..parameter_count).  Returns the
/// mini-batch loss.  The scratch model's state is fully overwritten, so
/// which replica computes a given (parameters, shard, rng) triple never
/// affects the result — the centralized trainer runs one replica per
/// worker lane over many clients and stays bitwise identical to the
/// replica-per-client path.
double stochastic_gradient_with(ml::Model& scratch, const ml::Dataset& data,
                                const std::vector<std::size_t>& shard,
                                std::size_t batch_size, Rng& rng,
                                const Vector& parameters, double* out_gradient);

/// Client::evaluate as a free function over a scratch model (stateless
/// given `parameters`; same sharing rationale as stochastic_gradient_with).
double evaluate_with(ml::Model& scratch, const Vector& parameters,
                     const ml::Dataset& eval_set, std::size_t max_examples = 0);

class Client {
 public:
  /// `shard` indexes into `data` (not owned; must outlive the client).
  Client(std::size_t id, const ml::Dataset* data,
         std::vector<std::size_t> shard, const ModelFactory& factory,
         std::size_t batch_size, Rng rng);

  std::size_t id() const { return id_; }
  std::size_t shard_size() const { return shard_.size(); }

  /// Stochastic gradient of the local loss at `parameters`, from one random
  /// mini-batch of the shard (sampling with replacement).
  GradientEstimate stochastic_gradient(const Vector& parameters);

  /// Same computation, but the gradient is written directly into
  /// out_gradient[0..parameter_count) — typically a GradientBatch row — so
  /// the per-round gradient never passes through an intermediate Vector.
  /// Returns the mini-batch loss.  Consumes the same RNG stream as
  /// stochastic_gradient, so the two are interchangeable round for round.
  double stochastic_gradient_into(const Vector& parameters,
                                  double* out_gradient);

  /// Accuracy of the model at `parameters` on an arbitrary evaluation set.
  double evaluate(const Vector& parameters, const ml::Dataset& eval_set,
                  std::size_t max_examples = 0);

 private:
  std::size_t id_;
  const ml::Dataset* data_;
  std::vector<std::size_t> shard_;
  ml::Model model_;
  std::size_t batch_size_;
  Rng rng_;
};

}  // namespace bcl
