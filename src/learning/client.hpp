#pragma once
// Client-side computation shared by both trainers.  A client owns no model:
// it is its shard of the training partition, the dataset it reads and its
// RNG stream.  Its stochastic gradients (Equation 2 of the paper) and the
// evaluations run on scratch models, one per worker lane.

#include <cstddef>
#include <functional>
#include <vector>

#include "learning/config.hpp"
#include "linalg/vector_ops.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"

namespace bcl {

/// Builds a fresh (uninitialized) model: one scratch model per lane.
using ModelFactory = std::function<ml::Model()>;

/// Sets `parameters` on `scratch`, samples one mini-batch of `shard` from
/// `rng` (with replacement) and writes the gradient into
/// out_gradient[0..parameter_count) — typically a GradientBatch row.
/// Returns the mini-batch loss.  The scratch model's state is fully
/// overwritten, so which model computes a given (parameters, shard, rng)
/// triple never affects the result.
double stochastic_gradient_with(ml::Model& scratch, const ml::Dataset& data,
                                const std::vector<std::size_t>& shard,
                                std::size_t batch_size, Rng& rng,
                                const Vector& parameters, double* out_gradient);

/// The first `max_examples` rows of an evaluation set (0 = all) and their
/// labels, gathered once per run: every evaluation reads this batch
/// instead of copying the rows out of the dataset again.
struct EvalBatch {
  EvalBatch(const ml::Dataset& eval_set, std::size_t max_examples);
  ml::Tensor inputs;
  std::vector<std::uint8_t> labels;
};

/// Accuracy at `parameters` on `eval`, computed by an inference pass on
/// `scratch`; depends only on the parameter bytes.
double evaluate_with(ml::Model& scratch, const Vector& parameters,
                     const EvalBatch& eval);

/// The per-client state of both trainers and its lane models.  Client i
/// samples config.batch_size examples from its shard of the partition
/// drawn from root.split(1) — the whole training set if that shard is
/// empty (more clients than examples) — with the stream root.split(100 +
/// i).  Byzantine ids (the last f) read the label-poisoned copy when the
/// attack poisons data.  There are config.pool->size() + 1 lane models, or
/// one without a pool.
class ClientLanes {
 public:
  /// `train` must outlive the object.
  ClientLanes(const TrainingConfig& config, const ModelFactory& factory,
              const ml::Dataset& train, const Rng& root);
  ClientLanes(const ClientLanes&) = delete;
  ClientLanes& operator=(const ClientLanes&) = delete;

  /// The model every client starts from: lane 0 initialized from
  /// root.split(2).
  Vector initial_parameters(const Rng& root);

  /// Client i's stochastic gradient at `parameters`, computed on `lane`
  /// into out_gradient[0..d); returns the mini-batch loss.
  double gradient(ml::Model& lane, std::size_t i, const Vector& parameters,
                  double* out_gradient);

  /// Runs fn(lane model, k) for every k in [0, count).  With a pool and
  /// count > 1 each lane takes one contiguous chunk of k, so a lane model
  /// is touched by one worker only; otherwise all of it runs on lane 0.
  void for_each(std::size_t count,
                const std::function<void(ml::Model&, std::size_t)>& fn);

  /// Lane 0's model, for work on the calling thread.
  ml::Model& first_lane() { return lanes_.front(); }

 private:
  ThreadPool* pool_;
  std::size_t batch_size_;
  std::size_t honest_;
  const ml::Dataset* train_;
  ml::Dataset poisoned_;
  const ml::Dataset* byzantine_train_;
  std::vector<std::vector<std::size_t>> shards_;
  std::vector<std::size_t> whole_set_;
  std::vector<Rng> rngs_;
  std::vector<ml::Model> lanes_;
};

}  // namespace bcl
