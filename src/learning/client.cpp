#include "learning/client.hpp"

#include <algorithm>
#include <numeric>

#include "util/thread_pool.hpp"

namespace bcl {

double stochastic_gradient_with(ml::Model& scratch, const ml::Dataset& data,
                                const std::vector<std::size_t>& shard,
                                std::size_t batch_size, Rng& rng,
                                const Vector& parameters,
                                double* out_gradient) {
  scratch.set_parameters(parameters);
  const std::size_t batch = std::min(batch_size, shard.size());
  std::vector<std::size_t> indices(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    indices[i] = shard[rng.uniform_u64(shard.size())];
  }
  const double loss = scratch.compute_loss_and_gradient(
      data.batch(indices), data.batch_labels(indices));
  scratch.read_gradients(out_gradient);
  return loss;
}

EvalBatch::EvalBatch(const ml::Dataset& eval_set, std::size_t max_examples) {
  std::size_t count = eval_set.size();
  if (max_examples > 0) count = std::min(count, max_examples);
  std::vector<std::size_t> indices(count);
  std::iota(indices.begin(), indices.end(), 0);
  inputs = eval_set.batch(indices);
  labels = eval_set.batch_labels(indices);
}

double evaluate_with(ml::Model& scratch, const Vector& parameters,
                     const EvalBatch& eval) {
  scratch.set_parameters(parameters);
  return scratch.accuracy(eval.inputs, eval.labels);
}

ClientLanes::ClientLanes(const TrainingConfig& config,
                         const ModelFactory& factory, const ml::Dataset& train,
                         const Rng& root)
    : pool_(config.pool),
      batch_size_(config.batch_size),
      honest_(config.num_clients - config.num_byzantine),
      train_(&train) {
  Rng partition_rng = root.split(1);
  shards_ = ml::partition_dataset(train, config.num_clients,
                                  config.heterogeneity, partition_rng);
  // Data-poisoning attacks (label-flip) corrupt the Byzantine shards here:
  // those clients then train honestly on a poisoned copy of the training
  // set, so their "own gradient" is already attacked.
  byzantine_train_ = poison_byzantine_shards(
      *config.attack, train, shards_, config.num_byzantine, poisoned_);
  if (std::any_of(shards_.begin(), shards_.end(),
                  [](const auto& shard) { return shard.empty(); })) {
    whole_set_.resize(train.size());
    std::iota(whole_set_.begin(), whole_set_.end(), std::size_t{0});
  }
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    rngs_.push_back(root.split(100 + i));
  }
  lanes_.resize(pool_ != nullptr ? pool_->size() + 1 : 1);
  for (ml::Model& lane : lanes_) lane = factory();
}

Vector ClientLanes::initial_parameters(const Rng& root) {
  Rng init_rng = root.split(2);
  lanes_.front().initialize(init_rng);
  return lanes_.front().parameters();
}

double ClientLanes::gradient(ml::Model& lane, std::size_t i,
                             const Vector& parameters, double* out_gradient) {
  return stochastic_gradient_with(
      lane, i < honest_ ? *train_ : *byzantine_train_,
      shards_[i].empty() ? whole_set_ : shards_[i], batch_size_, rngs_[i],
      parameters, out_gradient);
}

void ClientLanes::for_each(
    std::size_t count,
    const std::function<void(ml::Model&, std::size_t)>& fn) {
  if (pool_ == nullptr || count <= 1) {
    for (std::size_t k = 0; k < count; ++k) fn(lanes_.front(), k);
    return;
  }
  const std::size_t chunk = (count + lanes_.size() - 1) / lanes_.size();
  pool_->parallel_for(0, lanes_.size(), [&](std::size_t l) {
    const std::size_t end = std::min(count, (l + 1) * chunk);
    for (std::size_t k = l * chunk; k < end; ++k) fn(lanes_[l], k);
  });
}

}  // namespace bcl
