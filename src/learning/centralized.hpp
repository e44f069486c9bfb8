#pragma once
// Centralized collaborative learning (Section 2.1): a trusted server holds
// the global model; every round clients compute stochastic gradients at the
// global parameters, Byzantine clients corrupt theirs, the server
// aggregates the submissions with the configured rule and applies one SGD
// step.  Reproduces the Figure 1 / Figure 2 experiments.
//
// One round loop serves every membership mode.  Each round runs, in order:
//   1. members   the cohort sample (all n ids without cohort=) intersected
//                with the FaultPlan's liveness; a live member with no
//                upload in flight starts a gradient;
//   2. gradients per-lane scratch models (stochastic_gradient_with), so no
//                client owns a model replica;
//   3. arrivals  a fresh upload is written straight into the round's
//                GradientBatch row; only an upload landing in a later round
//                (a straggler, or an attack choosing staleness) is carried
//                in flight, and lands with weight decay^staleness if it is
//                at most tau versions old;
//   4. attack    Byzantine arrivals corrupt their rows against the honest
//                arrivals; a silent client's row is dropped;
//   5. aggregate one step through aggregate_sharded (the rule itself with
//                one shard), with the sparse Gram build when every row
//                arrived sparse-encoded at weight 1, and sketch= applied by
//                inbox size;
//   6. finish    downlink error feedback, SGD, evaluation, honest-gradient
//                diameter, star pricing and byte accounting.
//
// The rule's (n, t): n is the number of uploads due this round, a silent
// Byzantine client included, and t is clamp_byzantine_budget(t, n).  A
// round whose inbox is below n - t, or below the stale quorum, leaves the
// model unchanged and is counted degraded.  With a full cohort, or with
// every upload fresh, the loop replays the plain run bitwise
// (test-enforced).

#include "learning/client.hpp"
#include "learning/config.hpp"

namespace bcl {

class CentralizedTrainer {
 public:
  /// `train` and `test` must outlive the trainer.  Clients are the shards
  /// of the partition scheme in the config; the last f client ids are
  /// Byzantine.
  CentralizedTrainer(TrainingConfig config, ModelFactory factory,
                     const ml::Dataset* train, const ml::Dataset* test);

  /// Runs the full training loop; returns the per-round history of the
  /// global model.
  TrainingResult run();

  /// The global parameter vector (valid after run()).
  const Vector& parameters() const { return global_params_; }

 private:
  TrainingConfig config_;
  ModelFactory factory_;
  const ml::Dataset* train_;
  const ml::Dataset* test_;
  Vector global_params_;
};

}  // namespace bcl
