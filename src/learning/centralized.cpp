#include "learning/centralized.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "aggregation/budget.hpp"
#include "aggregation/registry.hpp"
#include "aggregation/sharded.hpp"
#include "compression/codec.hpp"
#include "faults/fault_plan.hpp"
#include "linalg/distance_matrix.hpp"
#include "linalg/gradient_batch.hpp"
#include "linalg/sparse_rows.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace bcl {

namespace {

// Round distributions; no-op without a registry.
void publish_round_histograms(obs::MetricsRegistry* registry,
                              const RoundMetrics& metrics) {
  if (registry == nullptr) return;
  registry->histogram("round.wall_seconds").record(metrics.seconds);
  registry->histogram("round.sim_seconds").record(metrics.sim_seconds);
  registry->histogram("round.bytes").record(metrics.bytes_delivered);
}

/// SKETCH-* counterpart of a rule, or nullptr when the registry has none
/// (the sketched screen only exists for the Krum family and MD-MEAN).
AggregationRulePtr sketched_counterpart(const AggregationRulePtr& rule) {
  if (rule == nullptr) return nullptr;
  const std::string name = rule->name();
  if (name == "KRUM" || name == "MD-MEAN" ||
      name.rfind("MULTIKRUM-", 0) == 0) {
    return make_rule("SKETCH-" + name);
  }
  return nullptr;
}

/// One client upload: a gradient computed against model version `version`
/// that reaches the server in round `ready`.  A fresh upload (ready ==
/// version) is computed straight into its round's batch row, so `grad` is
/// only filled while an upload is in flight across rounds.
struct Upload {
  std::size_t id = 0;
  std::size_t version = 0;
  std::size_t ready = 0;
  double loss = 0.0;
  std::size_t wire = 0;  // bytes on the wire; 0 = silent, nothing sent
  std::optional<CompressedGradient> encoded;  // codec form, if any
  Vector grad;
};

}  // namespace

CentralizedTrainer::CentralizedTrainer(TrainingConfig config,
                                       ModelFactory factory,
                                       const ml::Dataset* train,
                                       const ml::Dataset* test)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      train_(train),
      test_(test) {
  validate_config(config_);
  if (train_ == nullptr || test_ == nullptr) {
    throw std::invalid_argument("CentralizedTrainer: null dataset");
  }
}

TrainingResult CentralizedTrainer::run() {
  const std::size_t n = config_.num_clients;
  const std::size_t f = config_.num_byzantine;
  const std::size_t t = config_.resolved_t();
  const std::size_t honest_n = n - f;  // Byzantine ids are the last f
  Rng root(config_.seed);

  ClientLanes clients(config_, factory_, *train_, root);
  global_params_ = clients.initial_parameters(root);
  const EvalBatch eval(*test_, config_.eval_max_examples);
  Rng attack_rng = root.split(3);
  const std::size_t dim = global_params_.size();

  // Simulated star network (async NetConfig only): the server waits for
  // the quorum-th upload, then broadcasts back.
  std::unique_ptr<DelayModel> delay_model;
  if (config_.net.async) delay_model = make_delay_model(config_.net, n);
  // Gradient compression: honest uploads and the server's broadcast go
  // through the codec with error feedback (clients 0..n-1, server id n).
  // The identity codec takes the codec-free path; wire sizes stay dense.
  const Codec* codec =
      config_.codec != nullptr && !config_.codec->identity()
          ? config_.codec.get()
          : nullptr;
  ErrorFeedback error_feedback(n + 1);

  // The liveness schedule, expanded once; every membership decision is a
  // const read of it, so serial and --jobs runs replay bitwise.
  const FaultPlan plan(config_.faults, n, config_.rounds, config_.seed);
  const bool elastic = plan.any() || config_.stale.enabled();
  const std::size_t tau = config_.stale.tau;  // 0 = only fresh arrivals
  // The stale quorum: a live fraction, or the Byzantine-safe members - t.
  const auto quorum_of = [&](std::size_t members) {
    const std::size_t need =
        config_.stale.quorum > 0.0
            ? static_cast<std::size_t>(std::ceil(
                  config_.stale.quorum * static_cast<double>(members)))
            : (members > t ? members - t : 1);
    return std::max<std::size_t>(need, 1);
  };
  const std::size_t configured_quorum = quorum_of(n);

  // Hierarchical aggregation: shard rule and root rule (empty root = the
  // scenario rule), and their SKETCH-* counterparts for sketch=on/auto.
  const AggregationRulePtr root_rule = config_.cohort.root.empty()
                                           ? config_.rule
                                           : make_rule(config_.cohort.root);
  const AggregationRulePtr sketch_shard =
      config_.sketch != "off" ? sketched_counterpart(config_.rule) : nullptr;
  const AggregationRulePtr sketch_root =
      config_.sketch != "off" ? sketched_counterpart(root_rule) : nullptr;

  // Uploads that land in a later round than they were computed (stragglers
  // and staleness-choosing attacks), keyed by client id.
  std::map<std::size_t, Upload> in_flight;
  TrainingResult result;
  result.history.reserve(config_.rounds);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    Stopwatch round_watch;
    BCL_TRACE_SPAN("round");

    // 1. Members: the round's sample (every id without cohort=), ascending
    // so honest members come first.  Live members that are not waiting on
    // an in-flight upload start a gradient against the current model.
    std::vector<std::size_t> sample;
    if (config_.cohort.enabled()) {
      sample = sample_cohort(config_.cohort, n, config_.seed, round);
    } else {
      sample.resize(n);
      std::iota(sample.begin(), sample.end(), std::size_t{0});
    }
    // 2/3. Arrivals, decided before any gradient exists.  A starter's
    // upload lands after its straggler lag (honest) or the attack's chosen
    // staleness (Byzantine, clamped to tau); a lag of 0 makes it fresh.
    // An in-flight upload due now is lost if its owner is down and
    // rejected if older than tau.
    std::vector<Upload> inbox;
    std::vector<std::size_t> starters;
    for (const std::size_t i : sample) {
      if (!plan.alive(i, round) || in_flight.contains(i)) continue;
      const std::size_t lag =
          i < honest_n
              ? static_cast<std::size_t>(std::ceil(plan.slowdown(i)) - 1.0)
              : std::min(config_.attack->submit_staleness(round, tau), tau);
      starters.push_back(i);
      Upload upload;
      upload.id = i;
      upload.version = round;
      upload.ready = round + lag;
      if (lag == 0) {
        inbox.push_back(std::move(upload));
      } else {
        upload.grad.assign(dim, 0.0);
        in_flight[i] = std::move(upload);
      }
    }
    std::size_t stale_accepted = 0, stale_rejected = 0;
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->second.ready > round) {
        ++it;
        continue;
      }
      const std::size_t staleness = round - it->second.version;
      if (plan.alive(it->first, round) && staleness <= tau) {
        if (staleness > 0) ++stale_accepted;
        inbox.push_back(std::move(it->second));
      } else if (plan.alive(it->first, round)) {
        ++stale_rejected;
      }
      it = in_flight.erase(it);
    }
    std::sort(inbox.begin(), inbox.end(),
              [](const Upload& a, const Upload& b) { return a.id < b.id; });
    const std::size_t honest_rows = static_cast<std::size_t>(
        std::find_if(inbox.begin(), inbox.end(),
                     [&](const Upload& u) { return u.id >= honest_n; }) -
        inbox.begin());
    GradientBatch batch(inbox.size(), dim);
    for (std::size_t r = 0; r < inbox.size(); ++r) {
      if (inbox[r].grad.empty()) continue;  // fresh: computed below
      std::copy(inbox[r].grad.begin(), inbox[r].grad.end(), batch.row(r));
      Vector().swap(inbox[r].grad);
    }
    // Fresh gradients go straight into their batch rows, delayed ones into
    // their in-flight payload.
    std::vector<Upload*> started(starters.size());
    std::vector<double*> targets(starters.size());
    for (std::size_t s = 0, r = 0; s < starters.size(); ++s) {
      while (r < inbox.size() && inbox[r].id < starters[s]) ++r;
      const bool fresh = r < inbox.size() && inbox[r].id == starters[s];
      started[s] = fresh ? &inbox[r] : &in_flight[starters[s]];
      targets[s] = fresh ? batch.row(r) : started[s]->grad.data();
    }
    {
      BCL_TRACE_SPAN("grad.compute");
      clients.for_each(starters.size(), [&](ml::Model& lane, std::size_t s) {
        started[s]->wire = dense_wire_bytes(dim);
        started[s]->loss =
            clients.gradient(lane, starters[s], global_params_, targets[s]);
      });
    }
    // EF-compress the honest uploads in place: the server (and the attack,
    // which observes wire traffic) sees the lossy decodes.
    if (codec != nullptr) {
      BCL_TRACE_SPAN("codec.encode");
      for (std::size_t s = 0; s < starters.size(); ++s) {
        if (starters[s] >= honest_n) continue;
        Upload& upload = *started[s];
        upload.encoded = error_feedback.compress(
            *codec, config_.seed, starters[s], round, targets[s], dim);
        upload.encoded->decode_into(targets[s]);
        upload.wire = upload.encoded->wire_bytes();
      }
    }
    double honest_loss = 0.0;
    for (std::size_t r = 0; r < honest_rows; ++r) honest_loss += inbox[r].loss;
    if (honest_rows > 0) honest_loss /= static_cast<double>(honest_rows);

    // 4. Attack: the Byzantine arrivals corrupt their rows against the
    // honest arrivals (rushing within the round).  With a codec the
    // adversary speaks the wire format too, without error feedback.  A
    // silent client sends nothing; the surviving rows are compacted.
    const std::size_t due = inbox.size();
    std::size_t rows = due;
    if (honest_rows < due) {
      BCL_TRACE_SPAN("attack.corrupt");
      VectorList honest;
      honest.reserve(honest_rows);
      for (std::size_t r = 0; r < honest_rows; ++r) {
        honest.push_back(batch.row_copy(r));
      }
      rows = honest_rows;
      for (std::size_t r = honest_rows; r < due; ++r) {
        Upload& upload = inbox[r];
        auto corrupted = config_.attack->corrupt(batch.row_copy(r), honest,
                                                 round, attack_rng);
        if (!corrupted) {
          upload.wire = 0;
          continue;
        }
        if (codec != nullptr) {
          upload.encoded = codec->encode(corrupted->data(), dim, config_.seed,
                                         upload.id, round);
          upload.wire = upload.encoded->wire_bytes();
          upload.encoded->decode_into(batch.row(rows));
        } else {
          batch.set_row(rows, *corrupted);
        }
        if (rows != r) std::swap(inbox[rows], inbox[r]);
        ++rows;
      }
    }
    if (rows < due) {
      GradientBatch kept(rows, dim);
      std::copy(batch.row(0), batch.row(0) + rows * dim, kept.data());
      batch = std::move(kept);
    }
    // Stale uploads count with weight decay^staleness.
    bool sparse = codec != nullptr && rows > 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double weight = std::pow(
          config_.stale.decay, static_cast<double>(round - inbox[r].version));
      if (weight != 1.0) {
        double* row = batch.row(r);
        for (std::size_t j = 0; j < dim; ++j) row[j] *= weight;
      }
      sparse = sparse && weight == 1.0 && inbox[r].encoded &&
               inbox[r].encoded->sparse();
    }

    // 5. Aggregate.  The rule sees n = the uploads due this round (a
    // silent client included) and t clamped to it; an inbox below n - t,
    // or below the stale quorum (faults= / stale= only), leaves the model
    // where it is (degraded).  The server's star waits for `need` uploads.
    AggregationContext ctx;
    ctx.n = due;
    ctx.t = clamp_byzantine_budget(t, due);
    ctx.pool = config_.pool;
    ctx.metrics = config_.metrics;
    const std::size_t live = plan.live_count(round);
    const std::size_t need =
        elastic ? std::min(configured_quorum, quorum_of(live)) : ctx.keep();
    const bool advanced = rows > 0 && rows >= ctx.keep() && rows >= need;
    const double lr = config_.schedule.rate(round);
    std::size_t downlink_wire = 0;
    double diameter = 0.0;
    std::size_t effective_shards = 1;
    if (advanced) {
      // When every row arrived sparse-encoded at weight 1 the pairwise
      // matrix comes from the encoded forms through the sparse Gram
      // kernels, O(pairwise nnz) instead of O(m^2 * d).
      std::optional<AggregationWorkspace> workspace;
      const bool use_sketch =
          sketch_shard != nullptr &&
          (config_.sketch == "on" ||
           rows >= TrainingConfig::kSketchAutoThreshold);
      effective_shards =
          std::min(std::max<std::size_t>(config_.cohort.shards, 1), rows);
      Vector aggregate = [&] {
        BCL_TRACE_SPAN("aggregate.rule");
        if (sparse) {
          SparseRows sparse_rows(dim);
          for (std::size_t r = 0; r < rows; ++r) {
            inbox[r].encoded->append_row_to(sparse_rows);
          }
          workspace.emplace(batch, DistanceMatrix(sparse_rows, ctx.pool),
                            ctx.pool);
        } else {
          workspace.emplace(batch, ctx.pool);
        }
        return aggregate_sharded(
            batch, *workspace, use_sketch ? *sketch_shard : *config_.rule,
            use_sketch && sketch_root != nullptr ? *sketch_root : *root_rule,
            config_.cohort.shards, ctx);
      }();
      // 6. Finish: EF-compressed broadcast (a bitwise no-op under the
      // identity codec), SGD step, honest-gradient diameter.
      downlink_wire = dense_wire_bytes(dim);
      if (codec != nullptr) {
        BCL_TRACE_SPAN("codec.encode");
        const CompressedGradient encoded = error_feedback.compress(
            *codec, config_.seed, n, round, aggregate.data(), dim);
        encoded.decode_into(aggregate.data());
        downlink_wire = encoded.wire_bytes();
      }
      {
        BCL_TRACE_SPAN("sgd.apply");
        ml::sgd_step(global_params_, aggregate, lr);
      }
      // Honest rows are the batch prefix: a free subset lookup when the
      // rule built the shared matrix, else a Gram build over the prefix.
      if (workspace->has_distances() && honest_rows >= 2) {
        std::vector<std::size_t> honest_ids(honest_rows);
        std::iota(honest_ids.begin(), honest_ids.end(), std::size_t{0});
        diameter = workspace->distances().subset_diameter(honest_ids);
      } else if (honest_rows >= 2) {
        diameter =
            DistanceMatrix(batch.row(0), honest_rows, dim, ctx.pool).diameter();
      }
    }

    RoundMetrics metrics;
    metrics.round = round;
    metrics.learning_rate = lr;
    metrics.mean_honest_loss = honest_loss;
    metrics.accuracy = [&] {
      BCL_TRACE_SPAN("evaluate");
      return evaluate_with(clients.first_lane(), global_params_, eval);
    }();
    metrics.accuracy_min = metrics.accuracy;
    metrics.accuracy_max = metrics.accuracy;
    metrics.gradient_diameter = diameter;
    metrics.live_clients = static_cast<double>(live);
    metrics.stale_accepted = static_cast<double>(stale_accepted);
    metrics.stale_rejected = static_cast<double>(stale_rejected);
    metrics.cohort = static_cast<double>(due);
    metrics.shards = static_cast<double>(effective_shards);
    metrics.degraded =
        (!advanced || (elastic && need < configured_quorum)) ? 1.0 : 0.0;
    metrics.seconds = round_watch.seconds();

    // Star pricing over the sample (member c is star id c, the server id
    // sample.size()) and byte accounting over what actually hit the wire:
    // the uploads, and the broadcast to the live honest members when the
    // server stepped.  Dropped messages carry no bytes.
    const std::size_t honest_members = static_cast<std::size_t>(
        std::lower_bound(sample.begin(), sample.end(), honest_n) -
        sample.begin());
    StarWire star_wire;
    star_wire.uplink_bytes.assign(sample.size(), 0);
    star_wire.downlink_bytes = downlink_wire;
    for (std::size_t r = 0; r < due; ++r) {
      const auto c = static_cast<std::size_t>(
          std::lower_bound(sample.begin(), sample.end(), inbox[r].id) -
          sample.begin());
      star_wire.uplink_bytes[c] = inbox[r].wire;
    }
    StarDelivery delivery;
    if (delay_model != nullptr) {
      metrics.sim_seconds = star_round_latency(
          *delay_model, config_.net, sample.size(),
          sample.size() - honest_members, need, round, star_wire, &delivery);
    }
    const double dense = static_cast<double>(dense_wire_bytes(dim));
    for (std::size_t c = 0; c < sample.size(); ++c) {
      if (star_wire.uplink_bytes[c] == 0) continue;
      if (!delivery.uplink.empty() && !delivery.uplink[c]) continue;
      metrics.bytes_delivered += static_cast<double>(star_wire.uplink_bytes[c]);
      metrics.bytes_dense += dense;
    }
    for (std::size_t c = 0; advanced && c < honest_members; ++c) {
      if (!plan.alive(sample[c], round)) continue;
      if (!delivery.downlink.empty() && !delivery.downlink[c]) continue;
      metrics.bytes_delivered += static_cast<double>(downlink_wire);
      metrics.bytes_dense += dense;
    }
    publish_round_histograms(config_.metrics, metrics);
    result.history.push_back(metrics);
    if (config_.on_round) config_.on_round(result.history.back());
  }
  result.final_accuracy =
      result.history.empty() ? 0.0 : result.history.back().accuracy;
  return result;
}

}  // namespace bcl
