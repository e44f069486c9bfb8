#pragma once
// Declarative experiment scenarios.
//
// A ScenarioSpec names one point in the experiment cross-product the paper
// (and its extensions) sweeps: aggregation rule x attack x Byzantine count
// x topology (centralized / decentralized) x model x data heterogeneity x
// scale x seed.  Specs are plain data with a stable textual form — the
// key=value grammar below — so the same scenario can be written in a bench
// binary, passed on the bcl_run command line, logged into an artifact and
// parsed back, byte for byte.
//
// Grammar: whitespace-separated key=value tokens, e.g.
//
//   "topology=decentralized rule=BOX-GEOM attack=sign-flip f=2 het=mild"
//
// Keys (all optional; unknown keys throw with the valid list attached):
//
//   label     free-form scenario name used in tables/artifacts
//             (default: derived from the fields, see name())
//   rule      aggregation rule name for make_rule        [BOX-GEOM]
//   attack    attack grammar string for make_attack      [sign-flip]
//   n         total clients                              [10]
//   f         true Byzantine count                       [1]
//   t         designed tolerance (0 = max(f, designed))  [0]
//   topology  centralized | decentralized                [centralized]
//   model     mlp | cifarnet                             [mlp]
//   het       uniform | mild | extreme                   [mild]
//   scale     reduced | full                             [reduced]
//   rounds    learning rounds (0 = model/scale default)  [0]
//   batch     mini-batch size (0 = default)              [0]
//   lr        initial learning rate (0 = default)        [0]
//   subrounds decentralized sub-round budget (0 = paper
//             log schedule)                              [0]
//   delay     honest-message delay probability           [0]
//   net       network timing model (NetConfig grammar:
//             "sync" or "async:delay=exp,mean=5,
//             drop=0.01,timeout=50,bw=1e6,...")          [sync]
//   comp      gradient codec (make_codec grammar:
//             identity | topk:frac=F | randk:frac=F |
//             qsgd:levels=L)                             [identity]
//   faults    fault-injection plan (FaultConfig grammar:
//             none | crash:at=R,frac=F |
//             crash-recover:mttf=,mttr=,frac=,cap= |
//             straggler:factor=,frac= |
//             churn:leave=,join=,burst=,p01=,p10=,cap=)  [none]
//   stale     bounded-staleness server (StaleConfig
//             grammar: none | "<tau>[,decay=D,quorum=Q]";
//             centralized topology only)                 [none]
//   cohort    per-round client subsampling + sharded
//             aggregation (CohortConfig grammar: none |
//             "<frac>[,shards=S,root=RULE]"; centralized
//             topology only)                             [none]
//   sketch    sketched shard rules on the server round
//             (auto | on | off; auto switches at inboxes
//             of >= 10^4 rows)                           [auto]
//   trace     flight-recorder level (off | spans | full;
//             spans = trainer/agreement phases, full
//             adds event-engine internals)               [off]
//   seed      root RNG seed (drives data + training +
//             network delays + codec randomness + fault
//             schedules)                                 [11]
//   eval-max  cap on test examples per evaluation (0 =
//             all)                                       [0]
//
// to_string() emits every key in a canonical order and parse() inverts it:
// parse(s.to_string()) reproduces s exactly (doubles are printed with 12
// significant digits, which round-trips every value the harnesses use).

#include <cstdint>
#include <string>
#include <vector>

#include "ml/partition.hpp"

namespace bcl::experiments {

/// Where aggregation happens: a trusted server (CentralizedTrainer) or
/// per-client approximate agreement (DecentralizedTrainer).
enum class Topology { Centralized, Decentralized };

/// Which architecture/dataset pair the scenario trains: the paper's MLP on
/// the MNIST-like task or CifarNet on the CIFAR-like task.
enum class ModelKind { Mlp, CifarNet };

/// "centralized" / "decentralized".
const char* topology_name(Topology topology);
/// Parses topology_name output; throws std::invalid_argument otherwise.
Topology parse_topology(const std::string& name);

/// "mlp" / "cifarnet".
const char* model_kind_name(ModelKind model);
/// Parses model_kind_name output; throws std::invalid_argument otherwise.
ModelKind parse_model_kind(const std::string& name);

/// One fully specified experiment scenario (see file comment for the
/// textual grammar and defaults).  Rule/attack names are validated by the
/// registries when the runner materializes them, not at parse time, so a
/// spec can be built before the registry entries it names.
struct ScenarioSpec {
  /// Optional; name() derives one when empty.  Must not contain
  /// whitespace (assign via set("label", ...) to get that checked) or the
  /// textual form could not round-trip.
  std::string label;
  std::string rule = "BOX-GEOM";
  std::string attack = "sign-flip";
  std::size_t clients = 10;
  std::size_t byzantine = 1;
  std::size_t tolerance = 0;
  Topology topology = Topology::Centralized;
  ModelKind model = ModelKind::Mlp;
  ml::Heterogeneity heterogeneity = ml::Heterogeneity::Mild;
  bool full_scale = false;
  std::size_t rounds = 0;
  std::size_t batch = 0;
  double lr = 0.0;
  std::size_t subrounds = 0;
  double delay = 0.0;
  /// NetConfig grammar string (validated eagerly by set(); stored verbatim
  /// so artifacts replay the exact text the user wrote).
  std::string net = "sync";
  /// Codec grammar string (make_codec; validated eagerly by set(), stored
  /// verbatim).  "identity" = dense traffic, bitwise the pre-codec path.
  std::string comp = "identity";
  /// Fault-injection grammar string (FaultConfig::parse: "none",
  /// "crash:at=R,frac=F", "crash-recover:mttf=,mttr=,...",
  /// "straggler:factor=,frac=", "churn:leave=,join=,...").  Validated
  /// eagerly by set(), stored verbatim.  "none" = everyone up, bitwise the
  /// pre-fault path.
  std::string faults = "none";
  /// Bounded-staleness grammar string (StaleConfig::parse: "none" or
  /// "<tau>[,decay=D,quorum=Q]").  Centralized topology only (the runner
  /// rejects it on decentralized specs).  Validated eagerly, stored
  /// verbatim.
  std::string stale = "none";
  /// Cohort-subsampling grammar string (CohortConfig::parse: "none" or
  /// "<frac>[,shards=S,root=RULE]").  Centralized topology only (the
  /// runner rejects it on decentralized specs).  Validated eagerly,
  /// stored verbatim.  "none" = every client uploads; "1.0,shards=1"
  /// samples the full membership and is bitwise identical (test-enforced).
  std::string cohort = "none";
  /// Sketched shard aggregation on the server round: "auto" (default)
  /// swaps the shard/root rules for their SKETCH-* counterparts once the
  /// round inbox reaches TrainingConfig::kSketchAutoThreshold rows; "on"
  /// forces the swap at every size; "off" never sketches.  Only rules
  /// with sketched counterparts (KRUM / MULTIKRUM-q / MD-MEAN) are
  /// affected.  Validated eagerly by set().
  std::string sketch = "auto";
  /// Flight-recorder level (src/obs/): "off" (default, single relaxed
  /// atomic check per span), "spans" (trainer/agreement phase spans), or
  /// "full" (adds per-batch event-engine internals).  Metrics are
  /// independent of the level: the runner wires a registry into every
  /// cell.  Traced cells run serially — the runner drops --jobs
  /// parallelism when any spec traces, because the recorder is
  /// process-global.  Validated eagerly by set().
  std::string trace = "off";
  std::uint64_t seed = 11;
  std::size_t eval_max = 0;

  /// Parses a whitespace-separated key=value scenario string over spec
  /// defaults.  Throws std::invalid_argument on malformed tokens or
  /// unknown keys (message lists the valid keys).
  static ScenarioSpec parse(const std::string& text);

  /// Applies a key=value scenario string on top of *this* (the parse()
  /// worker; same grammar and error contract) — use it to layer a spec
  /// string over non-default base values, as bcl_run does with its
  /// flag-derived defaults.
  void apply(const std::string& text);

  /// Applies one key=value assignment (the apply() primitive; same error
  /// contract).
  void set(const std::string& key, const std::string& value);

  /// Canonical textual form; parse(to_string()) round-trips the spec.
  std::string to_string() const;

  /// Table/artifact identifier: the label when set, otherwise a compact
  /// derived name like "cen/mild/KRUM/sign-flip/f1".
  std::string name() const;

  bool operator==(const ScenarioSpec& other) const = default;
};

/// The valid spec keys, in canonical order (shared by set() errors,
/// to_string() and the docs).
const std::vector<std::string>& scenario_keys();

}  // namespace bcl::experiments
