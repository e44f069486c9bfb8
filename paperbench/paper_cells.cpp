// Paper-cell benchmark program (see README.md next to this file).
//
// Runs one workload — a fixed list of the paper's figure cells at reduced
// scale, n = 10, sign-flip — in a closed loop on one thread, with no pool:
//
//   1. untraced passes through ScenarioRunner::run until --seconds is used
//      up (at least one pass; every pass runs the whole cell list, so the
//      pooled round-time quantiles always see the same cell mix; pass 0 at
//      the workload seed, later passes at seeds derived from it).  Rounds
//      are timed on the process CPU clock at MetricsEmitter::emit_round,
//      and each cell's times are normalised to the reference box's speed
//      by a fixed reference kernel timed just before the cell.
//   2. one traced pass of pass 0's cells, built here from a TrainingConfig
//      whose rule and attack are wrapped in timing shims and whose
//      on_round callback splits each round into phases.  Nothing inside the
//      library is instrumented for this.
//   3. correctness checks (see check_outputs).
//
// Writes one JSON record to --out; the exit code is 0 only when every check
// passed (1 when one failed, 2 on an error).
//
//   paper_cells --workload NAME --seed N --seconds S --out FILE

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/bcl.hpp"

namespace {

using bcl::experiments::ModelKind;
using bcl::experiments::ScenarioSpec;
using bcl::experiments::Topology;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<ScenarioSpec> cells;
};

constexpr const char* kAsyncNet =
    "async:delay=mmpp,mean=1,mean2=20,p01=0.1,p10=0.3,drop=0.01,timeout=50";

/// The paper harnesses' seed (bench_fig1 ... bench_fig3b use seed=11).
constexpr std::uint64_t kPaperSeed = 11;

/// Median CPU ms of reference_kernel() on the reference box (a 4-vCPU Xeon
/// KVM guest at 2.0 GHz, 917 samples over twelve runs).  Normalised times
/// are CPU times scaled by this over the kernel time measured next to them.
constexpr double kReferenceKernelMs = 0.97;

using CellList = std::vector<std::pair<std::string, std::string>>;  // label, spec

std::vector<ScenarioSpec> make_specs(const CellList& cells, std::uint64_t seed) {
  std::vector<ScenarioSpec> specs;
  for (const auto& [label, text] : cells) {
    ScenarioSpec spec = ScenarioSpec::parse(text + " attack=sign-flip n=10");
    spec.label = label;
    spec.seed = seed;
    specs.push_back(spec);
  }
  return specs;
}

/// Correctness reference only, never timed: the Fig. 1 robust cells as
/// bench_fig1 runs them.
std::vector<ScenarioSpec> fig1_check_cells() {
  CellList cells;
  for (const char* rule : {"MD-MEAN", "MD-GEOM", "BOX-MEAN", "BOX-GEOM"}) {
    cells.emplace_back(std::string("fig1-") + rule,
                       std::string("topology=centralized f=1 het=mild rule=") + rule);
  }
  return make_specs(cells, kPaperSeed);
}

/// The cells of one workload, every one at `seed`.  The mixes are chosen
/// so that neither pooled quantile sits on the gap between a group of cheap
/// cells and a group of expensive ones (see README.md, "Quantile gaps"):
/// with an odd number of equally long cells, p50 falls in the middle of
/// one cell's rounds instead of on the boundary between two cells, and in
/// cen-mlp seven of the thirteen cells are cheap, so p50 falls among them.
std::vector<ScenarioSpec> workload_cells(const std::string& name,
                                         std::uint64_t seed) {
  CellList cells;
  auto add = [&](const std::string& label, const std::string& base,
                 std::initializer_list<const char*> rules) {
    for (const char* rule : rules) {
      cells.emplace_back(label + "-" + rule, base + " rule=" + rule);
    }
  };
  if (name == "cen-mlp") {
    add("fig1", "topology=centralized f=1 het=mild",
        {"MEAN", "GEOMED", "KRUM", "MULTIKRUM-3", "MD-MEAN", "MD-GEOM",
         "BOX-MEAN", "BOX-GEOM"});
    add("fig2a", "topology=centralized f=2 het=extreme",
        {"KRUM", "MULTIKRUM-3", "MD-MEAN", "MD-GEOM", "BOX-GEOM"});
  } else if (name == "dec-mlp") {
    add("fig3a", "topology=decentralized f=1 het=mild",
        {"MEAN", "GEOMED", "MD-MEAN", "MD-GEOM", "BOX-MEAN", "BOX-GEOM"});
    add("fig3b", "topology=decentralized f=2 het=mild", {"BOX-GEOM"});
  } else if (name == "dec-mlp-async") {
    add("async", std::string("topology=decentralized f=1 het=mild net=") +
                     kAsyncNet,
        {"KRUM", "MD-MEAN", "MD-GEOM", "BOX-MEAN", "BOX-GEOM"});
  } else if (name == "cen-cifarnet") {
    add("fig2b", "topology=centralized model=cifarnet f=1 het=mild rounds=50",
        {"KRUM", "BOX-GEOM"});
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (valid: cen-mlp, dec-mlp, dec-mlp-async, cen-cifarnet)");
  }
  return make_specs(cells, seed);
}

// ---------------------------------------------------------------------------
// Clocks and small statistics

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: the latter survives execve and would report the launching
/// script's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Linear-interpolation quantile (the usual "type 7"); 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `spans` clipped to [lo, hi].
double union_length(std::vector<Interval> spans, double lo, double hi) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0.0;
  double cursor = lo;
  for (const Interval& s : spans) {
    const double b = std::max(s.begin, cursor);
    const double e = std::min(s.end, hi);
    if (e > b) {
      total += e - b;
      cursor = e;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Timing shims at the trainers' plug points

/// Calls into the aggregation and attack layers during the current round.
/// Thread-safe, so the shims stay correct when a trainer has a pool.
class LayerLog {
 public:
  void aggregate(Interval span, std::size_t rows) {
    std::lock_guard<std::mutex> lock(mu_);
    aggregate_.push_back(span);
    rows_ += rows;
  }
  void attack(Interval span) {
    std::lock_guard<std::mutex> lock(mu_);
    attack_.push_back(span);
  }
  /// Hands over (and clears) everything logged since the last call.
  void take(std::vector<Interval>& aggregate, std::vector<Interval>& attack,
            std::size_t& rows) {
    std::lock_guard<std::mutex> lock(mu_);
    aggregate.swap(aggregate_);
    attack.swap(attack_);
    aggregate_.clear();
    attack_.clear();
    rows = rows_;
    rows_ = 0;
  }

 private:
  std::mutex mu_;
  std::vector<Interval> aggregate_;
  std::vector<Interval> attack_;
  std::size_t rows_ = 0;
};

/// Forwards every entry point 1:1 to the wrapped rule and logs the call.
class TimedRule final : public bcl::AggregationRule {
 public:
  TimedRule(bcl::AggregationRulePtr inner, LayerLog& log)
      : inner_(std::move(inner)), log_(log) {}
  std::string name() const override { return inner_->name(); }
  bcl::Vector aggregate(const bcl::VectorList& received,
                        const bcl::AggregationContext& ctx) const override {
    const double begin = now_ms();
    bcl::Vector out = inner_->aggregate(received, ctx);
    log_.aggregate({begin, now_ms()}, received.size());
    return out;
  }
  bcl::Vector aggregate(const bcl::VectorList& received,
                        bcl::AggregationWorkspace& workspace,
                        const bcl::AggregationContext& ctx) const override {
    const double begin = now_ms();
    bcl::Vector out = inner_->aggregate(received, workspace, ctx);
    log_.aggregate({begin, now_ms()}, received.size());
    return out;
  }
  bcl::Vector aggregate(const bcl::GradientBatch& batch,
                        bcl::AggregationWorkspace& workspace,
                        const bcl::AggregationContext& ctx) const override {
    const double begin = now_ms();
    bcl::Vector out = inner_->aggregate(batch, workspace, ctx);
    log_.aggregate({begin, now_ms()}, batch.rows());
    return out;
  }

 private:
  bcl::AggregationRulePtr inner_;
  LayerLog& log_;
};

/// Forwards every member 1:1 to the wrapped attack and logs corrupt().
class TimedAttack final : public bcl::GradientAttack {
 public:
  TimedAttack(bcl::GradientAttackPtr inner, LayerLog& log)
      : inner_(std::move(inner)), log_(log) {}
  std::string name() const override { return inner_->name(); }
  std::optional<bcl::Vector> corrupt(const bcl::Vector& own_gradient,
                                     const bcl::VectorList& honest_gradients,
                                     std::size_t round,
                                     bcl::Rng& rng) const override {
    const double begin = now_ms();
    auto out = inner_->corrupt(own_gradient, honest_gradients, round, rng);
    log_.attack({begin, now_ms()});
    return out;
  }
  bool poisons_labels() const override { return inner_->poisons_labels(); }
  std::size_t submit_staleness(std::size_t round,
                               std::size_t tau) const override {
    return inner_->submit_staleness(round, tau);
  }

 private:
  bcl::GradientAttackPtr inner_;
  LayerLog& log_;
};

/// Per-round phase split and layer totals of the traced pass, summed over
/// rounds (divided by the round count when reported).
struct LayerTotals {
  std::size_t rounds = 0;
  double round_ms = 0.0;
  double grad_ms = 0.0;
  double exchange_ms = 0.0;
  double eval_ms = 0.0;
  double aggregation_ms = 0.0;
  double attack_ms = 0.0;
  double agreement_self_ms = 0.0;
  double aggregation_calls = 0.0;
  double aggregation_rows = 0.0;
  std::vector<double> call_ms;       // every aggregate call, pooled
  double cpu_s = 0.0;                // process CPU between round ends
  double wall_s = 0.0;
  double dataset_ms = 0.0;
  double setup_ms = 0.0;
  std::map<std::string, std::uint64_t> counters;  // registry, summed
};

/// Splits one finished round (the on_round call at `end_ms`) into phases:
/// grad = round start .. first corrupt(); exchange = first corrupt() .. last
/// aggregate() return; eval = the rest.  Within the exchange, aggregation
/// and attack time are the unions of their call intervals; the remainder is
/// the agreement layer's own time (engine drain, inbox assembly, share-cache
/// waits, diameter trace) — or, centralized, the inbox copy.
void split_round(const bcl::RoundMetrics& metrics, double end_ms, LayerLog& log,
                 LayerTotals& totals) {
  std::vector<Interval> aggregate;
  std::vector<Interval> attack;
  std::size_t rows = 0;
  log.take(aggregate, attack, rows);
  const double round_ms = metrics.seconds * 1e3;
  const double start_ms = end_ms - round_ms;
  double exchange_begin = end_ms;
  double exchange_end = start_ms;
  for (const Interval& s : attack) exchange_begin = std::min(exchange_begin, s.begin);
  for (const Interval& s : aggregate) {
    exchange_begin = std::min(exchange_begin, s.begin);
    exchange_end = std::max(exchange_end, s.end);
  }
  exchange_begin = std::clamp(exchange_begin, start_ms, end_ms);
  exchange_end = std::clamp(exchange_end, exchange_begin, end_ms);
  const double aggregation =
      union_length(aggregate, exchange_begin, exchange_end);
  const double attacks = union_length(attack, exchange_begin, exchange_end);
  std::vector<Interval> both = aggregate;
  both.insert(both.end(), attack.begin(), attack.end());
  const double covered = union_length(both, exchange_begin, exchange_end);

  totals.rounds += 1;
  totals.round_ms += round_ms;
  totals.grad_ms += exchange_begin - start_ms;
  totals.exchange_ms += exchange_end - exchange_begin;
  totals.eval_ms += end_ms - exchange_end;
  totals.aggregation_ms += aggregation;
  totals.attack_ms += attacks;
  totals.agreement_self_ms += (exchange_end - exchange_begin) - covered;
  totals.aggregation_calls += static_cast<double>(aggregate.size());
  totals.aggregation_rows += static_cast<double>(rows);
  for (const Interval& s : aggregate) totals.call_ms.push_back(s.end - s.begin);
}

// ---------------------------------------------------------------------------
// Cell construction mirrored from ScenarioRunner (runner.cpp): the traced
// pass must build exactly the cell the runner builds, which the bitwise
// round-by-round comparison in check_outputs enforces.

struct Scale {
  std::size_t rounds = 0;
  std::size_t batch = 0;
  double lr = 0.0;
};

Scale resolve_scale(const ScenarioSpec& spec) {
  Scale r;
  if (spec.model == ModelKind::Mlp) {
    r.rounds = spec.full_scale ? 150 : 60;
    r.batch = spec.full_scale ? 32 : 16;
    r.lr = spec.full_scale ? 0.1 : 0.25;
  } else {
    r.rounds = spec.full_scale ? 400 : 200;
    r.batch = spec.full_scale ? 32 : 16;
    r.lr = 0.05;
  }
  if (spec.rounds > 0) r.rounds = spec.rounds;
  if (spec.batch > 0) r.batch = spec.batch;
  if (spec.lr > 0.0) r.lr = spec.lr;
  return r;
}

bcl::ml::TrainTestSplit make_dataset(const ScenarioSpec& spec) {
  bcl::ml::SyntheticSpec data_spec;
  if (spec.model == ModelKind::Mlp) {
    data_spec = bcl::ml::SyntheticSpec::mnist_like(spec.seed);
    data_spec.height = data_spec.width = spec.full_scale ? 28 : 10;
    data_spec.train_per_class = spec.full_scale ? 200 : 60;
    data_spec.test_per_class = spec.full_scale ? 40 : 20;
  } else {
    data_spec = bcl::ml::SyntheticSpec::cifar_like(spec.seed);
    if (!spec.full_scale) {
      data_spec.height = data_spec.width = 16;
      data_spec.train_per_class = 80;
      data_spec.test_per_class = 25;
    }
  }
  return bcl::ml::make_synthetic_dataset(data_spec);
}

bcl::ModelFactory make_factory(const ScenarioSpec& spec,
                               const bcl::ml::TrainTestSplit& data) {
  if (spec.model == ModelKind::Mlp) {
    const std::size_t dim = data.train.feature_dim();
    const std::size_t h1 = spec.full_scale ? 64 : 16;
    const std::size_t h2 = spec.full_scale ? 32 : 8;
    return [dim, h1, h2] { return bcl::ml::make_mlp(dim, h1, h2, 10); };
  }
  const std::size_t channels = data.train.channels;
  const std::size_t side = data.train.height;
  const std::size_t w1 = spec.full_scale ? 8 : 4;
  const std::size_t w2 = spec.full_scale ? 16 : 8;
  const std::size_t fc = spec.full_scale ? 64 : 24;
  return [channels, side, w1, w2, fc] {
    return bcl::ml::make_cifarnet(channels, side, side, 10, w1, w2, fc);
  };
}

// ---------------------------------------------------------------------------
// Cell results

struct CellRun {
  std::string label;
  std::vector<bcl::RoundMetrics> rounds;
  /// Process CPU ms from each round end to the next: one entry per round
  /// after the first, which is warm-up: neither a timed round nor set-up.
  std::vector<double> round_cpu_ms;
  /// Process CPU s outside the rounds: before the first round starts and
  /// after the last one ends (untraced only).
  double setup_cpu_s = 0.0;
  /// Reference-kernel CPU ms just before the cell.
  double kernel_ms = 0.0;
  std::string error;
};

/// Fixed reference work: squared distances between all pairs of 10 rows of
/// 2048 doubles, the shape of an n = 10 aggregation over MLP gradients.
/// Its CPU time tracks how fast the host runs this process right now: a
/// busy SMT sibling, shared-cache pressure or a clock change on the host
/// slows it along with the cells, while no change to the program can.
double reference_kernel() {
  static std::vector<double> rows = [] {
    std::vector<double> v(10 * 2048);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 97) * 0.01;
    return v;
  }();
  double total = 0.0;
  for (int rep = 0; rep < 12; ++rep) {
    for (std::size_t a = 0; a < 10; ++a) {
      for (std::size_t b = a + 1; b < 10; ++b) {
        double d = 0.0;
        for (std::size_t j = 0; j < 2048; ++j) {
          const double x = rows[a * 2048 + j] - rows[b * 2048 + j];
          d += x * x;
        }
        total += d;
      }
    }
    rows[rep] += 1e-9;
  }
  return total;
}

/// Keeps the kernel's result observable so the compiler cannot drop it.
volatile double kernel_sink = 0.0;

/// Median CPU ms of five reference-kernel runs (about 5 ms in all).
double kernel_sample_ms() {
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    const double begin = process_cpu_s();
    kernel_sink = kernel_sink + reference_kernel();
    times.push_back((process_cpu_s() - begin) * 1e3);
  }
  return quantile(times, 0.5);
}

/// Stamps the process CPU clock at the cell's start, at every round end and
/// at the cell's end.  Everything runs on the calling thread, so this is
/// the cell's own work; unlike wall time it leaves out the time the host
/// gave the core to someone else.  No hook marks the first round's start:
/// it is read as that round's end minus its RoundMetrics::seconds, as the
/// two clocks advance together on one thread.
class RoundRecorder final : public bcl::experiments::MetricsEmitter {
 public:
  void begin_scenario(const ScenarioSpec& /*spec*/) override {
    last_cpu_ = process_cpu_s();
  }
  void emit_round(const ScenarioSpec& /*spec*/,
                  const bcl::RoundMetrics& metrics) override {
    const double cpu = process_cpu_s();
    if (rounds.empty()) {
      setup_cpu_s += cpu - last_cpu_ - metrics.seconds;
    } else {
      round_cpu_ms.push_back((cpu - last_cpu_) * 1e3);
    }
    last_cpu_ = cpu;
    rounds.push_back(metrics);
  }
  void end_scenario(const bcl::experiments::ScenarioSummary& /*summary*/) override {
    setup_cpu_s += process_cpu_s() - last_cpu_;
  }
  std::vector<bcl::RoundMetrics> rounds;
  std::vector<double> round_cpu_ms;
  double setup_cpu_s = 0.0;

 private:
  double last_cpu_ = 0.0;
};

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Factor from the cell's CPU ms to normalised ms: kReferenceKernelMs over
/// the kernel time measured just before the cell.
double normalisation(const CellRun& cell) {
  return kReferenceKernelMs / cell.kernel_ms;
}

std::vector<double> normalised_round_ms(const std::vector<CellRun>& cells) {
  std::vector<double> out;
  for (const CellRun& cell : cells) {
    for (const double ms : cell.round_cpu_ms) out.push_back(ms * normalisation(cell));
  }
  return out;
}

/// One untraced pass: a fresh serial runner per pass, so every pass pays
/// dataset generation exactly as a user's first run does.
std::vector<CellRun> untraced_pass(const Workload& workload) {
  bcl::experiments::ScenarioRunner runner;
  std::vector<CellRun> cells;
  for (const ScenarioSpec& spec : workload.cells) {
    RoundRecorder recorder;
    const double kernel = kernel_sample_ms();
    const auto summary = runner.run(spec, {&recorder});
    cells.push_back({spec.label, std::move(recorder.rounds),
                     std::move(recorder.round_cpu_ms), recorder.setup_cpu_s, kernel,
                     summary.error});
  }
  return cells;
}

/// The traced pass: same cells, wrapped rule/attack, phase split per round.
std::vector<CellRun> traced_pass(const Workload& workload, LayerTotals& totals) {
  std::map<std::string, bcl::ml::TrainTestSplit> datasets;
  std::vector<CellRun> cells;
  LayerLog log;
  for (const ScenarioSpec& spec : workload.cells) {
    CellRun cell;
    cell.label = spec.label;
    cell.kernel_ms = kernel_sample_ms();
    double first_round_start = -1.0;
    double last_round_end = 0.0;
    double last_cpu = 0.0;
    try {
      const std::string key = std::string(model_kind_name(spec.model)) + "|" +
                              std::to_string(spec.seed);
      auto it = datasets.find(key);
      double setup_begin = now_ms();
      if (it == datasets.end()) {
        it = datasets.emplace(key, make_dataset(spec)).first;
        const double generated = now_ms();
        totals.dataset_ms += generated - setup_begin;
        setup_begin = generated;
      }
      const bcl::ml::TrainTestSplit& data = it->second;
      const Scale scale = resolve_scale(spec);

      bcl::TrainingConfig cfg;
      cfg.num_clients = spec.clients;
      cfg.num_byzantine = spec.byzantine;
      cfg.tolerance = spec.tolerance;
      cfg.rounds = scale.rounds;
      cfg.batch_size = scale.batch;
      cfg.rule = std::make_shared<TimedRule>(bcl::make_rule(spec.rule), log);
      cfg.attack =
          std::make_shared<TimedAttack>(bcl::make_attack(spec.attack), log);
      cfg.codec = bcl::make_codec(spec.comp);
      cfg.schedule = bcl::ml::LearningRateSchedule(
          scale.lr, scale.lr / static_cast<double>(scale.rounds));
      cfg.heterogeneity = spec.heterogeneity;
      cfg.honest_delay_probability = spec.delay;
      cfg.faults = bcl::FaultConfig::parse(spec.faults);
      cfg.stale = bcl::StaleConfig::parse(spec.stale);
      cfg.cohort = bcl::CohortConfig::parse(spec.cohort);
      cfg.sketch = spec.sketch;
      cfg.net = bcl::NetConfig::parse(spec.net);
      cfg.net.seed = spec.seed;
      cfg.seed = spec.seed;
      cfg.pool = nullptr;
      cfg.eval_max_examples = spec.eval_max;
      cfg.fixed_subrounds = spec.subrounds;
      cfg.on_round = [&](const bcl::RoundMetrics& metrics) {
        const double end = now_ms();
        const double cpu = process_cpu_s();
        if (first_round_start < 0.0) {
          first_round_start = end - metrics.seconds * 1e3;
          totals.setup_ms += first_round_start - setup_begin;
        } else {
          totals.cpu_s += cpu - last_cpu;
          totals.wall_s += (end - last_round_end) * 1e-3;
          cell.round_cpu_ms.push_back((cpu - last_cpu) * 1e3);
        }
        last_cpu = cpu;
        last_round_end = end;
        split_round(metrics, end, log, totals);
        cell.rounds.push_back(metrics);
      };
      bcl::obs::MetricsRegistry registry;
      cfg.metrics = &registry;

      if (spec.topology == Topology::Centralized) {
        bcl::CentralizedTrainer(cfg, make_factory(spec, data), &data.train,
                                &data.test)
            .run();
      } else {
        bcl::DecentralizedTrainer(cfg, make_factory(spec, data), &data.train,
                                  &data.test)
            .run();
      }
      for (const auto& [name, value] : registry.snapshot().counters) {
        totals.counters[name] += value;
      }
    } catch (const std::exception& failure) {
      cell.error = failure.what();
      std::vector<Interval> a, b;
      std::size_t rows = 0;
      log.take(a, b, rows);  // drop the failed round's partial log
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Correctness

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every field of the learning trajectory (not the wall times) matches
/// bitwise, round by round.
std::string trajectory_mismatch(const CellRun& a, const CellRun& b) {
  if (a.error != b.error) return "error '" + a.error + "' vs '" + b.error + "'";
  if (a.rounds.size() != b.rounds.size()) {
    return std::to_string(a.rounds.size()) + " vs " +
           std::to_string(b.rounds.size()) + " rounds";
  }
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const auto& x = a.rounds[r];
    const auto& y = b.rounds[r];
    if (!same_bits(x.accuracy, y.accuracy) ||
        !same_bits(x.accuracy_min, y.accuracy_min) ||
        !same_bits(x.accuracy_max, y.accuracy_max) ||
        !same_bits(x.mean_honest_loss, y.mean_honest_loss) ||
        !same_bits(x.disagreement, y.disagreement) ||
        !same_bits(x.learning_rate, y.learning_rate)) {
      return "round " + std::to_string(r) + " differs";
    }
  }
  return "";
}

double best_accuracy(const CellRun& cell) {
  double best = 0.0;
  for (const auto& m : cell.rounds) best = std::max(best, m.accuracy);
  return best;
}

std::vector<Check> check_outputs(const Workload& workload,
                                 const std::vector<std::vector<CellRun>>& passes,
                                 const std::vector<CellRun>& traced,
                                 const std::vector<CellRun>& paper_fig1) {
  std::vector<Check> checks;
  const std::vector<CellRun>& first = passes.front();

  Check same{"traced_equals_untraced", true, ""};
  for (std::size_t c = 0; c < first.size(); ++c) {
    const std::string diff = trajectory_mismatch(first[c], traced[c]);
    if (!diff.empty()) {
      same.ok = false;
      same.detail += first[c].label + ": " + diff + "; ";
    }
  }
  checks.push_back(same);

  // Accuracy is a ratio of counts and stays finite even when the model
  // diverges, so the honest loss guards against NaN weights.
  Check finite{"accuracy_finite", true, ""};
  Check loss{"honest_loss_finite", true, ""};
  for (const auto& pass : passes) {
    for (const auto& cell : pass) {
      for (const auto& m : cell.rounds) {
        if (!std::isfinite(m.accuracy) || !std::isfinite(m.accuracy_min) ||
            !std::isfinite(m.accuracy_max)) {
          finite.ok = false;
          finite.detail += cell.label + " round " + std::to_string(m.round) + "; ";
          break;
        }
      }
      for (const auto& m : cell.rounds) {
        if (!std::isfinite(m.mean_honest_loss)) {
          loss.ok = false;
          loss.detail += cell.label + " round " + std::to_string(m.round) + "; ";
          break;
        }
      }
    }
  }
  checks.push_back(finite);
  checks.push_back(loss);

  if (workload.name == "dec-mlp") {
    // Synchronous agreement: honest inboxes coincide, so every honest node
    // holds the same vector after every sub-round.
    Check agree{"dec_mlp_zero_disagreement", true, ""};
    for (const auto& pass : passes) {
      for (const auto& cell : pass) {
        for (const auto& m : cell.rounds) {
          if (m.disagreement != 0.0) {
            agree.ok = false;
            agree.detail += cell.label + " round " + std::to_string(m.round) + "; ";
            break;
          }
        }
      }
    }
    checks.push_back(agree);
  }

  if (workload.name == "cen-mlp") {
    // The paper's Fig. 1 result: the MD-* and BOX-* rules learn under one
    // sign-flip attacker at mild heterogeneity.  Checked on the cells as
    // bench_fig1 runs them (seed 11): at reduced scale the 0.9 level is
    // seed-sensitive (README.md lists the seeds where it is missed), so
    // the workload-seed values are recorded in the detail but not gated.
    Check fig1{"fig1_md_box_best_acc_ge_0.9", true, "seed 11: "};
    for (const auto& cell : paper_fig1) {
      const double best = best_accuracy(cell);
      std::ostringstream detail;
      detail << cell.label << "=" << best << "; ";
      fig1.detail += detail.str();
      if (!cell.error.empty() || !(best >= 0.9)) fig1.ok = false;
    }
    fig1.detail += "workload seed (not gated): ";
    for (const auto& cell : first) {
      if (cell.label.rfind("fig1-MD-", 0) == 0 ||
          cell.label.rfind("fig1-BOX-", 0) == 0) {
        std::ostringstream detail;
        detail << cell.label << "=" << best_accuracy(cell) << "; ";
        fig1.detail += detail.str();
      }
    }
    checks.push_back(fig1);
  }
  return checks;
}

// ---------------------------------------------------------------------------
// Output

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += ' ';
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
        << (std::isfinite(metrics[i].value) ? metrics[i].value : 0.0)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}";
}

int run(int argc, char** argv) {
  const bcl::CliArgs args(argc, argv,
                          {"workload", "seed", "seconds", "out"});
  const std::string name = args.get_string("workload", "");
  const long long seed = args.get_int("seed", static_cast<long long>(kPaperSeed));
  const double budget_s = args.get_double("seconds", 45.0);
  const std::string out_path = args.get_string("out", "");
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  if (out_path.empty()) throw std::invalid_argument("--out FILE is required");
  const Workload workload{
      name, workload_cells(name, static_cast<std::uint64_t>(seed))};

  // Closed loop on the calling thread alone: no pool, so a round never
  // waits at a fork-join for a worker the host has descheduled, and the
  // process CPU clock reads the work of that one thread.
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t nproc = online > 0 ? static_cast<std::size_t>(online) : 1;
  const std::size_t workers = 0;
  bcl::set_log_level(bcl::LogLevel::Error);

  // 1. Untraced passes.  Pass 0 runs at the workload seed; every later pass
  // runs the same cells at a seed derived from it, so a run averages the
  // seed-dependent cost (Weiszfeld iterations, sub-round counts) over
  // several inputs instead of repeating one.  The derived seeds are spread
  // far apart so that runs at neighbouring workload seeds share no inputs.
  std::vector<std::vector<CellRun>> passes;
  std::vector<std::uint64_t> pass_seeds;
  const double loop_begin = now_ms();
  double last_pass_s = 0.0;
  do {
    const std::uint64_t p = pass_seeds.size();
    pass_seeds.push_back(static_cast<std::uint64_t>(seed) ^
                         (p * 0x9E3779B97F4A7C15ull));
    const double pass_begin = now_ms();
    passes.push_back(untraced_pass({name, workload_cells(name, pass_seeds.back())}));
    last_pass_s = (now_ms() - pass_begin) * 1e-3;
  } while ((now_ms() - loop_begin) * 1e-3 + last_pass_s <= budget_s);
  const double rss_mb = peak_rss_mb();

  // 2. Traced pass.
  LayerTotals layers;
  const std::vector<CellRun> traced = traced_pass(workload, layers);

  // 3. Checks.  At the paper seed, pass 0 has already run the Fig. 1
  // reference cells with the same spec.
  std::vector<CellRun> paper_fig1;
  if (name == "cen-mlp" && static_cast<std::uint64_t>(seed) == kPaperSeed) {
    for (const CellRun& cell : passes.front()) {
      if (cell.label.rfind("fig1-MD-", 0) == 0 ||
          cell.label.rfind("fig1-BOX-", 0) == 0) {
        paper_fig1.push_back(cell);
      }
    }
  } else if (name == "cen-mlp") {
    paper_fig1 = untraced_pass({"fig1-check", fig1_check_cells()});
  }
  const std::vector<Check> checks =
      check_outputs(workload, passes, traced, paper_fig1);
  bool correct = true;
  for (const auto& check : checks) correct = correct && check.ok;

  // End-to-end metrics over the untraced passes, in normalised CPU time.  A
  // cell's first round is warm-up, neither a timed round nor set-up; the
  // timed rounds are the ones after it.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> round_ms;
  double samples = 0.0;
  std::vector<double> setup_s;
  std::vector<double> kernel_ms;
  for (const auto& pass : passes) {
    double setup = 0.0;
    for (std::size_t c = 0; c < pass.size(); ++c) {
      const CellRun& cell = pass[c];
      const ScenarioSpec& spec = workload.cells[c];
      ++attempted;
      if (!cell.error.empty()) ++failed;
      samples += static_cast<double>(spec.clients * resolve_scale(spec).batch *
                                     cell.round_cpu_ms.size());
      setup += cell.setup_cpu_s * normalisation(cell);
      kernel_ms.push_back(cell.kernel_ms);
    }
    setup_s.push_back(setup);
    const std::vector<double> pass_ms = normalised_round_ms(pass);
    round_ms.insert(round_ms.end(), pass_ms.begin(), pass_ms.end());
  }
  const double round_ms_total = sum(round_ms);
  for (const auto& cell : traced) {
    ++attempted;
    if (!cell.error.empty()) ++failed;
  }
  double final_acc = 0.0;
  for (const auto& cell : passes.front()) {
    final_acc += cell.rounds.empty() ? 0.0 : cell.rounds.back().accuracy;
  }
  final_acc /= static_cast<double>(passes.front().size());
  // The traced pass reruns pass 0, so its overhead is read against pass 0
  // alone: later passes run at other seeds and cost differently.
  const double first_pass_p50 = quantile(normalised_round_ms(passes.front()), 0.5);
  const double traced_p50 = quantile(normalised_round_ms(traced), 0.5);

  const std::vector<Metric> end_to_end = {
      {"samples_per_norm_s",
       round_ms_total > 0 ? samples / (round_ms_total * 1e-3) : 0.0, "1/s"},
      {"round_norm_ms_p50", quantile(round_ms, 0.5), "ms"},
      {"round_norm_ms_p90", quantile(round_ms, 0.9), "ms"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"cells_ok_ratio",
       1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
       "ratio"},
  };

  // Per-layer metrics over the traced pass, per round unless noted.
  const double rounds = std::max<double>(1.0, static_cast<double>(layers.rounds));
  auto counter = [&](const std::string& key) {
    const auto it = layers.counters.find(key);
    return it == layers.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double builds = counter("agreement.gram_builds");
  const double hits = counter("agreement.shared_hits");
  const std::vector<Metric> per_layer = {
      {"aggregation.busy_ms", layers.aggregation_ms / rounds, "ms"},
      {"aggregation.calls", layers.aggregation_calls / rounds, "count"},
      {"aggregation.call_ms_p50", quantile(layers.call_ms, 0.5), "ms"},
      {"aggregation.call_ms_p90", quantile(layers.call_ms, 0.9), "ms"},
      {"aggregation.rows", layers.aggregation_rows / rounds, "count"},
      {"agreement.self_ms", layers.agreement_self_ms / rounds, "ms"},
      {"agreement.subrounds", counter("agreement.subrounds") / rounds, "count"},
      {"agreement.builds", builds / rounds, "count"},
      {"agreement.share_hit_ratio",
       builds + hits > 0 ? hits / (builds + hits) : 0.0, "ratio"},
      {"network.messages", counter("net.messages_delivered") / rounds, "count"},
      {"network.bytes", counter("net.bytes_delivered") / rounds, "B"},
      {"network.dropped", counter("net.messages_dropped") / rounds, "count"},
      {"network.timeouts", counter("net.timeouts_fired") / rounds, "count"},
      {"learning.grad_phase_ms", layers.grad_ms / rounds, "ms"},
      {"learning.exchange_phase_ms", layers.exchange_ms / rounds, "ms"},
      {"learning.eval_phase_ms", layers.eval_ms / rounds, "ms"},
      {"learning.round_ms", layers.round_ms / rounds, "ms"},
      {"attacks.busy_ms", layers.attack_ms / rounds, "ms"},
      {"experiments.dataset_ms", layers.dataset_ms, "ms"},
      {"learning.setup_ms", layers.setup_ms, "ms"},
      {"process.cpu_per_wall",
       layers.wall_s > 0 ? layers.cpu_s / layers.wall_s : 0.0, "ratio"},
      {"learning.final_acc_mean", final_acc, "ratio"},
      {"bench.host_speed", kReferenceKernelMs / quantile(kernel_ms, 0.5),
       "ratio"},
      {"bench.trace_overhead",
       first_pass_p50 > 0
           ? traced_p50 / first_pass_p50 - 1.0
           : 0.0,
       "ratio"},
  };

  std::ostringstream record;
  record << std::setprecision(17);
  record << "{\"workload\": " << json_string(workload.name)
         << ", \"seed\": " << seed << ", \"seconds\": " << budget_s
         << ", \"build\": {\"type\": " << json_string(PAPERBENCH_BUILD_TYPE)
         << ", \"BCL_OBS_DISABLED\": " << (PAPERBENCH_OBS_DISABLED ? "true" : "false")
         << ", \"BCL_MARCH_NATIVE\": " << (PAPERBENCH_MARCH_NATIVE ? "true" : "false")
         << ", \"BCL_SANITIZE\": " << json_string(PAPERBENCH_SANITIZE) << "}"
         << ", \"pool_workers\": " << workers << ", \"nproc\": " << nproc
         << ", \"passes\": " << passes.size() << ", \"pass_seeds\": [";
  for (std::size_t p = 0; p < pass_seeds.size(); ++p) {
    record << (p ? ", " : "") << pass_seeds[p];
  }
  record << "]"
         << ", \"rounds_timed\": " << round_ms.size()
         << ", \"rounds_traced\": " << layers.rounds
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"correct\": " << (correct ? "true" : "false") << ", \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    record << (i ? ", " : "") << "{\"name\": " << json_string(checks[i].name)
           << ", \"ok\": " << (checks[i].ok ? "true" : "false")
           << ", \"detail\": " << json_string(checks[i].detail) << "}";
  }
  record << "], \"end_to_end\": ";
  write_metrics(record, end_to_end);
  record << ", \"per_layer\": ";
  write_metrics(record, per_layer);
  record << ", \"cells\": [";
  for (std::size_t c = 0; c < traced.size(); ++c) {
    const CellRun& cell = passes.front()[c];
    record << (c ? ", " : "") << "{\"label\": " << json_string(cell.label)
           << ", \"rounds\": " << cell.rounds.size()
           << ", \"round_norm_ms_mean\": "
           << (cell.round_cpu_ms.empty()
                   ? 0.0
                   : sum(cell.round_cpu_ms) * normalisation(cell) /
                         static_cast<double>(cell.round_cpu_ms.size()))
           << ", \"best_acc\": " << best_accuracy(cell) << ", \"final_acc\": "
           << (cell.rounds.empty() ? 0.0 : cell.rounds.back().accuracy)
           << ", \"error\": " << json_string(cell.error) << "}";
  }
  record << "], \"kernel_ms\": [";
  for (std::size_t i = 0; i < kernel_ms.size(); ++i) {
    record << (i ? ", " : "") << kernel_ms[i];
  }
  record << "], \"round_norm_ms\": [";
  for (std::size_t i = 0; i < round_ms.size(); ++i) {
    record << (i ? ", " : "") << round_ms[i];
  }
  record << "]}";

  std::ofstream file(out_path);
  file << record.str() << "\n";
  if (!file) throw std::runtime_error("cannot write " + out_path);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "paper_cells: " << error.what() << "\n";
    return 2;
  }
}
