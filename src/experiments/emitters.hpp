#pragma once
// Pluggable metric sinks for the scenario engine.
//
// A MetricsEmitter observes a ScenarioRunner: begin_scenario() before the
// first round of each scenario, emit_round() after every training round
// (streamed live through TrainingConfig::on_round, not replayed at the
// end), end_scenario() with the full summary, and finish() once after the
// last scenario to flush artifacts.  Emitters are passed to the runner as
// raw pointers: the *caller* owns them and must keep them alive until
// finish() returns; the runner never deletes or retains them beyond the
// run_all() call.  Emitters are driven from the runner's thread only — no
// internal locking — and a single emitter instance may observe many
// scenarios in sequence but never concurrently.

#include <iosfwd>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "learning/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace bcl::experiments {

struct ScenarioSummary;

/// Observer interface (see file comment for the call protocol and
/// lifetime contract).  All hooks default to no-ops so emitters override
/// only the events they consume.
class MetricsEmitter {
 public:
  virtual ~MetricsEmitter() = default;
  virtual void begin_scenario(const ScenarioSpec& spec);
  virtual void emit_round(const ScenarioSpec& spec,
                          const RoundMetrics& metrics);
  virtual void end_scenario(const ScenarioSummary& summary);
  /// Flush artifacts (tables to the console, files to disk).  Called once
  /// by ScenarioRunner::run_all after the last scenario; callers driving
  /// run() directly must call it themselves.
  virtual void finish();
};

/// Human-readable progress + final tables, in the style of the original
/// figure harnesses: one "[name] ... best=... final=..." line per finished
/// scenario, then an accuracy-series table (sampled at ~12 rounds per
/// scenario) and a summary table on finish().  `os` must outlive the
/// emitter.
class ConsoleEmitter final : public MetricsEmitter {
 public:
  explicit ConsoleEmitter(std::ostream& os, std::size_t series_samples = 12);
  void begin_scenario(const ScenarioSpec& spec) override;
  void emit_round(const ScenarioSpec& spec,
                  const RoundMetrics& metrics) override;
  void end_scenario(const ScenarioSummary& summary) override;
  void finish() override;

 private:
  std::ostream& os_;
  std::size_t series_samples_;
  std::vector<std::pair<std::string, std::vector<RoundMetrics>>> series_;
  Table summary_;
};

/// CSV artifacts: <base>_series.csv (every round of every scenario) and
/// <base>_summary.csv (one row per scenario), written on finish().  Both
/// files are created at construction, which throws std::runtime_error
/// when either path is not writable.
class CsvEmitter final : public MetricsEmitter {
 public:
  explicit CsvEmitter(std::string base_path);
  void emit_round(const ScenarioSpec& spec,
                  const RoundMetrics& metrics) override;
  void end_scenario(const ScenarioSummary& summary) override;
  void finish() override;

 private:
  std::string base_path_;
  Table series_;
  Table summary_;
};

/// Machine-readable JSON artifact (one array, one object per scenario with
/// its spec string, summary numbers and full per-round series), written on
/// finish() — the scenario-level counterpart of bench/bench_json.hpp's
/// micro-bench records, uploaded by CI next to them.
class JsonEmitter final : public MetricsEmitter {
 public:
  /// Creates the file, so a bad path throws std::runtime_error here,
  /// before any scenario runs.
  explicit JsonEmitter(std::string path);
  void begin_scenario(const ScenarioSpec& spec) override;
  void emit_round(const ScenarioSpec& spec,
                  const RoundMetrics& metrics) override;
  void end_scenario(const ScenarioSummary& summary) override;
  /// Writes the file; throws std::runtime_error on I/O failure.
  void finish() override;

 private:
  struct Entry {
    ScenarioSpec spec;
    std::vector<RoundMetrics> rounds;
    double best_accuracy = 0.0;
    double final_accuracy = 0.0;
    double seconds = 0.0;
    double sim_seconds = 0.0;  ///< total simulated network time
    double bytes = 0.0;        ///< total delivered wire bytes
    double compression_ratio = 1.0;  ///< dense-equivalent / delivered
    double rounds_degraded = 0.0;    ///< rounds below the designed quorum
    double stale_accepted = 0.0;     ///< stale-but-within-tau submissions
    double stale_rejected = 0.0;     ///< submissions older than tau
    std::string error;
    /// Unified registry snapshot (net.* / agreement.* / sketch.* counters,
    /// round.* histograms), emitted as a "metrics" block with p50/p95/p99
    /// per histogram.
    obs::MetricsSnapshot metrics;
  };
  std::string path_;
  std::vector<Entry> entries_;
};

/// Flight-recorder artifacts: one trace_<cell>.json (Chrome trace-event /
/// Perfetto JSON) per traced scenario under `dir` (created on demand), plus
/// an aggregate per-phase self-time table on finish() when `profile` is set
/// (the bcl_run --profile report; validated by tools/check_trace.py).
/// Scenarios with an empty trace (trace=off cells) write nothing.
class TraceEmitter final : public MetricsEmitter {
 public:
  /// `os` receives the profile table (defaults to std::cout when null).
  explicit TraceEmitter(std::string dir, bool profile = false,
                        std::ostream* os = nullptr);
  void end_scenario(const ScenarioSummary& summary) override;
  void finish() override;

  /// Paths written so far (tests and bcl_run's completion message).
  const std::vector<std::string>& written() const { return written_; }

 private:
  std::string dir_;
  bool profile_;
  std::ostream* os_;
  std::vector<obs::TraceRecord> all_records_;
  std::vector<std::string> written_;
};

}  // namespace bcl::experiments
