#include "experiments/emitters.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <stdexcept>

#include "experiments/runner.hpp"

namespace bcl::experiments {

void MetricsEmitter::begin_scenario(const ScenarioSpec& /*spec*/) {}
void MetricsEmitter::emit_round(const ScenarioSpec& /*spec*/,
                                const RoundMetrics& /*metrics*/) {}
void MetricsEmitter::end_scenario(const ScenarioSummary& /*summary*/) {}
void MetricsEmitter::finish() {}

// --- console ---------------------------------------------------------------

ConsoleEmitter::ConsoleEmitter(std::ostream& os, std::size_t series_samples)
    : os_(os),
      series_samples_(std::max<std::size_t>(1, series_samples)),
      summary_({"scenario", "rule", "attack", "best acc", "final acc",
                "rounds", "degr", "seconds", "MB", "comp x"}) {}

void ConsoleEmitter::begin_scenario(const ScenarioSpec& spec) {
  series_.emplace_back(spec.name(), std::vector<RoundMetrics>{});
}

void ConsoleEmitter::emit_round(const ScenarioSpec& /*spec*/,
                                const RoundMetrics& metrics) {
  series_.back().second.push_back(metrics);
}

void ConsoleEmitter::end_scenario(const ScenarioSummary& summary) {
  const auto& result = summary.result;
  if (!summary.error.empty()) {
    summary_.new_row()
        .add(summary.spec.name())
        .add(summary.spec.rule)
        .add(summary.spec.attack)
        .add("FAILED")
        .add("FAILED")
        .add_int(static_cast<long long>(result.history.size()))
        .add("-")
        .add_num(summary.seconds, 2)
        .add("-")
        .add("-");
    os_ << "[" << summary.spec.name() << "] FAILED: " << summary.error
        << "\n";
    return;
  }
  summary_.new_row()
      .add(summary.spec.name())
      .add(summary.spec.rule)
      .add(summary.spec.attack)
      .add_num(result.best_accuracy(), 4)
      .add_num(result.final_accuracy, 4)
      .add_int(static_cast<long long>(result.history.size()))
      .add_int(static_cast<long long>(result.rounds_degraded_total()))
      .add_num(summary.seconds, 2)
      .add_num(result.bytes_total() / 1e6, 2)
      .add_num(result.compression_ratio(), 1);
  os_ << "[" << summary.spec.name()
      << "] best=" << format_double(result.best_accuracy(), 4)
      << " final=" << format_double(result.final_accuracy, 4) << " ("
      << format_double(summary.seconds, 2) << "s)\n";
}

void ConsoleEmitter::finish() {
  Table series({"scenario", "round", "accuracy", "loss", "grad diameter",
                "live", "cohort", "sim s"});
  for (const auto& [name, rounds] : series_) {
    if (rounds.empty()) continue;
    const std::size_t stride =
        std::max<std::size_t>(1, rounds.size() / series_samples_);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      if (i % stride != 0 && i + 1 != rounds.size()) continue;
      series.new_row()
          .add(name)
          .add_int(static_cast<long long>(rounds[i].round))
          .add_num(rounds[i].accuracy, 4)
          .add_num(rounds[i].mean_honest_loss, 4)
          .add_num(rounds[i].gradient_diameter, 4)
          .add_num(rounds[i].live_clients, 0)
          .add_num(rounds[i].cohort, 0)
          .add_num(rounds[i].sim_seconds, 3);
    }
  }
  os_ << "\n--- accuracy series ---\n";
  series.print(os_);
  os_ << "\n--- summary ---\n";
  summary_.print(os_);
}

// --- CSV -------------------------------------------------------------------

namespace {
// Creates (or truncates) `path` and closes it again, so an unwritable
// artifact path fails when the emitter is built, before any cell runs,
// instead of after the whole sweep.
void probe_writable(const std::string& path, const char* who) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error(std::string(who) + ": cannot open '" + path +
                             "'");
  }
  std::fclose(f);
}
}  // namespace

CsvEmitter::CsvEmitter(std::string base_path)
    : base_path_(std::move(base_path)),
      series_({"scenario", "round", "accuracy", "accuracy_min",
               "accuracy_max", "loss", "lr", "disagreement",
               "gradient_diameter", "live_clients", "cohort", "shards",
               "stale_accepted", "stale_rejected", "degraded", "seconds",
               "sim_seconds", "bytes", "compression_ratio"}),
      summary_({"scenario", "rule", "attack", "topology", "heterogeneity",
                "f", "net", "comp", "faults", "stale", "cohort",
                "best_accuracy", "final_accuracy", "rounds_degraded",
                "stale_accepted", "stale_rejected", "gram_builds",
                "shared_hits", "sketch_certified", "sketch_fallbacks",
                "seconds", "sim_seconds", "bytes", "compression_ratio",
                "error"}) {
  probe_writable(base_path_ + "_series.csv", "CsvEmitter");
  probe_writable(base_path_ + "_summary.csv", "CsvEmitter");
}

void CsvEmitter::emit_round(const ScenarioSpec& spec,
                            const RoundMetrics& m) {
  const double ratio =
      m.bytes_delivered > 0.0 ? m.bytes_dense / m.bytes_delivered : 1.0;
  series_.new_row()
      .add(spec.name())
      .add_int(static_cast<long long>(m.round))
      .add_num(m.accuracy, 6)
      .add_num(m.accuracy_min, 6)
      .add_num(m.accuracy_max, 6)
      .add_num(m.mean_honest_loss, 6)
      .add_num(m.learning_rate, 6)
      .add_num(m.disagreement, 6)
      .add_num(m.gradient_diameter, 6)
      .add_num(m.live_clients, 0)
      .add_num(m.cohort, 0)
      .add_num(m.shards, 0)
      .add_num(m.stale_accepted, 0)
      .add_num(m.stale_rejected, 0)
      .add_num(m.degraded, 0)
      .add_num(m.seconds, 4)
      .add_num(m.sim_seconds, 4)
      .add_num(m.bytes_delivered, 0)
      .add_num(ratio, 2);
}

void CsvEmitter::end_scenario(const ScenarioSummary& summary) {
  const double sim_total = summary.result.sim_seconds_total();
  summary_.new_row()
      .add(summary.spec.name())
      .add(summary.spec.rule)
      .add(summary.spec.attack)
      .add(topology_name(summary.spec.topology))
      .add(ml::heterogeneity_name(summary.spec.heterogeneity))
      .add_int(static_cast<long long>(summary.spec.byzantine))
      .add(summary.spec.net)
      .add(summary.spec.comp)
      .add(summary.spec.faults)
      .add(summary.spec.stale)
      .add(summary.spec.cohort)
      .add_num(summary.result.best_accuracy(), 6)
      .add_num(summary.result.final_accuracy, 6)
      .add_num(summary.result.rounds_degraded_total(), 0)
      .add_num(summary.result.stale_accepted_total(), 0)
      .add_num(summary.result.stale_rejected_total(), 0)
      .add_int(static_cast<long long>(
          summary.metrics.counter_or("agreement.gram_builds")))
      .add_int(static_cast<long long>(
          summary.metrics.counter_or("agreement.shared_hits")))
      .add_int(static_cast<long long>(
          summary.metrics.counter_or("sketch.certified")))
      .add_int(static_cast<long long>(
          summary.metrics.counter_or("sketch.fallbacks")))
      .add_num(summary.seconds, 2)
      .add_num(sim_total, 3)
      .add_num(summary.result.bytes_total(), 0)
      .add_num(summary.result.compression_ratio(), 2)
      .add(summary.error);
}

void CsvEmitter::finish() {
  series_.write_csv(base_path_ + "_series.csv");
  summary_.write_csv(base_path_ + "_summary.csv");
}

// --- JSON ------------------------------------------------------------------

JsonEmitter::JsonEmitter(std::string path) : path_(std::move(path)) {
  probe_writable(path_, "JsonEmitter");
}

void JsonEmitter::begin_scenario(const ScenarioSpec& spec) {
  entries_.emplace_back();
  entries_.back().spec = spec;
}

void JsonEmitter::emit_round(const ScenarioSpec& /*spec*/,
                             const RoundMetrics& metrics) {
  entries_.back().rounds.push_back(metrics);
}

void JsonEmitter::end_scenario(const ScenarioSummary& summary) {
  Entry& entry = entries_.back();
  entry.best_accuracy = summary.result.best_accuracy();
  entry.final_accuracy = summary.result.final_accuracy;
  entry.seconds = summary.seconds;
  entry.sim_seconds = summary.result.sim_seconds_total();
  entry.bytes = summary.result.bytes_total();
  entry.compression_ratio = summary.result.compression_ratio();
  entry.rounds_degraded = summary.result.rounds_degraded_total();
  entry.stale_accepted = summary.result.stale_accepted_total();
  entry.stale_rejected = summary.result.stale_rejected_total();
  entry.error = summary.error;
  entry.metrics = summary.metrics;
}

namespace {
// Error messages pass through here too (they may embed arbitrary
// user-provided names), so control characters are escaped along with the
// JSON metacharacters.
std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}
}  // namespace

void JsonEmitter::finish() {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("JsonEmitter: cannot open '" + path_ + "'");
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(f, "  {\"scenario\": \"%s\",\n",
                 escape_json(e.spec.name()).c_str());
    std::fprintf(f, "   \"spec\": \"%s\",\n",
                 escape_json(e.spec.to_string()).c_str());
    std::fprintf(f, "   \"rule\": \"%s\", \"attack\": \"%s\",\n",
                 escape_json(e.spec.rule).c_str(),
                 escape_json(e.spec.attack).c_str());
    std::fprintf(f,
                 "   \"topology\": \"%s\", \"heterogeneity\": \"%s\", "
                 "\"f\": %zu, \"net\": \"%s\", \"comp\": \"%s\",\n",
                 topology_name(e.spec.topology),
                 ml::heterogeneity_name(e.spec.heterogeneity),
                 e.spec.byzantine, escape_json(e.spec.net).c_str(),
                 escape_json(e.spec.comp).c_str());
    std::fprintf(f,
                 "   \"faults\": \"%s\", \"stale\": \"%s\", "
                 "\"cohort\": \"%s\",\n",
                 escape_json(e.spec.faults).c_str(),
                 escape_json(e.spec.stale).c_str(),
                 escape_json(e.spec.cohort).c_str());
    std::fprintf(f,
                 "   \"best_accuracy\": %.6f, \"final_accuracy\": %.6f, "
                 "\"seconds\": %.3f, \"sim_seconds\": %.4f, "
                 "\"bytes\": %.0f, \"compression_ratio\": %.3f, "
                 "\"rounds_degraded\": %.0f, \"stale_accepted\": %.0f, "
                 "\"stale_rejected\": %.0f, "
                 "\"error\": \"%s\",\n",
                 e.best_accuracy, e.final_accuracy, e.seconds, e.sim_seconds,
                 e.bytes, e.compression_ratio, e.rounds_degraded,
                 e.stale_accepted, e.stale_rejected,
                 escape_json(e.error).c_str());
    std::fprintf(
        f,
        "   \"gram_builds\": %llu, \"shared_hits\": %llu, "
        "\"sketch_certified\": %llu, \"sketch_fallbacks\": %llu,\n",
        static_cast<unsigned long long>(
            e.metrics.counter_or("agreement.gram_builds")),
        static_cast<unsigned long long>(
            e.metrics.counter_or("agreement.shared_hits")),
        static_cast<unsigned long long>(
            e.metrics.counter_or("sketch.certified")),
        static_cast<unsigned long long>(
            e.metrics.counter_or("sketch.fallbacks")));
    std::fprintf(f, "   \"metrics\": {\"counters\": {");
    {
      bool first = true;
      for (const auto& [name, value] : e.metrics.counters) {
        std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ",
                     escape_json(name).c_str(),
                     static_cast<unsigned long long>(value));
        first = false;
      }
    }
    std::fprintf(f, "}, \"gauges\": {");
    {
      bool first = true;
      for (const auto& [name, value] : e.metrics.gauges) {
        std::fprintf(f, "%s\"%s\": %.6g", first ? "" : ", ",
                     escape_json(name).c_str(), value);
        first = false;
      }
    }
    std::fprintf(f, "}, \"histograms\": {");
    {
      bool first = true;
      for (const auto& [name, h] : e.metrics.histograms) {
        std::fprintf(f,
                     "%s\"%s\": {\"count\": %llu, \"sum\": %.6g, "
                     "\"min\": %.6g, \"max\": %.6g, \"mean\": %.6g, "
                     "\"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g}",
                     first ? "" : ", ", escape_json(name).c_str(),
                     static_cast<unsigned long long>(h.count), h.sum, h.min,
                     h.max, h.mean(), h.quantile(0.50), h.quantile(0.95),
                     h.quantile(0.99));
        first = false;
      }
    }
    std::fprintf(f, "}},\n");
    std::fprintf(f, "   \"rounds\": [\n");
    for (std::size_t r = 0; r < e.rounds.size(); ++r) {
      const RoundMetrics& m = e.rounds[r];
      std::fprintf(f,
                   "     {\"round\": %zu, \"accuracy\": %.6f, "
                   "\"loss\": %.6f, \"lr\": %.6f, "
                   "\"disagreement\": %.6g, "
                   "\"gradient_diameter\": %.6g, \"seconds\": %.4f, "
                   "\"sim_seconds\": %.4f, \"bytes\": %.0f, "
                   "\"live\": %.0f, \"cohort\": %.0f, \"shards\": %.0f, "
                   "\"stale_acc\": %.0f, "
                   "\"stale_rej\": %.0f, \"degraded\": %.0f}%s\n",
                   m.round, m.accuracy, m.mean_honest_loss, m.learning_rate,
                   m.disagreement, m.gradient_diameter, m.seconds,
                   m.sim_seconds, m.bytes_delivered, m.live_clients,
                   m.cohort, m.shards,
                   m.stale_accepted, m.stale_rejected, m.degraded,
                   r + 1 < e.rounds.size() ? "," : "");
    }
    std::fprintf(f, "   ]}%s\n", i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

// --- trace -----------------------------------------------------------------

namespace {
// Cell names embed '/' and ':' (e.g. "cen/mild/KRUM/sign-flip/f1"); map
// anything unsafe in a filename to '_'.
std::string sanitize_cell_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                      c == '=';
    if (!keep) c = '_';
  }
  return out;
}
}  // namespace

TraceEmitter::TraceEmitter(std::string dir, bool profile, std::ostream* os)
    : dir_(std::move(dir)), profile_(profile), os_(os) {}

void TraceEmitter::end_scenario(const ScenarioSummary& summary) {
  if (summary.trace.empty()) return;
  all_records_.insert(all_records_.end(), summary.trace.begin(),
                      summary.trace.end());
  if (dir_.empty()) return;
  std::filesystem::create_directories(dir_);
  const std::string path =
      dir_ + "/trace_" + sanitize_cell_name(summary.spec.name()) + ".json";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("TraceEmitter: cannot open '" + path + "'");
  }
  obs::TraceBuffer buffer;
  buffer.records = summary.trace;
  buffer.dropped = summary.trace_dropped;
  obs::write_chrome_trace(out, buffer);
  if (!out) {
    throw std::runtime_error("TraceEmitter: write failed for '" + path + "'");
  }
  written_.push_back(path);
}

void TraceEmitter::finish() {
  if (!profile_) return;
  std::ostream& os = os_ != nullptr ? *os_ : std::cout;
  const std::vector<obs::PhaseStat> stats = obs::self_time(all_records_);
  if (stats.empty()) {
    os << "--profile: no trace records (did every cell run trace=off?)\n";
    return;
  }
  os << "\n--- per-phase self time (all traced cells) ---\n";
  obs::write_profile(os, stats);
}

}  // namespace bcl::experiments
