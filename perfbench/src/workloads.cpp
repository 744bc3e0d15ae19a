// The three workloads.  Each pass re-reads its inputs from disk, so the
// parse and build layers are part of every measured pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "exp/corebench.hpp"
#include "metrics/result_json.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "tracelog/recorder.hpp"
#include "tracelog/task_log_reader.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pcs::scenario::RunOptions;
using pcs::scenario::RunResult;
using pcs::scenario::ScenarioSpec;
using pcs::util::Json;

// Rungs past the committed ladder (which stops at 32): the sizes where the
// page cache's per-event cost grows faster than linearly.
constexpr int kFig8ExtraRungs[] = {64, 128, 192, 256};
constexpr int kFig8QuickRungs[] = {1, 4};
constexpr int kMegaTenants = 100;
constexpr int kMegaQuickTenants = 2;
constexpr int kNighresInstances = 512;
constexpr int kNighresQuickInstances = 8;

std::string relative_error(double got, double want, double tolerance) {
  const double drift =
      std::abs(got - want) / std::max(1.0, std::max(std::abs(got), std::abs(want)));
  if (drift <= tolerance) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf, "makespan %.17g, pinned %.17g", got, want);
  return buf;
}

/// Check a makespan against pins[label]; a missing pin fails the case.
void check_pinned(CaseResult& c, const Json& pins, double tolerance) {
  if (!pins.contains(c.label)) {
    c.error = "no pinned makespan";
    return;
  }
  c.error = relative_error(c.observed, pins.at(c.label).as_number(), tolerance);
}

/// Serialize one report section; the emit layer's cost.
std::string emit(const RunResult& result, PassStats& stats, SpanLog* spans) {
  std::string text = timed(spans, "metrics.result_to_json", &stats.emit_s,
                           [&] { return pcs::metrics::result_to_json(result).dump(2); });
  stats.report_bytes += static_cast<double>(text.size());
  return text;
}

void add_run_counters(const RunResult& result, PassStats& stats) {
  stats.engine_s += result.wall_seconds;
  stats.scheduling_points += static_cast<double>(result.scheduling_points);
  stats.fair_share_solves += static_cast<double>(result.fair_share_solves);
  stats.components_solved += static_cast<double>(result.components_solved);
  stats.final_blocks =
      std::max(stats.final_blocks,
               static_cast<double>(result.final_inactive_blocks + result.final_active_blocks));
}

/// Add a run's page-cache traffic: the last row of its metrics timeline,
/// summed over every storage service with a page cache.
void add_traffic(const RunResult& result, CacheTraffic& traffic) {
  if (!result.timeline.contains("metrics")) {
    throw std::runtime_error("traffic count: run has no metrics timeline");
  }
  const std::string hit_suffix = "/hit_bytes";
  for (const auto& [name, column] : result.timeline.at("metrics").as_object()) {
    if (name.size() <= hit_suffix.size() ||
        name.compare(name.size() - hit_suffix.size(), hit_suffix.size(), hit_suffix) != 0) {
      continue;
    }
    const std::string service = name.substr(0, name.size() - hit_suffix.size());
    auto last = [&](const std::string& gauge) {
      return result.timeline.at("metrics").at(service + gauge).as_array().back().as_number();
    };
    traffic.written += last("/write_bytes");
    traffic.hit += last("/hit_bytes");
    traffic.miss += last("/miss_bytes");
    traffic.flushed += last("/flushed_bytes");
    traffic.evicted += last("/evicted_bytes");
  }
  traffic.files = std::max(traffic.files, result.final_state.per_file.size());
}

/// Run a scenario through run_scenario; a traffic-counting pass turns the
/// metrics sampler on, with one periodic sample at t = 0 and the closing
/// one at the makespan.
RunResult run_spec(const ScenarioSpec& spec, PassStats& stats, SpanLog* spans,
                   pcs::obs::EngineProfile* profile) {
  RunOptions options;
  options.profile = profile;
  if (!stats.count_traffic) {
    return timed(spans, "scenario.run_scenario", &stats.run_s,
                 [&] { return pcs::scenario::run_scenario(spec, options); });
  }
  ScenarioSpec sampled = spec;
  sampled.metrics_interval = 1.0e15;
  RunResult result = pcs::scenario::run_scenario(sampled, options);
  add_traffic(result, stats.traffic);
  return result;
}

/// Write the pass's report: the last step of every pass.
void write_report(const std::string& path, const std::vector<std::string>& sections) {
  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out << sections[i] << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write report '" + path + "'");
}

/// Run one scenario case: run, report, check.  `parse_s` is the host time
/// already spent parsing its spec.
void run_case(const std::string& label, double instances, const ScenarioSpec& spec,
              double parse_s, const Json& pins, double tolerance, PassStats& stats,
              SpanLog* spans, pcs::obs::EngineProfile* profile,
              std::vector<std::string>& report) {
  CaseResult c;
  c.label = label;
  c.instances = instances;
  const Clock::time_point start = Clock::now();
  try {
    const RunResult result = run_spec(spec, stats, spans, profile);
    add_run_counters(result, stats);
    report.push_back(emit(result, stats, spans));
    c.observed = result.makespan;
    check_pinned(c, pins, tolerance);
  } catch (const std::exception& e) {
    c.error = e.what();
  }
  c.seconds = parse_s + seconds_since(start);
  c.ok = c.error.empty();
  stats.cases.push_back(std::move(c));
}

/// Fig 8 (paper Section IV.E): the four configurations of
/// experiments/fig8.json over an instance ladder extended past 32.
class Fig8Ladder final : public Workload {
 public:
  Fig8Ladder(const Options& options, const Json& pins)
      : options_(options),
        pins_(pins.at("fig8_ladder")),
        tolerance_(pins.at("tolerance").as_number()) {}

  void pass(PassStats& stats, SpanLog* spans, pcs::obs::EngineProfile* profile,
            SpeedSampler& sampler) override {
    const Clock::time_point start = Clock::now();
    const fs::path file = fs::path(options_.root) / "experiments" / "fig8.json";
    std::vector<pcs::scenario::SweepCase> cases = timed(spans, "scenario.sweep_parse",
                                                        &stats.parse_s, [&] {
      pcs::scenario::SweepSpec sweep = pcs::scenario::SweepSpec::parse(
          Json::parse_file(file.string()).at("sweep"), file.parent_path().string());
      pcs::scenario::SweepSpec::Axis& rungs = sweep.grid.at(1);
      if (rungs.path != "workload.instances") {
        throw std::runtime_error(file.string() + ": second grid axis is not workload.instances");
      }
      if (options_.quick) {
        rungs.values.assign(std::begin(kFig8QuickRungs), std::end(kFig8QuickRungs));
      } else {
        for (int n : kFig8ExtraRungs) rungs.values.emplace_back(n);
      }
      return sweep.expand();
    });
    // Set-up is the load phase before the first simulation: every case's
    // spec is parsed up front.
    const std::string base_dir = file.parent_path().string();
    std::vector<ScenarioSpec> specs(cases.size());
    std::vector<double> parse_s(cases.size(), 0.0);
    std::vector<std::string> parse_error(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      try {
        specs[i] = timed(spans, "scenario.parse", &parse_s[i],
                         [&] { return ScenarioSpec::parse(cases[i].doc, base_dir); });
      } catch (const std::exception& e) {
        parse_error[i] = e.what();
      }
      stats.parse_s += parse_s[i];
    }
    stats.setup_s = stats.parse_s;
    std::vector<std::string> report;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const pcs::scenario::SweepCase& sc = cases[i];
      if (!parse_error[i].empty()) {
        stats.cases.push_back({sc.label, 0.0, parse_s[i], 0.0, false, parse_error[i]});
        continue;
      }
      run_case(sc.label, sc.overrides.at("workload.instances").as_number(), specs[i],
               parse_s[i], pins_, tolerance_, stats, spans, profile, report);
      sampler.mid_pass();
    }
    write_report(options_.out_dir + "/report-fig8_ladder.json", report);
    stats.wall_s = seconds_since(start) - sampler.overhead_s();
  }

 private:
  Options options_;
  Json pins_;
  double tolerance_;
};

/// exp::mega_tenant_config: ~100k actors on the bare engine.  Tenants are
/// clones with identical per-actor seeds, so for any seed the checksum is
/// `tenants` times that of one tenant; the one-tenant reference runs once,
/// untimed, with the full-solve cross-check on.
class MegaTenant final : public Workload {
 public:
  MegaTenant(const Options& options, const Json& pins)
      : options_(options),
        tenants_(options.quick ? kMegaQuickTenants : kMegaTenants),
        pins_(pins.at("mega_tenant")) {
    pcs::exp::CoreScenarioConfig reference = pcs::exp::mega_tenant_config(1);
    reference.seed = options.seed;
    reference.solver_cross_check = true;
    try {
      reference_checksum_ns_ = pcs::exp::run_core_scenario(reference).checksum_ns;
    } catch (const std::exception& e) {
      reference_error_ = std::string("one-tenant reference failed: ") + e.what();
    }
  }

  void pass(PassStats& stats, SpanLog* spans, pcs::obs::EngineProfile* profile,
            SpeedSampler& /*sampler*/) override {
    const Clock::time_point start = Clock::now();
    CaseResult c;
    c.label = "mega_tenant,tenants=" + std::to_string(tenants_);
    c.instances = tenants_;
    std::vector<std::string> report;
    try {
      pcs::exp::CoreScenarioConfig config = pcs::exp::mega_tenant_config(tenants_);
      config.seed = options_.seed;
      config.profile = profile;
      double run_s = 0.0;
      const pcs::exp::CoreScenarioResult result =
          timed(spans, "exp.run_core_scenario", &run_s,
                [&] { return pcs::exp::run_core_scenario(config); });
      stats.run_s += run_s;
      stats.setup_s = run_s - result.wall_seconds;
      stats.engine_s += result.wall_seconds;
      stats.scheduling_points += static_cast<double>(result.scheduling_points);
      stats.fair_share_solves += static_cast<double>(result.fair_share_solves);
      stats.components_solved += static_cast<double>(result.components_solved);
      report.push_back(timed(spans, "exp.result_json", &stats.emit_s, [&] {
        Json doc{pcs::util::JsonObject{}};
        doc.set("checksum_ns", std::to_string(result.checksum_ns));
        doc.set("final_vtime", result.final_vtime);
        doc.set("completion_checksum", result.completion_checksum);
        doc.set("activities", static_cast<double>(result.activities));
        doc.set("scheduling_points", static_cast<double>(result.scheduling_points));
        doc.set("fair_share_solves", static_cast<double>(result.fair_share_solves));
        return doc.dump(2);
      }));
      stats.report_bytes += static_cast<double>(report.back().size());
      c.observed = static_cast<double>(result.checksum_ns);
      const std::uint64_t want = reference_checksum_ns_ * static_cast<std::uint64_t>(tenants_);
      if (!reference_error_.empty()) {
        c.error = reference_error_;
      } else if (result.checksum_ns != want) {
        c.error = "checksum_ns " + std::to_string(result.checksum_ns) + ", " +
                  std::to_string(tenants_) + " x one-tenant reference = " + std::to_string(want);
      } else if (pins_.at("seed").as_number() == static_cast<double>(options_.seed) &&
                 pins_.at("tenants").as_int() == tenants_ &&
                 pins_.at("checksum_ns").as_string() != std::to_string(result.checksum_ns)) {
        c.error = "checksum_ns " + std::to_string(result.checksum_ns) + ", pinned " +
                  pins_.at("checksum_ns").as_string();
      }
    } catch (const std::exception& e) {
      c.error = e.what();
    }
    c.seconds = seconds_since(start);
    c.ok = c.error.empty();
    stats.cases.push_back(std::move(c));
    write_report(options_.out_dir + "/report-mega_tenant.json", report);
    stats.wall_s = seconds_since(start);
  }

 private:
  Options options_;
  int tenants_;
  Json pins_;
  std::uint64_t reference_checksum_ns_ = 0;
  std::string reference_error_;  ///< fails every case when set
};

std::string nighres_stem(const std::string& data_dir) { return data_dir + "/nighres"; }

int nighres_instances(bool quick) { return quick ? kNighresQuickInstances : kNighresInstances; }

/// Streaming replay of a nighres recording (prepare_nighres).  The
/// benchmark pre-scans the log itself, which gives the recorded makespan
/// the replay must reproduce exactly.
class NighresReplay final : public Workload {
 public:
  NighresReplay(const Options& options, const Json& pins)
      : options_(options),
        instances_(nighres_instances(options.quick)),
        pins_(pins.at("nighres_replay")),
        tolerance_(pins.at("tolerance").as_number()) {
    const std::string stem = nighres_stem(options.data_dir);
    scenario_path_ = stem + ".replay.json";
    log_path_ = stem + ".jsonl";
    if (!fs::exists(scenario_path_)) {
      throw std::runtime_error("missing prepared input '" + scenario_path_ +
                               "' (run the prepare command first)");
    }
  }

  void pass(PassStats& stats, SpanLog* spans, pcs::obs::EngineProfile* profile,
            SpeedSampler& sampler) override {
    const Clock::time_point start = Clock::now();
    CaseResult c;
    c.label = "nighres_replay,instances=" + std::to_string(instances_);
    c.instances = instances_;
    std::vector<std::string> report;
    try {
      const ScenarioSpec spec = timed(spans, "scenario.from_file", &stats.parse_s,
                                      [&] { return ScenarioSpec::from_file(scenario_path_); });
      const auto reader = timed(spans, "tracelog.TaskLogReader", &stats.prescan_s, [&] {
        return std::make_unique<pcs::tracelog::TaskLogReader>(log_path_);
      });
      stats.setup_s = stats.parse_s + stats.prescan_s;
      sampler.mid_pass();
      stats.records += static_cast<double>(reader->workflows().size() + reader->task_count() +
                                           reader->task_event_count() + reader->io_event_count());
      const RunResult result = run_spec(spec, stats, spans, profile);
      add_run_counters(result, stats);
      report.push_back(emit(result, stats, spans));
      c.observed = result.makespan;
      if (result.makespan != reader->recorded_makespan()) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "replayed makespan %.17g, recorded %.17g",
                      result.makespan, reader->recorded_makespan());
        c.error = buf;
      } else if (pins_.at("instances").as_int() == instances_) {
        c.error = relative_error(result.makespan, pins_.at("makespan").as_number(), tolerance_);
      }
    } catch (const std::exception& e) {
      c.error = e.what();
    }
    c.seconds = seconds_since(start) - sampler.overhead_s();
    c.ok = c.error.empty();
    stats.cases.push_back(std::move(c));
    write_report(options_.out_dir + "/report-nighres_replay.json", report);
    stats.wall_s = seconds_since(start) - sampler.overhead_s();
  }

 private:
  Options options_;
  int instances_;
  Json pins_;
  double tolerance_;
  std::string scenario_path_;
  std::string log_path_;
};

}  // namespace

void prepare_nighres(const std::string& root, const std::string& data_dir, bool quick) {
  const int instances = nighres_instances(quick);
  const fs::path source = fs::path(root) / "scenarios" / "nighres.json";
  Json doc = Json::parse_file(source.string());
  pcs::scenario::apply_override(doc, "workload.instances", Json(instances));
  const ScenarioSpec spec = ScenarioSpec::parse(doc, source.parent_path().string());

  fs::create_directories(data_dir);
  const std::string stem = nighres_stem(data_dir);
  const std::string log_path = stem + ".jsonl";
  std::ofstream log(log_path, std::ios::trunc);
  pcs::tracelog::TaskLogRecorder recorder(&log, /*keep_in_memory=*/false);
  RunOptions options;
  options.recorder = &recorder;
  const RunResult result = pcs::scenario::run_scenario(spec, options);
  log.flush();
  if (!log) throw std::runtime_error("cannot write '" + log_path + "'");

  // The replay scenario: the recorded run's effective spec with a
  // streaming trace workload, as `pcs_cli replay --stream` builds it.
  Json replay = spec.to_json();
  replay.set("name", spec.name + ":replay");
  Json workload{pcs::util::JsonObject{}};
  workload.set("type", "trace");
  workload.set("file", fs::path(log_path).filename().string());
  workload.set("streaming", true);
  replay.set("workload", std::move(workload));
  // Written last, through a rename: its presence marks a complete input.
  const std::string tmp = stem + ".replay.json.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << replay.dump(2) << "\n";
    out.flush();
    if (!out) throw std::runtime_error("cannot write '" + tmp + "'");
  }
  fs::rename(tmp, stem + ".replay.json");
}

std::unique_ptr<Workload> make_workload(const Options& options, const Json& pins) {
  if (options.workload == "fig8_ladder") return std::make_unique<Fig8Ladder>(options, pins);
  if (options.workload == "mega_tenant") return std::make_unique<MegaTenant>(options, pins);
  if (options.workload == "nighres_replay") return std::make_unique<NighresReplay>(options, pins);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
