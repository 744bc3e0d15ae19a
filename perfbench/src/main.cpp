// pcs_perfbench: the simulator's host-cost benchmark.
//
//   pcs_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     [--quick] [--root DIR] [--data DIR] [--out DIR]
//                     [--pins FILE] [--commit ID] [--source-digest HEX]
//   pcs_perfbench prepare --data DIR [--quick] [--root DIR]
//
// `run` makes one untimed warm-up pass, then runs passes back to back for
// S seconds and prints every metric with its unit, followed by one JSON
// line {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off.  With
// --trace 1 the first half of the time runs untraced and the second half
// traced (EngineProfile attached, spans recorded); one more untimed pass
// counts the page cache's traffic for the probe, and the metrics are the
// per-layer ones.  Times are in reference-host seconds (calibrate.cpp) and
// each is the median over the run's passes.  Every case's simulated output
// is checked; a failed check counts in `failed` and never stops the run.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/rss.hpp"

namespace perfbench {
namespace {

using pcs::util::Json;

int usage(const std::string& message) {
  std::cerr << "pcs_perfbench: " << message << "\n"
            << "usage: pcs_perfbench run --workload W --seed N --seconds S --trace 0|1 "
               "[--quick] [--root DIR] [--data DIR] [--out DIR] [--pins FILE] "
               "[--commit ID] [--source-digest HEX]\n"
               "       pcs_perfbench prepare --data DIR [--quick] [--root DIR]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      !std::all_of(text.begin(), text.end(), [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <class F>
double median_over(const std::vector<PassStats>& passes, F&& get) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const PassStats& p : passes) values.push_back(get(p));
  return median(std::move(values));
}

/// Median of a per-pass host time, in reference-host seconds.
template <class F>
double reference_median(const std::vector<PassStats>& passes, F&& get) {
  return median_over(passes, [&get](const PassStats& p) { return get(p) * p.speed; });
}

/// Least-squares slope of reference-host ms against instances over the
/// wrench_cache_local rungs, each rung at its median across passes.
double fig8_slope_ms_per_app(const std::vector<PassStats>& passes) {
  std::map<double, std::vector<double>> by_rung;
  for (const PassStats& p : passes) {
    for (const CaseResult& c : p.cases) {
      if (c.label.rfind("wrench_cache_local,", 0) == 0) {
        by_rung[c.instances].push_back(c.seconds * p.speed * 1e3);
      }
    }
  }
  if (by_rung.size() < 2) return 0.0;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (auto& [x, ys] : by_rung) {
    const double y = median(ys);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(by_rung.size());
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

Json host_fingerprint(const std::string& commit, const std::string& source_digest) {
  Json doc{pcs::util::JsonObject{}};
  doc.set("cpu_model", cpu_model());
  doc.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  doc.set("compiler", PERFBENCH_COMPILER);
  doc.set("build_type", PERFBENCH_BUILD_TYPE);
  doc.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  doc.set("commit", commit);
  doc.set("source_digest", source_digest);
  return doc;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_json(const std::string& path, const Json& doc) {
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump(2) << "\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

int cmd_run(const Options& options, const std::string& commit, const std::string& digest) {
  const Json pins = Json::parse_file(options.pins_path);
  std::filesystem::create_directories(options.out_dir);
  std::unique_ptr<Workload> workload = make_workload(options, pins);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> observed;
  // Host speed is sampled before each pass for 2.5% of the previous pass.
  double first_budget = 0.0;
  auto run_pass = [&](SpanLog* spans, bool traced, bool count_traffic = false) {
    PassStats stats;
    stats.count_traffic = count_traffic;
    SpeedSampler sampler(first_budget);
    sampler.sample();
    workload->pass(stats, spans, traced ? &stats.profile : nullptr, sampler);
    sampler.sample();
    stats.speed = sampler.speed();
    first_budget = 0.025 * stats.wall_s;
    for (const CaseResult& c : stats.cases) {
      ++attempted;
      observed[c.label] = c.observed;
      if (!c.ok) {
        ++failed;
        if (failures.size() < 20) failures.push_back(c.label + ": " + c.error);
      }
    }
    return stats;
  };

  // Warm-up: first-touch allocation and lazy set-up stay out of the figures.
  if (!options.quick) run_pass(nullptr, false);

  std::vector<PassStats> plain;
  std::vector<PassStats> traced;
  SpanLog spans;
  const Clock::time_point start = Clock::now();
  const double plain_seconds = options.trace ? options.seconds / 2 : options.seconds;
  do {
    plain.push_back(run_pass(nullptr, false));
  } while (!options.quick && seconds_since(start) < plain_seconds);
  if (options.trace) {
    do {
      traced.push_back(run_pass(&spans, true));
    } while (!options.quick && seconds_since(start) < options.seconds);
  }

  const double wall_s = reference_median(plain, [](const PassStats& p) { return p.wall_s; });
  const double slope = options.workload == "fig8_ladder" ? fig8_slope_ms_per_app(plain) : 0.0;
  const double failed_share = static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<Metric> metrics;
  CacheTraffic traffic;
  if (!options.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"setup_s", reference_median(plain, [](const PassStats& p) { return p.setup_s; }), "s"},
        {"peak_rss_mb", static_cast<double>(pcs::util::peak_rss_kb()) / 1024.0, "MB"},
    };
  } else {
    std::size_t final_blocks = 0;
    for (const PassStats& p : traced) {
      final_blocks = std::max(final_blocks, static_cast<std::size_t>(p.final_blocks));
    }
    // The probe's operation mix comes from one more pass, untimed, that
    // reads the page cache's byte counters.
    traffic = run_pass(nullptr, false, true).traffic;
    SpeedSampler probe_sampler(0.01);
    probe_sampler.sample();
    const ProbeResult probe = run_pagecache_probe(traffic, final_blocks, options.seed);
    probe_sampler.sample();
    const double probe_speed = probe_sampler.speed();
    auto t = [&traced](auto get) { return reference_median(traced, get); };
    auto m = [&traced](auto get) { return median_over(traced, get); };
    metrics = {
        {"simcore.recompute_s", t([](const PassStats& p) { return p.profile.recompute_rates.seconds; }), "s"},
        {"simcore.bfs_s", t([](const PassStats& p) { return p.profile.bfs.seconds; }), "s"},
        {"simcore.solve_s", t([](const PassStats& p) { return p.profile.solve.seconds; }), "s"},
        {"simcore.merge_s", t([](const PassStats& p) { return p.profile.merge.seconds; }), "s"},
        {"simcore.dispatch_s", t([](const PassStats& p) { return p.profile.dispatch.seconds; }), "s"},
        {"simcore.scheduling_points", m([](const PassStats& p) { return p.scheduling_points; }), "count"},
        {"simcore.fair_share_solves", m([](const PassStats& p) { return p.fair_share_solves; }), "count"},
        {"simcore.components_solved", m([](const PassStats& p) { return p.components_solved; }), "count"},
        {"simcore.ns_per_point", t([](const PassStats& p) {
           return p.scheduling_points > 0 ? p.engine_s * 1e9 / p.scheduling_points : 0.0;
         }), "ns"},
        {"pagecache.lru_ns_per_op", probe.lru_ns_per_op * probe_speed, "ns"},
        {"pagecache.io_ns_per_chunk", probe.io_ns_per_chunk * probe_speed, "ns"},
        {"pagecache.final_blocks", m([](const PassStats& p) { return p.final_blocks; }), "count"},
        {"tracelog.prescan_s", t([](const PassStats& p) { return p.prescan_s; }), "s"},
        {"tracelog.records_per_s", m([](const PassStats& p) {
           return p.prescan_s > 0 ? p.records / (p.prescan_s * p.speed) : 0.0;
         }), "1/s"},
        {"tracelog.records", m([](const PassStats& p) { return p.records; }), "count"},
        {"scenario.parse_s", t([](const PassStats& p) { return p.parse_s; }), "s"},
        {"scenario.run_s", t([](const PassStats& p) { return p.run_s; }), "s"},
        {"scenario.unattributed_s", t([](const PassStats& p) {
           return p.run_s - p.profile.recompute_rates.seconds - p.profile.dispatch.seconds;
         }), "s"},
        {"report.emit_s", t([](const PassStats& p) { return p.emit_s; }), "s"},
        {"report.bytes", m([](const PassStats& p) { return p.report_bytes; }), "bytes"},
        {"fig8_slope_ms_per_app", slope, "ms/app"},
        {"trace_overhead_pct",
         (t([](const PassStats& p) { return p.wall_s; }) / wall_s - 1.0) * 100.0, "%"},
    };
  }

  const Json fingerprint = host_fingerprint(commit, digest);
  const std::string tag =
      options.workload + "-seed" + std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0");
  std::cout << "workload " << options.workload << " seed " << options.seed << ": "
            << plain.size() << " untraced + " << traced.size() << " traced passes\n"
            << "host " << fingerprint.dump() << "\n";
  std::cout << "  host wall_s = " << median_over(plain, [](const PassStats& p) { return p.wall_s; })
            << " s unscaled, host speed = " << median_over(plain, [](const PassStats& p) { return p.speed; })
            << " reference s per s\n";
  if (options.trace) {
    std::cout << "  page-cache traffic of one pass (probe mix), bytes: written " << traffic.written
              << ", hit " << traffic.hit << ", miss " << traffic.miss << ", flushed "
              << traffic.flushed << ", evicted " << traffic.evicted << "; files "
              << traffic.files << "\n";
  }
  for (const std::string& f : failures) std::cout << "  FAIL " << f << "\n";
  Json metric_doc{pcs::util::JsonObject{}};
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << metric.value << " " << metric.unit << "\n";
    Json entry{pcs::util::JsonObject{}};
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metric_doc.set(metric.name, std::move(entry));
  }
  std::cout << "  failed_share = " << failed_share << " (" << failed << " of " << attempted
            << " cases)\n";
  if (options.workload == "fig8_ladder") {
    std::cout << "  fig8_slope_ms_per_app = " << slope << " ms/app\n";
  }

  Json record{pcs::util::JsonObject{}};
  record.set("workload", options.workload);
  record.set("seed", std::to_string(options.seed));
  record.set("host", fingerprint);
  record.set("metrics", metric_doc);
  record.set("failed_share", failed_share);
  Json passes{pcs::util::JsonArray{}};
  for (const PassStats& p : plain) {
    Json row{pcs::util::JsonArray{}};
    row.push_back(p.wall_s);
    row.push_back(p.setup_s);
    row.push_back(p.speed);
    passes.push_back(std::move(row));
  }
  record.set("passes", std::move(passes));
  Json observed_doc{pcs::util::JsonObject{}};
  for (const auto& [label, value] : observed) observed_doc.set(label, value);
  record.set("observed", std::move(observed_doc));
  write_json(options.out_dir + "/result-" + tag + ".json", record);
  if (options.trace) write_json(options.out_dir + "/spans-" + tag + ".json", spans.to_chrome());

  Json result{pcs::util::JsonObject{}};
  result.set("correct", failed == 0);
  result.set("attempted", static_cast<double>(attempted));
  result.set("failed", static_cast<double>(failed));
  result.set("metrics", std::move(metric_doc));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  perfbench::Options options;
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!perfbench::parse_u64(value, &options.seed)) return usage("bad --seed '" + value + "'");
      have_seed = true;
    } else if (arg == "--seconds") {
      std::uint64_t s = 0;
      if (!perfbench::parse_u64(value, &s) || s == 0 || s > 3600) {
        return usage("bad --seconds '" + value + "'");
      }
      options.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace '" + value + "'");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--root") {
      options.root = value;
    } else if (arg == "--data") {
      options.data_dir = value;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--pins") {
      options.pins_path = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      digest = value;
    } else {
      return usage("unknown flag '" + arg + "'");
    }
  }
  if (options.data_dir.empty()) return usage("missing --data");
  try {
    if (command == "prepare") {
      perfbench::prepare_nighres(options.root, options.data_dir, options.quick);
      return 0;
    }
    if (command != "run") return usage("unknown command '" + command + "'");
    if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
      return usage("run needs --workload, --seed, --seconds and --trace");
    }
    if (options.out_dir.empty() || options.pins_path.empty()) return usage("run needs --out and --pins");
    return perfbench::cmd_run(options, commit, digest);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "pcs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
