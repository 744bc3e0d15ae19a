// Declarative experiments: a SweepSpec plus declarative outputs — the layer
// that replaced the per-figure bench binaries.  One committed
// experiments/*.json file describes everything a paper figure, table,
// ablation or extension needs:
//
//   {
//     "name": "fig4a",
//     "title": "Single-threaded synthetic application errors (Exp 1)",
//     "paper_ref": "Figure 4a",
//     "sweep": { "base": {...}, "grid": [...] },     // or "sweep_file"
//     "series": [                                     // per-case extraction
//       {"name": "read1_s", "path": "tasks.a0:task1.read_time"},
//       {"name": "instances", "source": "case", "path": "workload.instances"},
//       {"name": "dirty", "path": "profile.*.dirty", "required": false}
//     ],
//     "derived": [                                    // per-case computation
//       {"name": "read1_err", "op": "rel_error_pct", "of": "read1_s",
//        "reference": {"axis": 0, "label": "reference"}},
//       {"name": "peak_used", "op": "array_max", "of": "used"},
//       {"name": "mean_dirty", "op": "time_weighted_mean", "x": "t", "y": "dirty"},
//       {"name": "file3", "op": "snapshot", "at": "read3_end", "path": "per_file.a0:file3"},
//       {"name": "io_s", "op": "sum", "of": ["read1_s", "write1_s"]}
//     ],
//     "aggregations": [                               // across cases
//       {"name": "mean_err", "op": "mean", "of": ["read1_err", ...], "group_by": 0},
//       {"name": "fit", "op": "linear_fit", "x": "instances", "y": "makespan", "group_by": 0}
//     ],
//     "expect": [                                     // embedded expected values
//       {"case": "wrench_cache,20GB", "of": "compute1_s", "equals": 28.0},
//       {"equal_cases": ["merge,reread", "no_merge,reread"], "of": "makespan"},
//       {"aggregate": "mean_err", "group": "wrench", "min": 100.0}
//     ]
//   }
//
// Series paths address the run's JSON projection (metrics/result_json.hpp)
// or, with "source": "case", the case's effective scenario document — both
// simulated quantities only, so a report is byte-identical for any --jobs.
// `pcs_cli experiment` runs a spec, prints/diffs/updates the committed
// <spec>.expected.json, and exits nonzero on failed expectations.
#pragma once

#include <string>
#include <vector>

#include "scenario/sweep.hpp"
#include "metrics/value_path.hpp"
#include "util/json.hpp"

namespace pcs::metrics {

struct SeriesSpec {
  std::string name;
  std::string path;
  /// "result" (result_json projection), "case" (effective scenario doc) or
  /// "timeline" (the sampled metric timeline — needs the base scenario to
  /// enable "metrics": {"interval": ...}; paths like "metrics.store/dirty_bytes"
  /// or "time" pair with the time_weighted_mean derived op).
  std::string source = "result";
  bool required = true;           ///< false: unresolvable paths yield null, not an error
  /// For array-valued paths: downsample to at most this many elements
  /// (every ceil(n/max_points)-th, plus the closing one), so
  /// per-operation profiles (the analytic prototype samples one snapshot
  /// per chunk) stay committable while sparse probe columns pass through
  /// untouched.  0 keeps everything.
  int max_points = 0;
};

struct DerivedSpec {
  std::string name;
  std::string op;  ///< rel_error_pct | sum | mean | min | max | array_* |
                   ///< time_weighted_mean | snapshot
  std::vector<std::string> of;  ///< input value names (series or earlier derived)
  int reference_axis = 0;       ///< rel_error_pct: grid axis of the reference case
  std::string reference_label;  ///< rel_error_pct: that axis's reference label
  std::string x, y;             ///< time_weighted_mean: array value names
  std::string at;               ///< snapshot: scalar value naming the probe time
  std::string path;             ///< snapshot: path inside the chosen snapshot
};

struct AggregationSpec {
  std::string name;
  std::string op;  ///< mean | min | max | stddev | sum | count | percentile | linear_fit
  std::vector<std::string> of;  ///< pooled value names (all but linear_fit)
  double p = 50.0;              ///< percentile rank
  std::string x, y;             ///< linear_fit inputs
  int group_by = -1;            ///< grid axis whose label partitions the cases; -1 = all
};

struct ExperimentSpec {
  std::string name = "experiment";
  std::string title;
  std::string paper_ref;
  std::string notes;
  scenario::SweepSpec sweep;
  std::vector<SeriesSpec> series;
  std::vector<DerivedSpec> derived;
  std::vector<AggregationSpec> aggregations;
  std::vector<util::Json> expect;  ///< raw check documents (see header comment)

  static ExperimentSpec parse(const util::Json& doc, const std::string& base_dir = "");
  static ExperimentSpec from_file(const std::string& path);

  /// The conventional committed-report path: "<spec>.expected.json" next to
  /// the spec file.
  [[nodiscard]] static std::string expected_path_for(const std::string& spec_path);
};

struct ExperimentReport {
  util::Json json;        ///< the full report document (simulated quantities only)
  bool cases_ok = true;   ///< no case failed to run
  bool checks_ok = true;  ///< every "expect" entry held
};

struct ExperimentOptions {
  int jobs = 1;  ///< sweep thread pool size (report bytes are jobs-invariant)
  /// Non-empty: run only the sweep cases whose label contains this
  /// substring.  Expect entries that reference a filtered-out case are
  /// reported as "skipped", not failed; aggregates cover the slice only.
  std::string filter;
  /// Forwarded to SweepOptions::progress (per-case completion ticker).
  std::function<void(std::size_t done, std::size_t total, const std::string& label)> progress;
};

/// Run every case of the spec's sweep, evaluate series/derived/aggregations
/// and the embedded expectations, and assemble the report.
ExperimentReport run_experiment(const ExperimentSpec& spec, const ExperimentOptions& options = {});

/// Label part at `axis` ("wrench,20GB" -> axis 1 -> "20GB").  Labels are
/// the comma-joined per-axis parts SweepSpec::expand generates; negative
/// axes and custom labels with too few parts return the whole label.
[[nodiscard]] std::string label_part(const std::string& label, int axis);

/// CSV flavour: one row per case, one column per scalar series/derived
/// value (arrays are JSON-encoded in their cell).
[[nodiscard]] std::string experiment_report_csv(const util::Json& report);

/// Gnuplot-ready columns: one `index`-separated data block per case —
/// array-valued series side by side row-per-element, preceded by the
/// scalar values as comments.
[[nodiscard]] std::string experiment_report_gnuplot(const util::Json& report);

/// Self-contained, renderable gnuplot *script*: the same columns embedded
/// as a $data heredoc plus an SVG terminal and plot commands writing
/// `svg_name`.  Cases with two or more array-valued columns plot the first
/// array as x and the rest as lines; a report with no such case yields a
/// data-only script (and `gnuplot` produces no figure).  `pcs_cli
/// experiment --gnuplot` writes this next to the spec and runs gnuplot on
/// it when available.
[[nodiscard]] std::string experiment_report_gnuplot_script(const util::Json& report,
                                                           const std::string& svg_name);

}  // namespace pcs::metrics
