#include "metrics/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "metrics/result_json.hpp"
#include "scenario/runner.hpp"
#include "util/paths.hpp"
#include "util/stats.hpp"

namespace pcs::metrics {

namespace {

std::vector<std::string> name_list(const util::Json& doc, const std::string& key) {
  std::vector<std::string> out;
  if (!doc.contains(key)) return out;
  const util::Json& v = doc.at(key);
  if (v.is_string()) {
    out.push_back(v.as_string());
  } else {
    for (const util::Json& name : v.as_array()) out.push_back(name.as_string());
  }
  return out;
}

/// The reference case's label: `label` with the part at `axis` replaced.
std::string label_with_part(const std::string& label, int axis, const std::string& part) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = label.find(',', start);
    parts.push_back(
        label.substr(start, comma == std::string::npos ? std::string::npos : comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (axis < 0 || static_cast<std::size_t>(axis) >= parts.size()) return part;
  parts[static_cast<std::size_t>(axis)] = part;
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += ',';
    out += parts[i];
  }
  return out;
}

double as_scalar(const util::Json& value, const std::string& what) {
  if (!value.is_number()) {
    throw MetricsError(what + " is not a number (got " +
                       (value.is_null() ? "null" : value.dump()) + ")");
  }
  return value.as_number();
}

std::vector<double> as_array(const util::Json& value, const std::string& what) {
  if (!value.is_array()) {
    throw MetricsError(what + " is not an array (got " +
                       (value.is_null() ? "null" : value.dump()) + ")");
  }
  std::vector<double> out;
  out.reserve(value.size());
  for (const util::Json& v : value.as_array()) out.push_back(as_scalar(v, what + " element"));
  return out;
}

struct CaseData {
  std::string label;
  util::Json overrides;
  std::string error;        ///< non-empty when the case failed to run
  util::Json result;        ///< result_to_json projection (null on error)
  util::Json effective;     ///< effective scenario document (null on error)
  util::Json timeline;      ///< sampled metric timeline (null unless enabled)
  util::Json values;        ///< object: series/derived name -> value
};

const util::Json& value_of(const CaseData& c, const std::string& name,
                           const std::string& context) {
  if (!c.values.contains(name)) {
    throw MetricsError(context + ": no series or derived value named '" + name + "'");
  }
  return c.values.at(name);
}

void evaluate_series(const ExperimentSpec& spec, CaseData& c) {
  for (const SeriesSpec& s : spec.series) {
    const util::Json& doc = s.source == "case"       ? c.effective
                            : s.source == "timeline" ? c.timeline
                                                     : c.result;
    if (s.source == "timeline" && doc.is_null() && s.required) {
      throw MetricsError("case '" + c.label + "', series '" + s.name +
                         "': no timeline was sampled (the scenario needs "
                         "\"metrics\": {\"interval\": ...})");
    }
    util::Json value;
    if (s.required) {
      try {
        value = extract_path(doc, s.path);
      } catch (const MetricsError& e) {
        throw MetricsError("case '" + c.label + "', series '" + s.name + "': " + e.what());
      }
    } else {
      value = extract_path_or_null(doc, s.path);
    }
    const std::size_t n = value.is_array() ? value.size() : 0;
    if (s.max_points > 0 && n > static_cast<std::size_t>(s.max_points)) {
      const std::size_t stride =
          (n + static_cast<std::size_t>(s.max_points) - 1) /
          static_cast<std::size_t>(s.max_points);
      util::Json thinned{util::JsonArray{}};
      for (std::size_t i = 0; i < n; i += stride) thinned.push_back(value.at(i));
      // Always keep the closing sample: profiles end at the makespan.
      if ((n - 1) % stride != 0) thinned.push_back(value.at(n - 1));
      value = std::move(thinned);
    }
    c.values.set(s.name, std::move(value));
  }
}

void evaluate_derived(const ExperimentSpec& spec, std::vector<CaseData>& cases,
                      const std::map<std::string, std::size_t>& case_by_label) {
  for (const DerivedSpec& d : spec.derived) {
    for (CaseData& c : cases) {
      if (!c.error.empty()) continue;
      const std::string context = "case '" + c.label + "', derived '" + d.name + "'";
      try {
        util::Json value;
        if (d.op == "rel_error_pct") {
          const std::string ref_label =
              label_with_part(c.label, d.reference_axis, d.reference_label);
          auto it = case_by_label.find(ref_label);
          if (it == case_by_label.end()) {
            throw MetricsError("no reference case labeled '" + ref_label + "'");
          }
          const CaseData& ref = cases[it->second];
          if (!ref.error.empty()) {
            throw MetricsError("reference case '" + ref_label + "' failed: " + ref.error);
          }
          value = util::absolute_relative_error_pct(
              as_scalar(value_of(c, d.of.at(0), context), context),
              as_scalar(value_of(ref, d.of.at(0), context), context + " (reference)"));
        } else if (d.op == "sum" || d.op == "mean" || d.op == "min" || d.op == "max") {
          std::vector<double> inputs;
          for (const std::string& name : d.of) {
            inputs.push_back(as_scalar(value_of(c, name, context), context + " input"));
          }
          if (inputs.empty()) throw MetricsError("needs at least one input in \"of\"");
          double v = 0.0;
          if (d.op == "sum" || d.op == "mean") {
            for (double x : inputs) v += x;
            if (d.op == "mean") v /= static_cast<double>(inputs.size());
          } else if (d.op == "min") {
            v = *std::min_element(inputs.begin(), inputs.end());
          } else {
            v = *std::max_element(inputs.begin(), inputs.end());
          }
          value = v;
        } else if (d.op == "array_sum" || d.op == "array_mean" || d.op == "array_min" ||
                   d.op == "array_max" || d.op == "array_last") {
          const std::vector<double> xs =
              as_array(value_of(c, d.of.at(0), context), context + " input");
          if (xs.empty() && d.op != "array_sum") {
            throw MetricsError("input array is empty");
          }
          double v = 0.0;
          if (d.op == "array_sum" || d.op == "array_mean") {
            for (double x : xs) v += x;
            if (d.op == "array_mean") v /= static_cast<double>(xs.size());
          } else if (d.op == "array_min") {
            v = *std::min_element(xs.begin(), xs.end());
          } else if (d.op == "array_max") {
            v = *std::max_element(xs.begin(), xs.end());
          } else {
            v = xs.back();
          }
          value = v;
        } else if (d.op == "time_weighted_mean") {
          const std::vector<double> ts = as_array(value_of(c, d.x, context), context + " x");
          const std::vector<double> ys = as_array(value_of(c, d.y, context), context + " y");
          if (ts.size() != ys.size()) throw MetricsError("x and y lengths differ");
          if (ts.size() < 2) {
            value = 0.0;
          } else {
            double integral = 0.0;
            for (std::size_t i = 1; i < ts.size(); ++i) {
              integral += ys[i - 1] * (ts[i] - ts[i - 1]);
            }
            const double span = ts.back() - ts.front();
            value = span > 0.0 ? integral / span : 0.0;
          }
        } else if (d.op == "snapshot") {
          // The profile snapshot nearest to the probe time, then a path
          // into it — Fig 4c's "cache contents after each phase".
          const double t = as_scalar(value_of(c, d.at, context), context + " \"at\"");
          const util::Json& profile = c.result.at("profile");
          if (profile.size() == 0) throw MetricsError("no memory profile recorded");
          const util::Json* best = &profile.at(0);
          for (const util::Json& s : profile.as_array()) {
            if (std::fabs(s.at("time").as_number() - t) <
                std::fabs(best->at("time").as_number() - t)) {
              best = &s;
            }
          }
          value = extract_path_or_null(*best, d.path);
          if (value.is_null()) value = 0.0;  // e.g. a file absent from per_file
        } else {
          throw MetricsError("unknown derived op '" + d.op + "'");
        }
        c.values.set(d.name, std::move(value));
      } catch (const MetricsError& e) {
        const std::string what = e.what();
        // Re-wrap without double context.
        throw MetricsError(what.rfind(context, 0) == 0 ? what : context + ": " + what);
      }
    }
  }
}

util::Json evaluate_aggregations(const ExperimentSpec& spec, const std::vector<CaseData>& cases) {
  util::Json out{util::JsonObject{}};
  for (const AggregationSpec& a : spec.aggregations) {
    const std::string context = "aggregation '" + a.name + "'";
    // Group key (label part) -> pooled values, insertion-ordered for
    // deterministic reports.
    std::vector<std::string> group_order;
    std::map<std::string, std::vector<double>> pooled_x;
    std::map<std::string, std::vector<double>> pooled_y;
    auto group_of = [&](const CaseData& c) {
      const std::string key = a.group_by < 0 ? std::string() : label_part(c.label, a.group_by);
      if (pooled_y.find(key) == pooled_y.end()) {
        group_order.push_back(key);
        pooled_x[key];
        pooled_y[key];
      }
      return key;
    };
    for (const CaseData& c : cases) {
      if (!c.error.empty()) continue;
      const std::string key = group_of(c);
      if (a.op == "linear_fit") {
        const util::Json& xv = value_of(c, a.x, context);
        const util::Json& yv = value_of(c, a.y, context);
        if (xv.is_null() || yv.is_null()) continue;
        pooled_x[key].push_back(as_scalar(xv, context + " x"));
        pooled_y[key].push_back(as_scalar(yv, context + " y"));
      } else {
        for (const std::string& name : a.of) {
          const util::Json& v = value_of(c, name, context);
          if (v.is_null()) continue;  // optional series may be absent
          pooled_y[key].push_back(as_scalar(v, context + " input"));
        }
      }
    }
    auto aggregate_one = [&](const std::string& key) -> util::Json {
      const std::vector<double>& values = pooled_y.at(key);
      if (a.op == "count") return static_cast<unsigned long>(values.size());
      if (values.empty()) return util::Json{};
      if (a.op == "linear_fit") {
        if (values.size() < 2) return util::Json{};
        const util::LinearFit fit = util::linear_fit(pooled_x.at(key), values);
        util::Json f{util::JsonObject{}};
        f.set("slope", fit.slope);
        f.set("intercept", fit.intercept);
        f.set("r2", fit.r2);
        f.set("points", static_cast<unsigned long>(values.size()));
        return f;
      }
      if (a.op == "percentile") return util::percentile(values, a.p);
      const util::Summary s = util::summarize(values);
      if (a.op == "mean") return s.mean;
      if (a.op == "min") return s.min;
      if (a.op == "max") return s.max;
      if (a.op == "stddev") return s.stddev;
      if (a.op == "sum") return s.mean * static_cast<double>(s.count);
      throw MetricsError(context + ": unknown aggregation op '" + a.op + "'");
    };
    if (a.group_by < 0) {
      out.set(a.name, group_order.empty() ? util::Json{} : aggregate_one(group_order.front()));
    } else {
      util::Json groups{util::JsonObject{}};
      for (const std::string& key : group_order) groups.set(key, aggregate_one(key));
      out.set(a.name, std::move(groups));
    }
  }
  return out;
}

/// One "expect" entry against the computed cases/aggregates.  Returns the
/// check's report row and sets *ok on failure.
util::Json evaluate_check(const util::Json& check, const std::vector<CaseData>& cases,
                          const std::map<std::string, std::size_t>& case_by_label,
                          const util::Json& aggregates, bool* ok) {
  util::Json row{util::JsonObject{}};
  auto fail = [&](const std::string& why) {
    row.set("status", "FAIL");
    row.set("why", why);
    *ok = false;
  };

  util::Json got;
  std::string what;
  try {
    if (check.contains("equal_cases")) {
      const std::string series = check.at("of").as_string();
      const util::Json& labels = check.at("equal_cases");
      what = "equal_cases of '" + series + "'";
      row.set("check", what);
      double first = 0.0;
      // Absolute tolerance plus an optional percentage of the first value:
      // "tol_pct": 0.5 allows 0.5% drift between cases.
      const double tol = check.number_or("tol", 1e-9);
      const double tol_pct = check.number_or("tol_pct", 0.0);
      util::Json values{util::JsonArray{}};
      for (std::size_t i = 0; i < labels.size(); ++i) {
        const std::string& label = labels.at(i).as_string();
        auto it = case_by_label.find(label);
        if (it == case_by_label.end()) throw MetricsError("no case labeled '" + label + "'");
        const CaseData& c = cases[it->second];
        if (!c.error.empty()) throw MetricsError("case '" + label + "' failed: " + c.error);
        const double v = as_scalar(value_of(c, series, what), what);
        values.push_back(v);
        if (i == 0) {
          first = v;
        } else if (std::fabs(v - first) > tol + std::fabs(first) * tol_pct / 100.0) {
          fail("case '" + label + "' diverges");
        }
      }
      row.set("got", std::move(values));
      if (!row.contains("status")) row.set("status", "ok");
      return row;
    }

    if (check.contains("case")) {
      const std::string& label = check.at("case").as_string();
      const std::string series = check.at("of").as_string();
      what = "case '" + label + "' " + series;
      auto it = case_by_label.find(label);
      if (it == case_by_label.end()) throw MetricsError("no case labeled '" + label + "'");
      const CaseData& c = cases[it->second];
      if (!c.error.empty()) throw MetricsError("case '" + label + "' failed: " + c.error);
      got = value_of(c, series, what);
    } else if (check.contains("aggregate")) {
      const std::string& name = check.at("aggregate").as_string();
      what = "aggregate '" + name + "'";
      if (!aggregates.contains(name)) throw MetricsError("no " + what);
      got = aggregates.at(name);
      if (check.contains("group")) {
        const std::string& group = check.at("group").as_string();
        what += " group '" + group + "'";
        if (!got.contains(group)) throw MetricsError(what + " not present");
        got = util::Json(got.at(group));  // copy first: the source lives inside got
      }
      if (check.contains("field")) {
        const std::string& field = check.at("field").as_string();
        what += " ." + field;
        if (!got.is_object() || !got.contains(field)) throw MetricsError(what + " not present");
        got = util::Json(got.at(field));
      }
    } else {
      throw MetricsError("check needs \"case\", \"aggregate\" or \"equal_cases\"");
    }

    row.set("check", what);
    row.set("got", got);
    const double v = as_scalar(got, what);
    const double tol = check.number_or("tol", 1e-6);
    const double tol_pct = check.number_or("tol_pct", 0.0);
    if (check.contains("equals")) {
      const double want = check.at("equals").as_number();
      row.set("want", want);
      if (std::fabs(v - want) > tol + std::fabs(want) * tol_pct / 100.0) {
        fail("expected " + util::Json(want).dump());
      }
    }
    if (check.contains("min")) {
      const double want = check.at("min").as_number();
      row.set("want_min", want);
      if (v < want) fail("below minimum " + util::Json(want).dump());
    }
    if (check.contains("max")) {
      const double want = check.at("max").as_number();
      row.set("want_max", want);
      if (v > want) fail("above maximum " + util::Json(want).dump());
    }
  } catch (const MetricsError& e) {
    if (!row.contains("check")) row.set("check", what.empty() ? check.dump() : what);
    fail(e.what());
    return row;
  }
  if (!row.contains("status")) row.set("status", "ok");
  return row;
}

}  // namespace

std::string label_part(const std::string& label, int axis) {
  if (axis < 0) return label;
  std::size_t start = 0;
  for (int i = 0; i < axis; ++i) {
    const std::size_t comma = label.find(',', start);
    if (comma == std::string::npos) return label;
    start = comma + 1;
  }
  const std::size_t comma = label.find(',', start);
  return label.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
}

ExperimentSpec ExperimentSpec::parse(const util::Json& doc, const std::string& base_dir) {
  if (!doc.is_object()) throw MetricsError("experiment must be a JSON object");
  ExperimentSpec spec;
  spec.name = doc.string_or("name", "experiment");
  spec.title = doc.string_or("title", "");
  spec.paper_ref = doc.string_or("paper_ref", "");
  spec.notes = doc.string_or("notes", "");

  if (doc.contains("sweep")) {
    spec.sweep = scenario::SweepSpec::parse(doc.at("sweep"), base_dir);
    if (spec.sweep.name == "sweep") spec.sweep.name = spec.name;
  } else if (doc.contains("sweep_file")) {
    spec.sweep = scenario::SweepSpec::from_file(
        util::resolve_relative(base_dir, doc.at("sweep_file").as_string()));
  } else {
    throw MetricsError("experiment needs \"sweep\" (inline) or \"sweep_file\"");
  }

  if (!doc.contains("series") || doc.at("series").size() == 0) {
    throw MetricsError("experiment needs a non-empty \"series\" array");
  }
  for (const util::Json& s : doc.at("series").as_array()) {
    SeriesSpec series;
    series.name = s.at("name").as_string();
    series.path = s.at("path").as_string();
    series.source = s.string_or("source", "result");
    if (series.source != "result" && series.source != "case" && series.source != "timeline") {
      throw MetricsError("series '" + series.name +
                         "': source must be \"result\", \"case\" or \"timeline\"");
    }
    series.required = s.bool_or("required", true);
    series.max_points = static_cast<int>(s.number_or("max_points", 0.0));
    if (series.max_points < 0) {
      throw MetricsError("series '" + series.name + "': max_points must be >= 0");
    }
    spec.series.push_back(std::move(series));
  }

  if (doc.contains("derived")) {
    for (const util::Json& d : doc.at("derived").as_array()) {
      DerivedSpec derived;
      derived.name = d.at("name").as_string();
      derived.op = d.at("op").as_string();
      derived.of = name_list(d, "of");
      if (d.contains("reference")) {
        derived.reference_axis = static_cast<int>(d.at("reference").number_or("axis", 0));
        derived.reference_label = d.at("reference").string_or("label", "");
      }
      derived.x = d.string_or("x", "");
      derived.y = d.string_or("y", "");
      derived.at = d.string_or("at", "");
      derived.path = d.string_or("path", "");
      if (derived.op == "rel_error_pct" && (derived.of.empty() || derived.reference_label.empty())) {
        throw MetricsError("derived '" + derived.name +
                           "': rel_error_pct needs \"of\" and \"reference\" {axis, label}");
      }
      spec.derived.push_back(std::move(derived));
    }
  }

  // Duplicate value names would make later definitions silently shadow
  // earlier ones in the per-case value map.
  std::map<std::string, int> seen;
  for (const SeriesSpec& s : spec.series) ++seen[s.name];
  for (const DerivedSpec& d : spec.derived) ++seen[d.name];
  for (const auto& [name, count] : seen) {
    if (count > 1) throw MetricsError("duplicate series/derived name '" + name + "'");
  }

  if (doc.contains("aggregations")) {
    for (const util::Json& a : doc.at("aggregations").as_array()) {
      AggregationSpec agg;
      agg.name = a.at("name").as_string();
      agg.op = a.at("op").as_string();
      agg.of = name_list(a, "of");
      agg.p = a.number_or("p", 50.0);
      agg.x = a.string_or("x", "");
      agg.y = a.string_or("y", "");
      agg.group_by = static_cast<int>(a.number_or("group_by", -1.0));
      if (agg.op == "linear_fit") {
        if (agg.x.empty() || agg.y.empty()) {
          throw MetricsError("aggregation '" + agg.name + "': linear_fit needs \"x\" and \"y\"");
        }
      } else if (agg.of.empty()) {
        throw MetricsError("aggregation '" + agg.name + "': needs \"of\"");
      }
      spec.aggregations.push_back(std::move(agg));
    }
  }

  if (doc.contains("expect")) {
    for (const util::Json& check : doc.at("expect").as_array()) spec.expect.push_back(check);
  }
  return spec;
}

ExperimentSpec ExperimentSpec::from_file(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  ExperimentSpec spec = parse(util::Json::parse_file(path), dir);
  if (spec.name == "experiment") spec.name = std::filesystem::path(path).stem().string();
  return spec;
}

std::string ExperimentSpec::expected_path_for(const std::string& spec_path) {
  std::filesystem::path p(spec_path);
  p.replace_extension();
  return p.string() + ".expected.json";
}

ExperimentReport run_experiment(const ExperimentSpec& spec, const ExperimentOptions& options) {
  std::vector<scenario::SweepCase> expanded = spec.sweep.expand();
  if (!options.filter.empty()) {
    // Mirror run_sweep's slice so `expanded` stays index-parallel with the
    // results below.
    std::erase_if(expanded, [&](const scenario::SweepCase& c) {
      return c.label.find(options.filter) == std::string::npos;
    });
  }
  const std::vector<scenario::SweepCaseResult> results = scenario::run_sweep(
      spec.sweep,
      {.jobs = options.jobs, .filter = options.filter, .progress = options.progress});

  ExperimentReport report;
  std::vector<CaseData> cases(expanded.size());
  std::map<std::string, std::size_t> case_by_label;
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    CaseData& c = cases[i];
    c.label = results[i].label;
    c.overrides = results[i].overrides;
    c.error = results[i].error;
    c.values = util::Json{util::JsonObject{}};
    case_by_label[c.label] = i;
    if (!c.error.empty()) {
      report.cases_ok = false;
      continue;
    }
    c.result = result_to_json(results[i].result);
    c.timeline = results[i].result.timeline;
    // The effective (fully defaulted, unit-normalized) scenario document —
    // what "source": "case" series address.
    c.effective =
        scenario::ScenarioSpec::parse(expanded[i].doc, spec.sweep.base_dir).to_json();
    evaluate_series(spec, c);
  }
  evaluate_derived(spec, cases, case_by_label);
  const util::Json aggregates = evaluate_aggregations(spec, cases);

  util::Json doc{util::JsonObject{}};
  doc.set("name", spec.name);
  if (!spec.title.empty()) doc.set("title", spec.title);
  if (!spec.paper_ref.empty()) doc.set("paper_ref", spec.paper_ref);
  util::Json columns{util::JsonArray{}};
  for (const SeriesSpec& s : spec.series) columns.push_back(s.name);
  for (const DerivedSpec& d : spec.derived) columns.push_back(d.name);
  doc.set("columns", std::move(columns));
  util::Json rows{util::JsonArray{}};
  for (const CaseData& c : cases) {
    util::Json row{util::JsonObject{}};
    row.set("label", c.label);
    row.set("overrides", c.overrides);
    if (!c.error.empty()) {
      row.set("error", c.error);
    } else {
      row.set("values", c.values);
    }
    rows.push_back(std::move(row));
  }
  doc.set("cases", std::move(rows));
  if (!spec.aggregations.empty()) doc.set("aggregates", aggregates);

  if (!spec.expect.empty()) {
    // Under --filter, a check naming a case outside the slice is skipped
    // (not failed): the slice is for iterating on a subset, and the full
    // expect table still gates unfiltered runs.
    auto filtered_out = [&](const util::Json& check) {
      if (options.filter.empty()) return false;
      if (check.contains("case")) {
        return case_by_label.count(check.at("case").as_string()) == 0;
      }
      if (check.contains("equal_cases")) {
        for (const util::Json& label : check.at("equal_cases").as_array()) {
          if (case_by_label.count(label.as_string()) == 0) return true;
        }
      }
      return false;
    };
    util::Json checks{util::JsonArray{}};
    for (const util::Json& check : spec.expect) {
      if (filtered_out(check)) {
        util::Json row{util::JsonObject{}};
        row.set("check", check.dump());
        row.set("status", "skipped");
        row.set("why", "references a case outside --filter '" + options.filter + "'");
        checks.push_back(std::move(row));
        continue;
      }
      checks.push_back(
          evaluate_check(check, cases, case_by_label, aggregates, &report.checks_ok));
    }
    doc.set("checks", std::move(checks));
  }
  report.json = std::move(doc);
  return report;
}

std::string experiment_report_csv(const util::Json& report) {
  auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  std::string out = "label";
  for (const util::Json& column : report.at("columns").as_array()) {
    out += ',' + column.as_string();
  }
  out += '\n';
  for (const util::Json& row : report.at("cases").as_array()) {
    out += quote(row.at("label").as_string());
    for (const util::Json& column : report.at("columns").as_array()) {
      out += ',';
      if (!row.contains("values")) continue;  // failed case: empty cells
      const util::Json& v = row.at("values").at(column.as_string());
      if (v.is_number() || v.is_bool()) {
        out += v.dump();
      } else if (!v.is_null()) {
        out += quote(v.dump());
      }
    }
    out += '\n';
  }
  return out;
}

std::string experiment_report_gnuplot(const util::Json& report) {
  // One gnuplot data block per case (separated by two blank lines, so
  // `plot ... index N` addresses case N): scalar values as comments,
  // array-valued columns side by side, one row per element.
  std::string out;
  const util::Json& columns = report.at("columns");
  bool first_block = true;
  for (const util::Json& row : report.at("cases").as_array()) {
    if (!first_block) out += "\n\n";
    first_block = false;
    out += "# case: " + row.at("label").as_string() + "\n";
    if (!row.contains("values")) {
      out += "# error: " + row.at("error").as_string() + "\n";
      continue;
    }
    const util::Json& values = row.at("values");
    std::vector<const util::Json*> arrays;
    std::string header = "# columns:";
    for (const util::Json& column : columns.as_array()) {
      const util::Json& v = values.at(column.as_string());
      if (v.is_array()) {
        arrays.push_back(&v);
        header += ' ' + column.as_string();
      } else if (!v.is_null()) {
        out += "# " + column.as_string() + " = " + v.dump() + "\n";
      }
    }
    if (arrays.empty()) continue;
    out += header + "\n";
    std::size_t rows = 0;
    for (const util::Json* a : arrays) rows = std::max(rows, a->size());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < arrays.size(); ++c) {
        if (c != 0) out += ' ';
        out += r < arrays[c]->size() ? arrays[c]->at(r).dump() : std::string("nan");
      }
      out += '\n';
    }
  }
  return out;
}

std::string experiment_report_gnuplot_script(const util::Json& report,
                                             const std::string& svg_name) {
  // Single-quoted gnuplot strings escape ' by doubling it.
  auto quote = [](const std::string& text) {
    std::string out = "'";
    for (char c : text) {
      if (c == '\'') out += '\'';
      out += c;
    }
    out += '\'';
    return out;
  };

  std::string out =
      "# generated by `pcs_cli experiment --gnuplot`; render with `gnuplot <this file>`\n";
  out += "set terminal svg size 960,600 dynamic\n";
  out += "set output " + quote(svg_name) + "\n";
  const std::string title =
      report.string_or("title", report.string_or("name", "experiment"));
  out += "set title " + quote(title) + "\n";
  out += "set key outside\n";
  out += "$data << EOD\n" + experiment_report_gnuplot(report) + "EOD\n";

  // Gnuplot `index` counts datasets (runs of data lines), so only cases
  // that actually emitted rows advance it — mirror the emitter's logic.
  const util::Json& columns = report.at("columns");
  std::vector<std::string> plots;
  std::size_t dataset = 0;
  for (const util::Json& row : report.at("cases").as_array()) {
    if (!row.contains("values")) continue;
    const util::Json& values = row.at("values");
    std::vector<std::string> array_columns;
    for (const util::Json& column : columns.as_array()) {
      if (values.at(column.as_string()).is_array()) {
        array_columns.push_back(column.as_string());
      }
    }
    if (array_columns.empty()) continue;
    for (std::size_t c = 1; c < array_columns.size(); ++c) {
      plots.push_back("$data index " + std::to_string(dataset) + " using 1:" +
                      std::to_string(c + 1) + " with lines title " +
                      quote(row.at("label").as_string() + ": " + array_columns[c]));
    }
    ++dataset;
  }
  if (plots.empty()) {
    out += "# no case carries >= 2 array-valued columns; nothing to plot\n";
    return out;
  }
  out += "plot ";
  for (std::size_t i = 0; i < plots.size(); ++i) {
    if (i != 0) out += ", \\\n     ";
    out += plots[i];
  }
  out += '\n';
  return out;
}

}  // namespace pcs::metrics
