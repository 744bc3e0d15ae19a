// The observability layer (obs/): the metric sampler is pure observation
// and its timeline is byte-stable across runs and solver thread counts; the
// engine self-profiler never leaks wall-clock into simulated results; the
// Chrome-trace exporter lowers a recorded log into valid trace-event JSON;
// and experiments can address timeline columns via "source": "timeline".
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "metrics/experiment.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "tracelog/recorder.hpp"
#include "util/json.hpp"

#ifndef PCS_SOURCE_DIR
#define PCS_SOURCE_DIR "."
#endif

namespace pcs {
namespace {

using scenario::RunOptions;
using scenario::RunResult;
using scenario::ScenarioSpec;
using scenario::run_scenario;

util::Json obj() { return util::Json{util::JsonObject{}}; }

util::Json node_platform() {
  return util::Json::parse(R"json({
    "hosts": [
      {"name": "node0", "speed_gflops": 1, "cores": 8, "ram": "32 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420}]}
    ]
  })json");
}

/// A cached synthetic pipeline busy enough that every gauge family moves:
/// cache fills and flushes, tasks overlap, and the solver runs repeatedly.
util::Json sampled_doc(double interval = 5.0) {
  util::Json doc = obj();
  doc.set("name", "sampled");
  doc.set("platform", node_platform());
  doc.set("workload", obj()
                          .set("type", "synthetic")
                          .set("input_size", "4 GB")
                          .set("instances", 3)
                          .set("stagger", 10.0));
  if (interval > 0.0) doc.set("metrics", obj().set("interval", interval));
  return doc;
}

/// The simulated quantities that define "same run": makespan, every task's
/// phase boundaries, and the final cache state.  Engine counters are
/// deliberately NOT compared here — the sampler daemon adds timer events,
/// so scheduling_points may legitimately differ while the simulation's
/// observable results stay bit-identical.
void expect_same_simulation(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (const wf::TaskResult& want : b.tasks) {
    const wf::TaskResult& got = a.task(want.name);
    EXPECT_EQ(got.start, want.start) << want.name;
    EXPECT_EQ(got.read_start, want.read_start) << want.name;
    EXPECT_EQ(got.read_end, want.read_end) << want.name;
    EXPECT_EQ(got.compute_end, want.compute_end) << want.name;
    EXPECT_EQ(got.write_end, want.write_end) << want.name;
    EXPECT_EQ(got.end, want.end) << want.name;
  }
  EXPECT_EQ(a.final_state.cached, b.final_state.cached);
  EXPECT_EQ(a.final_state.dirty, b.final_state.dirty);
}

// --- MetricsRegistry unit behaviour ----------------------------------------

TEST(MetricsRegistry, RejectsDotsAndDuplicates) {
  obs::MetricsRegistry reg;
  reg.register_gauge("store/cached_bytes", [] { return 1.0; });
  EXPECT_THROW(reg.register_gauge("store/cached_bytes", [] { return 2.0; }),
               obs::MetricsError);
  EXPECT_THROW(reg.register_gauge("store.cached", [] { return 0.0; }),
               obs::MetricsError);
}

TEST(MetricsRegistry, SealsOnFirstSampleAndSortsColumns) {
  obs::MetricsRegistry reg;
  reg.register_gauge("z/late", [] { return 26.0; });
  reg.register_gauge("a/early", [] { return 1.0; });
  reg.sample(0.0);
  EXPECT_THROW(reg.register_gauge("m/mid", [] { return 13.0; }), obs::MetricsError);
  // Re-sampling the same virtual time collapses to one row (the closing
  // sample may coincide with the last periodic tick).
  reg.sample(0.0);
  reg.sample(2.0);
  EXPECT_EQ(reg.sample_count(), 2u);

  const util::Json doc = reg.timeline(2.0);
  EXPECT_EQ(doc.at("interval").as_number(), 2.0);
  EXPECT_EQ(doc.at("time").size(), 2u);
  // Column order in the dump is sorted by name regardless of registration
  // order (util::JsonObject is an ordered map, but the registry sorts too
  // so row storage and document agree).
  const std::string bytes = doc.dump();
  EXPECT_LT(bytes.find("a/early"), bytes.find("z/late"));
  EXPECT_EQ(doc.at("metrics").at("a/early").at(0).as_number(), 1.0);
  EXPECT_EQ(doc.at("metrics").at("z/late").at(1).as_number(), 26.0);
}

// --- Sampler determinism and purity ----------------------------------------

TEST(ObsTimeline, RunToRunByteIdentical) {
  ScenarioSpec spec = ScenarioSpec::parse(sampled_doc());
  RunResult first = run_scenario(spec);
  RunResult second = run_scenario(spec);
  ASSERT_FALSE(first.timeline.is_null());
  EXPECT_EQ(first.timeline.dump(2), second.timeline.dump(2));
  expect_same_simulation(second, first);
}

TEST(ObsTimeline, SamplerIsPureObservation) {
  RunResult sampled = run_scenario(ScenarioSpec::parse(sampled_doc()));
  RunResult plain = run_scenario(ScenarioSpec::parse(sampled_doc(0.0)));
  ASSERT_FALSE(sampled.timeline.is_null());
  EXPECT_TRUE(plain.timeline.is_null());
  expect_same_simulation(sampled, plain);
}

TEST(ObsTimeline, CarriesTheExpectedColumns) {
  RunResult result = run_scenario(ScenarioSpec::parse(sampled_doc()));
  const util::Json& metrics = result.timeline.at("metrics");
  for (const char* name :
       {"engine/running_activities", "engine/scheduling_points", "tasks/live",
        "tasks/completed", "store/cached_bytes", "store/dirty_bytes",
        "store/read_bytes", "store/write_bytes", "store/flushed_bytes"}) {
    EXPECT_TRUE(metrics.contains(name)) << name;
    EXPECT_EQ(metrics.at(name).size(), result.timeline.at("time").size()) << name;
  }
  // The run writes 3 x 4 GB through the cache: dirty bytes must actually
  // move at some sample, and completed tasks must end at the task count.
  const util::JsonArray& dirty = metrics.at("store/dirty_bytes").as_array();
  bool saw_dirty = false;
  for (const util::Json& v : dirty) saw_dirty |= v.as_number() > 0.0;
  EXPECT_TRUE(saw_dirty);
  EXPECT_EQ(metrics.at("tasks/completed").as_array().back().as_number(),
            static_cast<double>(result.tasks.size()));
  // The closing sample is taken at the makespan.
  EXPECT_EQ(result.timeline.at("time").as_array().back().as_number(),
            result.makespan);
}

TEST(ObsTimeline, GoldenQuickstartTimeline) {
  // The committed timeline is what `pcs_cli run scenarios/quickstart.json
  // --metrics-interval 2 --timeline ...` writes; CI re-derives it and
  // diffs.  Regenerate with that command if the schema changes deliberately.
  ScenarioSpec spec =
      ScenarioSpec::from_file(PCS_SOURCE_DIR "/scenarios/quickstart.json");
  spec.metrics_interval = 2.0;
  RunResult result = run_scenario(spec);
  std::ifstream in(PCS_SOURCE_DIR "/scenarios/timelines/quickstart.timeline.json");
  ASSERT_TRUE(in.good()) << "missing committed scenarios/timelines/quickstart.timeline.json";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(result.timeline.dump(2) + "\n", committed.str());
}

TEST(ObsTimeline, PrototypeSimulatorCannotSample) {
  util::Json doc = sampled_doc();
  doc.set("simulator", "prototype");
  EXPECT_THROW(run_scenario(ScenarioSpec::parse(doc)), scenario::ScenarioError);
}

// --- Self-profiler ----------------------------------------------------------

TEST(ObsProfiler, AttachingTheProfilerIsPureObservation) {
  ScenarioSpec spec = ScenarioSpec::parse(sampled_doc(0.0));
  RunResult plain = run_scenario(spec);
  obs::EngineProfile profile;
  RunOptions options;
  options.profile = &profile;
  RunResult profiled = run_scenario(spec, options);
  expect_same_simulation(profiled, plain);
  // The profiler measured real work: the engine dispatched coroutines and
  // recomputed rates at least once per scheduling point batch.
  EXPECT_GT(profile.recompute_rates.count, 0u);
  EXPECT_GT(profile.bfs.count, 0u);
  EXPECT_GT(profile.dispatch.count, 0u);
  EXPECT_GE(profile.recompute_rates.seconds, profile.bfs.seconds);
  // Wall-clock stays quarantined: nothing in the simulated result depends
  // on the profile, and the profile's engine counters match the run's.
  EXPECT_EQ(plain.fair_share_solves, profiled.fair_share_solves);
}

TEST(ObsProfiler, ReportNamesEverySection) {
  obs::EngineProfile profile;
  profile.recompute_rates.add(0.5);
  profile.bfs.add(0.1);
  EXPECT_EQ(profile.recompute_rates.count, 1u);
  EXPECT_EQ(profile.recompute_rates.seconds, 0.5);
  const std::string text = profile.report();
  for (const char* section : {"recompute_rates", "bfs", "solve", "merge", "dispatch"}) {
    EXPECT_NE(text.find(section), std::string::npos) << section;
  }
  EXPECT_NE(text.find("(1 calls)"), std::string::npos);
}

// --- Chrome trace export ----------------------------------------------------

TEST(ObsChromeTrace, LowersARecordedRunIntoSpans) {
  ScenarioSpec spec = ScenarioSpec::parse(sampled_doc(0.0));
  tracelog::TaskLogRecorder recorder(nullptr, /*keep_in_memory=*/true);
  RunOptions options;
  options.recorder = &recorder;
  RunResult result = run_scenario(spec, options);

  const util::Json doc = obs::chrome_trace(recorder.log());
  ASSERT_TRUE(doc.contains("traceEvents"));
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  EXPECT_GT(events.size(), result.tasks.size());
  std::size_t spans = 0, metadata = 0;
  bool saw_read_phase = false, saw_io = false;
  for (const util::Json& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      const std::string name = e.at("name").as_string();
      if (name == "read") saw_read_phase = true;
      if (e.contains("args") && e.at("args").contains("bytes")) saw_io = true;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(metadata, 0u);  // process/thread names for Perfetto lanes
  EXPECT_TRUE(saw_read_phase);
  EXPECT_TRUE(saw_io);
  // The document round-trips through the JSON parser (what CI validates
  // for the committed nighres log).
  EXPECT_NO_THROW((void)util::Json::parse(doc.dump(2)));
}

TEST(ObsChromeTrace, CommittedNighresLogExports) {
  tracelog::TaskLog log = tracelog::TaskLog::from_file(
      PCS_SOURCE_DIR "/scenarios/traces/nighres_run.jsonl");
  const util::Json doc = obs::chrome_trace(log);
  EXPECT_GT(doc.at("traceEvents").size(), 0u);
  const util::Json reparsed = util::Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.at("traceEvents").size(), doc.at("traceEvents").size());
}

// --- Experiments over timelines ---------------------------------------------

TEST(ObsExperiment, TimelineSourceFeedsDerivedOps) {
  // An experiment whose series read the sampled timeline: the time-weighted
  // mean of dirty bytes tracks the write volume across the sweep axis.
  util::Json spec_doc = obj();
  spec_doc.set("name", "timeline_exp");
  util::Json sweep = obj();
  sweep.set("base", sampled_doc());
  util::Json axis = obj();
  axis.set("path", "workload.input_size");
  util::Json values{util::JsonArray{}};
  values.push_back("4 GB");
  values.push_back("512 MB");
  axis.set("values", std::move(values));
  util::Json grid{util::JsonArray{}};
  grid.push_back(std::move(axis));
  sweep.set("grid", std::move(grid));
  spec_doc.set("sweep", std::move(sweep));

  util::Json series{util::JsonArray{}};
  series.push_back(obj().set("name", "t").set("source", "timeline").set("path", "time"));
  series.push_back(obj()
                       .set("name", "dirty")
                       .set("source", "timeline")
                       .set("path", "metrics.store/dirty_bytes"));
  spec_doc.set("series", std::move(series));
  util::Json derived{util::JsonArray{}};
  derived.push_back(obj()
                        .set("name", "mean_dirty")
                        .set("op", "time_weighted_mean")
                        .set("x", "t")
                        .set("y", "dirty"));
  spec_doc.set("derived", std::move(derived));

  metrics::ExperimentSpec spec = metrics::ExperimentSpec::parse(spec_doc);
  metrics::ExperimentReport report = metrics::run_experiment(spec);
  ASSERT_TRUE(report.cases_ok);
  const util::JsonArray& cases = report.json.at("cases").as_array();
  ASSERT_EQ(cases.size(), 2u);
  const double big = cases[0].at("values").at("mean_dirty").as_number();
  const double small = cases[1].at("values").at("mean_dirty").as_number();
  EXPECT_GT(big, 0.0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, small);
}

TEST(ObsExperiment, MissingTimelineIsAClearError) {
  // "source": "timeline" against a scenario that never sampled: the error
  // names the fix instead of silently yielding nulls.
  util::Json spec_doc = obj();
  spec_doc.set("name", "no_timeline");
  util::Json sweep = obj();
  sweep.set("base", sampled_doc(0.0));
  util::Json cases{util::JsonArray{}};
  cases.push_back(obj().set("label", "only").set("overrides", obj()));
  sweep.set("cases", std::move(cases));
  spec_doc.set("sweep", std::move(sweep));
  util::Json series{util::JsonArray{}};
  series.push_back(obj().set("name", "t").set("source", "timeline").set("path", "time"));
  spec_doc.set("series", std::move(series));
  metrics::ExperimentSpec spec = metrics::ExperimentSpec::parse(spec_doc);
  try {
    (void)metrics::run_experiment(spec);
    FAIL() << "expected MetricsError";
  } catch (const metrics::MetricsError& e) {
    EXPECT_NE(std::string(e.what()).find("metrics"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace pcs
