// The stochastic fault-model layer (src/faults/): named-stream seeding,
// schedule materialization determinism (across runs and solver widths),
// correlated domains, straggler lowering, checkpoint/restart semantics, and
// the parse-time validation contract (indexed event errors included).
#include <gtest/gtest.h>

#include <set>

#include "faults/fault_model.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"

namespace pcs::faults {
namespace {

using scenario::DisruptionEvent;
using scenario::ScenarioError;
using scenario::ScenarioSpec;

// Two compute-capable nodes + the paper's storage host, so crash models
// have somewhere to aim and stragglers a service to degrade.
util::Json two_node_platform() {
  return util::Json::parse(R"json({
    "hosts": [
      {"name": "node0", "speed_gflops": 1, "cores": 8, "ram": "32 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd0", "read_bw_MBps": 510, "write_bw_MBps": 420}]},
      {"name": "node1", "speed_gflops": 1, "cores": 8, "ram": "32 GB",
       "memory": {"read_bw_MBps": 6860, "write_bw_MBps": 2764},
       "disks": [{"name": "ssd1", "read_bw_MBps": 510, "write_bw_MBps": 420}]}
    ]
  })json");
}

util::Json base_doc() {
  util::Json doc{util::JsonObject{}};
  doc.set("name", "faulty");
  doc.set("platform", two_node_platform());
  doc.set("workload", util::Json::parse(
                          R"json({"type": "synthetic", "instances": 2, "tasks": 2,
                                  "cpu_seconds": 40, "input_size": "200 MB",
                                  "output_size": "100 MB"})json"));
  doc.set("retry", util::Json::parse(R"json({"max_attempts": 8, "backoff": 1})json"));
  return doc;
}

util::Json mtbf_model(double mtbf, double horizon) {
  util::Json fm{util::JsonObject{}};
  fm.set("horizon", horizon);
  util::Json crash{util::JsonObject{}};
  crash.set("type", "host_mtbf");
  crash.set("mtbf", mtbf);
  crash.set("mttr", 20.0);
  fm.set("models", util::Json{util::JsonObject{}}.set("crash", std::move(crash)));
  return fm;
}

std::string schedule_bytes(const ScenarioSpec& spec) {
  return scenario::events_to_json(spec.materialized_events).dump();
}

// --- stream seeding --------------------------------------------------------

TEST(FaultStreams, DistinctNamesGiveIndependentStreams) {
  EXPECT_NE(stream_seed(7, "crash"), stream_seed(7, "crashy"));
  EXPECT_NE(stream_seed(7, "crash"), stream_seed(8, "crash"));
  EXPECT_NE(stream_seed(7, "a"), stream_seed(7, "b"));
  // Stable across calls: this is a pure function of (seed, name).
  EXPECT_EQ(stream_seed(7, "crash"), stream_seed(7, "crash"));
}

TEST(FaultStreams, AddingAModelNeverPerturbsAnotherStream) {
  util::Json doc = base_doc();
  doc.set("seed", 42.0);
  doc.set("fault_model", mtbf_model(300.0, 900.0));
  const ScenarioSpec lone = ScenarioSpec::parse(doc);

  // Same seed, same "crash" model, plus an unrelated straggler model: the
  // crash schedule must be byte-identical (streams are named, not ordinal).
  util::Json fm = mtbf_model(300.0, 900.0);
  util::Json slow{util::JsonObject{}};
  slow.set("type", "straggler");
  slow.set("probability", 1.0);
  slow.set("factor", 0.5);
  slow.set("start", 5000.0);
  // Only node0 hosts the default "store" service, so target it explicitly.
  slow.set("hosts", util::Json::parse(R"json(["node0"])json"));
  fm.as_object()["models"].set("slow", std::move(slow));
  doc.set("fault_model", std::move(fm));
  const ScenarioSpec both = ScenarioSpec::parse(doc);

  std::vector<DisruptionEvent> crashes;
  for (const DisruptionEvent& e : both.materialized_events) {
    if (e.type == "host_crash") crashes.push_back(e);
  }
  ASSERT_EQ(crashes.size(), lone.materialized_events.size());
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    EXPECT_EQ(crashes[i].time, lone.materialized_events[i].time);
    EXPECT_EQ(crashes[i].host, lone.materialized_events[i].host);
    EXPECT_EQ(crashes[i].restart_at, lone.materialized_events[i].restart_at);
  }
}

TEST(FaultStreams, DifferentModelNamesOnSameSeedDrawDifferently) {
  util::Json doc = base_doc();
  doc.set("seed", 42.0);
  doc.set("fault_model", mtbf_model(300.0, 900.0));
  const std::string a = schedule_bytes(ScenarioSpec::parse(doc));

  // Rename the model: same distribution parameters, different stream.
  util::Json fm{util::JsonObject{}};
  fm.set("horizon", 900.0);
  fm.set("models", util::Json{util::JsonObject{}}.set(
                       "other", mtbf_model(300.0, 900.0).at("models").at("crash")));
  doc.set("fault_model", std::move(fm));
  const std::string b = schedule_bytes(ScenarioSpec::parse(doc));
  EXPECT_NE(a, b);
}

// --- materialization determinism ------------------------------------------

TEST(FaultMaterialize, SameSpecAndSeedIsByteIdenticalAcrossParses) {
  util::Json doc = base_doc();
  doc.set("seed", 7.0);
  doc.set("fault_model", mtbf_model(250.0, 800.0));
  const std::string first = schedule_bytes(ScenarioSpec::parse(doc));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(schedule_bytes(ScenarioSpec::parse(doc)), first);
  }
  EXPECT_FALSE(ScenarioSpec::parse(doc).materialized_events.empty());
}

TEST(FaultMaterialize, DifferentSeedsDrawDifferentSchedules) {
  util::Json doc = base_doc();
  doc.set("seed", 7.0);
  doc.set("fault_model", mtbf_model(250.0, 800.0));
  const std::string a = schedule_bytes(ScenarioSpec::parse(doc));
  doc.set("seed", 8.0);
  const std::string b = schedule_bytes(ScenarioSpec::parse(doc));
  EXPECT_NE(a, b);
}

TEST(FaultMaterialize, ScheduleIsSortedAndCrashWindowsAlternatePerHost) {
  util::Json doc = base_doc();
  doc.set("seed", 3.0);
  doc.set("fault_model", mtbf_model(100.0, 2000.0));  // many windows, likely overlap
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  ASSERT_FALSE(spec.materialized_events.empty());
  double last = 0.0;
  std::map<std::string, double> last_restart;
  for (const DisruptionEvent& e : spec.materialized_events) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ASSERT_EQ(e.type, "host_crash");
    EXPECT_GT(e.restart_at, e.time);
    // Strict alternation: the next crash of a host starts after its repair.
    auto it = last_restart.find(e.host);
    if (it != last_restart.end()) EXPECT_GT(e.time, it->second);
    last_restart[e.host] = e.restart_at;
  }
}

TEST(FaultMaterialize, RunResultsIdenticalAcrossRuns) {
  util::Json doc = base_doc();
  doc.set("seed", 11.0);
  doc.set("fault_model", mtbf_model(200.0, 600.0));
  doc.set("on_task_failure", "continue");

  const ScenarioSpec first = ScenarioSpec::parse(doc);
  const ScenarioSpec second = ScenarioSpec::parse(doc);
  // The schedule is drawn at parse time, before any engine exists.
  EXPECT_EQ(schedule_bytes(first), schedule_bytes(second));

  const scenario::RunResult a = scenario::run_scenario(first);
  const scenario::RunResult b = scenario::run_scenario(second);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].name, b.tasks[i].name);
    EXPECT_EQ(a.tasks[i].end, b.tasks[i].end);
  }
  EXPECT_EQ(a.disruptions_fired, b.disruptions_fired);
}

// --- correlated domains ----------------------------------------------------

TEST(FaultDomains, OneDrawTakesEveryMemberDown) {
  util::Json doc = base_doc();
  doc.set("seed", 5.0);
  util::Json fm{util::JsonObject{}};
  fm.set("horizon", 600.0);
  util::Json rack{util::JsonObject{}};
  rack.set("type", "domain");
  rack.set("mtbf", 200.0);
  rack.set("mttr", 15.0);
  rack.set("domains", util::Json::parse(R"json({"rack0": ["node0", "node1"]})json"));
  fm.set("models", util::Json{util::JsonObject{}}.set("rack", std::move(rack)));
  doc.set("fault_model", std::move(fm));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  ASSERT_FALSE(spec.materialized_events.empty());
  // No jitter: members crash at the same instant, one event per member.
  std::map<double, std::set<std::string>> by_time;
  for (const DisruptionEvent& e : spec.materialized_events) {
    ASSERT_EQ(e.type, "host_crash");
    by_time[e.time].insert(e.host);
  }
  for (const auto& [time, hosts] : by_time) {
    EXPECT_EQ(hosts.size(), 2u) << "domain draw at t=" << time << " missed a member";
  }
}

TEST(FaultDomains, JitterStaggersMembersWithinBound) {
  util::Json doc = base_doc();
  doc.set("seed", 5.0);
  util::Json fm{util::JsonObject{}};
  fm.set("horizon", 600.0);
  util::Json rack{util::JsonObject{}};
  rack.set("type", "domain");
  rack.set("mtbf", 200.0);
  rack.set("mttr", 15.0);
  rack.set("jitter", 3.0);
  rack.set("domains", util::Json::parse(R"json({"rack0": ["node0", "node1"]})json"));
  fm.set("models", util::Json{util::JsonObject{}}.set("rack", std::move(rack)));
  doc.set("fault_model", std::move(fm));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  ASSERT_GE(spec.materialized_events.size(), 2u);
  // Consecutive pairs share a draw: their crash times differ by < jitter.
  for (std::size_t i = 0; i + 1 < spec.materialized_events.size(); i += 2) {
    const double delta =
        spec.materialized_events[i + 1].time - spec.materialized_events[i].time;
    EXPECT_GE(delta, 0.0);
    EXPECT_LT(delta, 3.0);
  }
}

// --- stragglers ------------------------------------------------------------

TEST(FaultStragglers, LowerToDegradeRestorePairsOnTheHostsServices) {
  util::Json doc = base_doc();
  doc.set("services", util::Json::parse(
                          R"json([{"name": "s0", "type": "local", "host": "node0"},
                                  {"name": "s1", "type": "local", "host": "node1"}])json"));
  doc.set("seed", 1.0);
  util::Json fm{util::JsonObject{}};
  util::Json slow{util::JsonObject{}};
  slow.set("type", "straggler");
  slow.set("probability", 1.0);
  slow.set("factor", util::Json::parse("[0.4, 0.8]"));
  slow.set("start", 10.0);
  slow.set("duration", 50.0);
  slow.set("hosts", util::Json::parse(R"json(["node1"])json"));
  fm.set("models", util::Json{util::JsonObject{}}.set("slow", std::move(slow)));
  doc.set("fault_model", std::move(fm));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  ASSERT_EQ(spec.materialized_events.size(), 2u);
  EXPECT_EQ(spec.materialized_events[0].type, "service_degrade");
  EXPECT_EQ(spec.materialized_events[0].service, "s1");
  EXPECT_EQ(spec.materialized_events[0].time, 10.0);
  EXPECT_GE(spec.materialized_events[0].factor, 0.4);
  EXPECT_LT(spec.materialized_events[0].factor, 0.8);
  EXPECT_EQ(spec.materialized_events[1].type, "service_restore");
  EXPECT_EQ(spec.materialized_events[1].service, "s1");
  EXPECT_EQ(spec.materialized_events[1].time, 60.0);
}

TEST(FaultStragglers, PersistentWhenDurationAbsent) {
  util::Json doc = base_doc();
  doc.set("seed", 1.0);
  util::Json fm{util::JsonObject{}};
  util::Json slow{util::JsonObject{}};
  slow.set("type", "straggler");
  slow.set("factor", 0.5);
  slow.set("hosts", util::Json::parse(R"json(["node0"])json"));
  fm.set("models", util::Json{util::JsonObject{}}.set("slow", std::move(slow)));
  doc.set("fault_model", std::move(fm));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  ASSERT_EQ(spec.materialized_events.size(), 1u);
  EXPECT_EQ(spec.materialized_events[0].type, "service_degrade");
  EXPECT_EQ(spec.materialized_events[0].factor, 0.5);
}

// --- checkpoint/restart ----------------------------------------------------

TEST(FaultCheckpoint, PolicyParsesIntoTheSpec) {
  util::Json doc = base_doc();
  util::Json fm{util::JsonObject{}};
  fm.set("checkpoint", util::Json::parse(
                           R"json({"interval": 30, "cost": 2, "restart_penalty": 5})json"));
  doc.set("fault_model", std::move(fm));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  EXPECT_TRUE(spec.checkpoint.enabled());
  EXPECT_EQ(spec.checkpoint.interval, 30.0);
  EXPECT_EQ(spec.checkpoint.cost, 2.0);
  EXPECT_EQ(spec.checkpoint.restart_penalty, 5.0);
}

TEST(FaultCheckpoint, CheckpointingBoundsReexecutionAfterACrash) {
  // The synthetic workload is a 3-task pipeline of 100 s tasks; the crash
  // at t=80 lands mid-compute of the first one.  Scratch restart re-runs
  // its full 100 s; a 30 s checkpoint interval bounds the redo.
  util::Json doc{util::JsonObject{}};
  doc.set("name", "ckpt");
  doc.set("platform", two_node_platform());
  doc.set("workload", util::Json::parse(
                          R"json({"type": "synthetic", "instances": 1,
                                  "cpu_seconds": 100, "input_size": "1 MB"})json"));
  doc.set("retry", util::Json::parse(R"json({"max_attempts": 2})json"));
  doc.set("events", util::Json::parse(
                        R"json([{"type": "host_crash", "time": 80, "host": "node0",
                                 "restart_at": 90}])json"));
  const scenario::RunResult scratch = scenario::run_scenario(ScenarioSpec::parse(doc));

  util::Json fm{util::JsonObject{}};
  fm.set("checkpoint", util::Json::parse(
                           R"json({"interval": 30, "cost": 1, "restart_penalty": 2})json"));
  doc.set("fault_model", std::move(fm));
  const scenario::RunResult ckpt = scenario::run_scenario(ScenarioSpec::parse(doc));

  ASSERT_EQ(scratch.tasks.size(), 3u);
  ASSERT_EQ(ckpt.tasks.size(), 3u);
  EXPECT_EQ(scratch.task("a0:task1").attempts, 2);
  EXPECT_EQ(ckpt.task("a0:task1").attempts, 2);
  // Scratch: ~80 s wasted + full 100 s re-run.  Checkpointed: the second
  // attempt resumes from the 60 s checkpoint.
  EXPECT_LT(ckpt.makespan, scratch.makespan - 30.0);
  // And checkpointing is not free: the happy path pays the costs, so the
  // checkpointed crash run is still slower than an undisrupted pipeline.
  EXPECT_GT(ckpt.makespan, 300.0);
}

TEST(FaultCheckpoint, NoCrashMeansCostsOnly) {
  util::Json doc{util::JsonObject{}};
  doc.set("name", "ckpt_quiet");
  doc.set("platform", two_node_platform());
  doc.set("workload", util::Json::parse(
                          R"json({"type": "synthetic", "instances": 1,
                                  "cpu_seconds": 100, "input_size": "1 MB"})json"));
  const scenario::RunResult plain = scenario::run_scenario(ScenarioSpec::parse(doc));
  util::Json fm{util::JsonObject{}};
  fm.set("checkpoint",
         util::Json::parse(R"json({"interval": 25, "cost": 2, "restart_penalty": 9})json"));
  doc.set("fault_model", std::move(fm));
  const scenario::RunResult ckpt = scenario::run_scenario(ScenarioSpec::parse(doc));
  // Each of the three 100 s pipeline tasks checkpoints 3 times (interval
  // 25, the final segment completes the task), 2 s each; no restart
  // penalty without a retry.
  EXPECT_NEAR(ckpt.makespan - plain.makespan, 18.0, 1e-9);
}

// --- validation ------------------------------------------------------------

TEST(FaultValidation, RejectsMalformedModels) {
  util::Json doc = base_doc();
  auto expect_error = [&doc](util::Json fm, const std::string& needle) {
    doc.set("fault_model", std::move(fm));
    try {
      (void)ScenarioSpec::parse(doc);
      FAIL() << "expected ScenarioError containing '" << needle << "'";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };

  // Unknown model type, named in the error.
  util::Json fm{util::JsonObject{}};
  fm.set("horizon", 100.0);
  fm.set("models", util::Json::parse(R"json({"weird": {"type": "gamma_ray"}})json"));
  expect_error(std::move(fm), "model 'weird'");

  // Crash model without a horizon.
  expect_error(mtbf_model(100.0, 0.0), "horizon");

  // Non-positive MTBF.
  util::Json bad = mtbf_model(100.0, 500.0);
  bad.as_object()["models"].as_object()["crash"].set("mtbf", 0.0);
  expect_error(std::move(bad), "\"mtbf\" must be > 0");

  // Unknown host.
  bad = mtbf_model(100.0, 500.0);
  bad.as_object()["models"].as_object()["crash"].set(
      "hosts", util::Json::parse(R"json(["node9"])json"));
  expect_error(std::move(bad), "unknown host \"node9\"");

  // Straggler factor outside (0, 1].
  util::Json fm2{util::JsonObject{}};
  fm2.set("models", util::Json::parse(
                        R"json({"slow": {"type": "straggler", "factor": 1.5}})json"));
  expect_error(std::move(fm2), "\"factor\"");

  // Checkpoint without an interval.
  util::Json fm3{util::JsonObject{}};
  fm3.set("checkpoint", util::Json::parse(R"json({"cost": 1})json"));
  expect_error(std::move(fm3), "interval");

  // Bad seed is scenario-level, not fault_model-level.
  doc = base_doc();
  doc.set("seed", -1.0);
  EXPECT_THROW((void)ScenarioSpec::parse(doc), ScenarioError);
  doc.set("seed", 1.5);
  EXPECT_THROW((void)ScenarioSpec::parse(doc), ScenarioError);
}

TEST(FaultValidation, LiteralEventErrorsNameTheOffendingIndex) {
  util::Json doc = base_doc();
  auto expect_indexed = [&doc](const std::string& events, const std::string& needle) {
    doc.set("events", util::Json::parse(events));
    try {
      (void)ScenarioSpec::parse(doc);
      FAIL() << "expected ScenarioError containing '" << needle << "'";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  // Negative time at index 1.
  expect_indexed(
      R"json([{"type": "host_crash", "time": 5, "host": "node0"},
              {"type": "host_crash", "time": -1, "host": "node0"}])json",
      "events[1]");
  // Unknown type at index 0.
  expect_indexed(R"json([{"type": "meteor", "time": 5}])json", "events[0]: unknown event type");
  // restart_at <= time at index 2.
  expect_indexed(
      R"json([{"type": "host_crash", "time": 5, "host": "node0"},
              {"type": "host_crash", "time": 50, "host": "node0"},
              {"type": "host_crash", "time": 100, "host": "node0", "restart_at": 100}])json",
      "events[2]: host_crash: restart_at");
}

// --- round-trip ------------------------------------------------------------

TEST(FaultRoundTrip, ToJsonCarriesSeedAndModelButNotTheSchedule) {
  util::Json doc = base_doc();
  doc.set("seed", 9.0);
  doc.set("fault_model", mtbf_model(300.0, 700.0));
  const ScenarioSpec spec = ScenarioSpec::parse(doc);
  const util::Json dumped = spec.to_json();
  EXPECT_EQ(dumped.at("seed").as_number(), 9.0);
  EXPECT_TRUE(dumped.contains("fault_model"));
  EXPECT_FALSE(dumped.contains("events"));  // materialized schedule not merged in

  // Re-parsing the dump re-materializes the identical schedule.
  const ScenarioSpec again = ScenarioSpec::parse(dumped);
  EXPECT_EQ(schedule_bytes(again), schedule_bytes(spec));
  EXPECT_EQ(again.checkpoint.interval, spec.checkpoint.interval);
}

TEST(FaultRoundTrip, SpecsWithoutFaultKeysStayByteStable) {
  util::Json doc = base_doc();
  const util::Json dumped = ScenarioSpec::parse(doc).to_json();
  EXPECT_FALSE(dumped.contains("seed"));
  EXPECT_FALSE(dumped.contains("fault_model"));
}

}  // namespace
}  // namespace pcs::faults
