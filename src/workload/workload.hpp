// Declarative workload layer: a JSON workload spec expands into concrete
// workflow instances, each with a storage-service binding and an arrival
// time.  This is what makes scenarios data instead of code — the scenario
// runner submits whatever the generators produce.
//
// Generator types:
//   "synthetic"    — the paper's phase-based pipeline (Table I), N instances
//                    with per-instance file prefixes ("a<i>:");
//   "nighres"      — the Nighres cortical-reconstruction workflow (Table II);
//   "dag"          — an arbitrary workflow loaded through the workflow_json
//                    schema, inline ("workflow": {...}) or from a file
//                    ("file": "wf.json");
//   "multi_tenant" — composes named tenants, each itself a workload spec,
//                    with staggered arrivals and per-tenant storage services
//                    (and therefore per-tenant cache params);
//   "trace"        — replays a recorded task log ("file": "run.jsonl", see
//                    tracelog/task_log.hpp): every recorded workflow is
//                    rebuilt with its recorded structure, service binding
//                    and submission time.  Knobs: "time_scale" (stretch or
//                    compress arrivals), "load_factor" (N namespaced clones
//                    of the whole log, "c<k>:"), "start"/"end" (replay only
//                    the submit-time window, rebased to t=0) and "remap"
//                    ({recorded service -> replacement}).  With the default
//                    knobs a replay on the recorded platform reproduces the
//                    original run bit-for-bit (tests/trace_replay_test.cpp).
//                    Every replay streams through a tracelog::TaskLogReader
//                    cursor: workflow declarations parse at their submission
//                    instants through a bounded window of "window" parsed
//                    workflows (default 64), so a million-task log replays
//                    in O(live tasks) memory.
//
// Common fields: "instances" (default 1), "arrival" (seconds, default 0),
// "stagger" (seconds added per instance, default 0), "service" (storage
// service name; empty = scenario default).  On a multi_tenant composition
// itself, "arrival" offsets every tenant and "service" is the fallback for
// tenants without one; "instances"/"stagger" belong on the tenants and are
// rejected on the composition.  On a trace workload, "instances" is
// rejected (use "load_factor"), "stagger" staggers the clones, and
// "service" rebinds every recorded workflow that "remap" doesn't cover.
// See README "Scenario files".
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "workflow/workflow.hpp"

namespace pcs::wf {
class Simulation;
}

namespace pcs::tracelog {
class TaskLogReader;
}

namespace pcs::workload {

class WorkloadError : public std::runtime_error {
 public:
  explicit WorkloadError(const std::string& what) : std::runtime_error(what) {}
};

/// One workflow to run: built into the owning Simulation, bound to a
/// storage service, submitted at `arrival`.
///
/// Eager generators set `workflow` at build time.  The trace generator
/// leaves it null and provides `materialize` instead: the runner calls it
/// at the submission instant, so a deferred workflow's declaration records
/// are parsed (through the reader's bounded window) only when the
/// simulation actually needs them.
struct WorkloadInstance {
  wf::Workflow* workflow = nullptr;  ///< owned by the Simulation; null = deferred
  std::string service;               ///< storage service name; "" = default
  double arrival = 0.0;              ///< submission time (simulated seconds)
  std::string label;                 ///< instance tag, e.g. "a0" or "tenantA:a1"
  /// Builds (and memoizes) the deferred workflow; null for eager instances.
  std::function<wf::Workflow*()> materialize;
  /// Deferred instances only: the (prefixed) file names this workflow will
  /// reference, so the runner's workload_files set needs no materialization.
  std::vector<std::string> files;
  /// Deferred instances only: the shared task-log reader (window gauges).
  std::shared_ptr<tracelog::TaskLogReader> reader;
};

/// Expand `spec` into workflow instances (created via sim.create_workflow).
/// `prefix` namespaces task/file names (used by multi-tenant composition);
/// `base_dir` resolves relative "file" references (the directory of the
/// scenario file, typically).  Throws WorkloadError on malformed specs.
[[nodiscard]] std::vector<WorkloadInstance> build_workload(wf::Simulation& sim,
                                                           const util::Json& spec,
                                                           const std::string& prefix = "",
                                                           const std::string& base_dir = "");

/// Copy of a workflow_json document with every task, file and dependency
/// name prefixed — how one DAG file yields independent instances.
[[nodiscard]] util::Json prefixed_workflow_doc(const util::Json& doc, const std::string& prefix);

}  // namespace pcs::workload
