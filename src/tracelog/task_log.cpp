#include "tracelog/task_log.hpp"

#include <fstream>
#include <utility>

#include "tracelog/task_log_reader.hpp"

namespace pcs::tracelog {

namespace {

util::Json files_to_json(const std::vector<wf::FileSpec>& files) {
  util::Json out{util::JsonArray{}};
  for (const wf::FileSpec& f : files) {
    out.push_back(util::Json{util::JsonObject{}}.set("name", f.name).set("size", f.size));
  }
  return out;
}

std::vector<wf::FileSpec> files_from_json(const util::Json& doc) {
  std::vector<wf::FileSpec> out;
  for (const util::Json& f : doc.as_array()) {
    out.push_back({f.at("name").as_string(), f.at("size").as_number()});
  }
  return out;
}

}  // namespace

TraceWorkflow parse_workflow_record(const util::Json& rec) {
  TraceWorkflow workflow;
  workflow.id = static_cast<std::uint64_t>(rec.at("id").as_number());
  workflow.label = rec.string_or("label", "");
  workflow.service = rec.string_or("service", "");
  workflow.submit = rec.at("submit").as_number();
  return workflow;
}

TraceTaskDecl parse_task_record(const util::Json& rec, std::uint64_t* wf_id) {
  *wf_id = static_cast<std::uint64_t>(rec.at("wf").as_number());
  TraceTaskDecl task;
  task.name = rec.at("name").as_string();
  task.flops = rec.at("flops").as_number();
  task.chunk_size = rec.number_or("chunk_size", 0.0);
  if (rec.contains("inputs")) task.inputs = files_from_json(rec.at("inputs"));
  if (rec.contains("outputs")) task.outputs = files_from_json(rec.at("outputs"));
  if (rec.contains("deps")) {
    for (const util::Json& d : rec.at("deps").as_array()) {
      task.deps.push_back(d.as_string());
    }
  }
  return task;
}

TraceTaskEvent parse_task_event_record(const util::Json& rec) {
  TraceTaskEvent event;
  event.name = rec.at("name").as_string();
  event.host = rec.string_or("host", "");
  event.start = rec.at("start").as_number();
  event.read_start = rec.at("read_start").as_number();
  event.read_end = rec.at("read_end").as_number();
  event.compute_end = rec.at("compute_end").as_number();
  event.write_end = rec.at("write_end").as_number();
  event.end = rec.at("end").as_number();
  event.attempts = static_cast<int>(rec.number_or("attempts", 1.0));
  return event;
}

TraceIoEvent parse_io_event_record(const util::Json& rec) {
  TraceIoEvent event;
  event.op = rec.at("op").as_string();
  event.file = rec.at("file").as_string();
  event.bytes = rec.at("bytes").as_number();
  event.start = rec.at("start").as_number();
  event.end = rec.at("end").as_number();
  event.service = rec.string_or("service", "");
  event.task = rec.string_or("task", "");
  return event;
}

TraceTaskAttempt parse_task_attempt_record(const util::Json& rec) {
  TraceTaskAttempt attempt;
  attempt.name = rec.at("name").as_string();
  attempt.host = rec.string_or("host", "");
  attempt.attempt = static_cast<int>(rec.at("attempt").as_number());
  attempt.start = rec.at("start").as_number();
  attempt.end = rec.at("end").as_number();
  attempt.outcome = rec.string_or("outcome", "crashed");
  return attempt;
}

TraceDisruption parse_disruption_record(const util::Json& rec) {
  TraceDisruption disruption;
  disruption.type = rec.at("type").as_string();
  disruption.time = rec.at("time").as_number();
  disruption.target = rec.string_or("target", "");
  disruption.factor = rec.number_or("factor", 0.0);
  return disruption;
}

util::Json header_record(const TaskLog& log) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "header");
  doc.set("version", log.version);
  doc.set("scenario", log.scenario);
  doc.set("simulator", log.simulator);
  if (log.anonymized) doc.set("anonymized", true);
  if (!log.source_scenario.is_null()) doc.set("source_scenario", log.source_scenario);
  // Emitted only for stochastic-fault runs: v1/v2 logs without a schedule
  // re-save byte-identically.
  if (!log.fault_schedule.is_null()) doc.set("fault_schedule", log.fault_schedule);
  return doc;
}

util::Json workflow_record(const TraceWorkflow& workflow) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "workflow");
  doc.set("id", static_cast<unsigned long>(workflow.id));
  doc.set("label", workflow.label);
  doc.set("service", workflow.service);
  doc.set("submit", workflow.submit);
  return doc;
}

util::Json task_record(std::uint64_t workflow_id, const TraceTaskDecl& task) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "task");
  doc.set("wf", static_cast<unsigned long>(workflow_id));
  doc.set("name", task.name);
  doc.set("flops", task.flops);
  if (task.chunk_size > 0.0) doc.set("chunk_size", task.chunk_size);
  doc.set("inputs", files_to_json(task.inputs));
  doc.set("outputs", files_to_json(task.outputs));
  util::Json deps{util::JsonArray{}};
  for (const std::string& d : task.deps) deps.push_back(d);
  doc.set("deps", std::move(deps));
  return doc;
}

util::Json task_event_record(const TraceTaskEvent& event) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "task_done");
  doc.set("name", event.name);
  doc.set("host", event.host);
  doc.set("start", event.start);
  doc.set("read_start", event.read_start);
  doc.set("read_end", event.read_end);
  doc.set("compute_end", event.compute_end);
  doc.set("write_end", event.write_end);
  doc.set("end", event.end);
  // Emitted only for retried tasks: v1 logs (no retries) re-save
  // byte-identically.
  if (event.attempts > 1) doc.set("attempts", event.attempts);
  return doc;
}

util::Json task_attempt_record(const TraceTaskAttempt& attempt) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "task_attempt");
  doc.set("name", attempt.name);
  doc.set("host", attempt.host);
  doc.set("attempt", attempt.attempt);
  doc.set("start", attempt.start);
  doc.set("end", attempt.end);
  doc.set("outcome", attempt.outcome);
  return doc;
}

util::Json disruption_record(const TraceDisruption& disruption) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "disruption");
  doc.set("type", disruption.type);
  doc.set("time", disruption.time);
  doc.set("target", disruption.target);
  if (disruption.factor != 0.0) doc.set("factor", disruption.factor);
  return doc;
}

util::Json io_event_record(const TraceIoEvent& event) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "io");
  doc.set("op", event.op);
  doc.set("file", event.file);
  doc.set("bytes", event.bytes);
  doc.set("start", event.start);
  doc.set("end", event.end);
  doc.set("service", event.service);
  if (!event.task.empty()) doc.set("task", event.task);
  return doc;
}

util::Json summary_record(double makespan, std::size_t tasks) {
  util::Json doc{util::JsonObject{}};
  doc.set("rec", "summary");
  doc.set("makespan", makespan);
  doc.set("tasks", static_cast<unsigned long>(tasks));
  return doc;
}

TaskLog TaskLog::from_file(const std::string& path) {
  // The reader's pre-scan validates the whole file; window 1 suffices for
  // one in-order pass over the workflows.
  TaskLogReader reader(path, 1);
  TaskLog log;
  log.version = reader.version();
  log.scenario = reader.scenario();
  log.simulator = reader.simulator();
  log.anonymized = reader.anonymized();
  log.source_scenario = reader.source_scenario();
  log.fault_schedule = reader.fault_schedule();
  log.recorded_makespan = reader.recorded_makespan();
  log.workflows.reserve(reader.workflows().size());
  for (std::size_t i = 0; i < reader.workflows().size(); ++i) {
    log.workflows.push_back(reader.workflow(i));
  }
  TaskLogReader::EventVisitor visit;
  visit.task_done = [&log](TraceTaskEvent event) { log.task_events.push_back(std::move(event)); };
  visit.io = [&log](TraceIoEvent event) { log.io_events.push_back(std::move(event)); };
  visit.task_attempt = [&log](TraceTaskAttempt attempt) {
    log.task_attempts.push_back(std::move(attempt));
  };
  visit.disruption = [&log](TraceDisruption disruption) {
    log.disruptions.push_back(std::move(disruption));
  };
  reader.for_each_event(visit);
  return log;
}

void TaskLog::save(std::ostream& out) const {
  out << header_record(*this).dump() << '\n';
  for (const TraceWorkflow& workflow : workflows) {
    out << workflow_record(workflow).dump() << '\n';
    for (const TraceTaskDecl& task : workflow.tasks) {
      out << task_record(workflow.id, task).dump() << '\n';
    }
  }
  for (const TraceIoEvent& event : io_events) out << io_event_record(event).dump() << '\n';
  // v2 records; a v1 log has none and re-saves byte-identically.
  for (const TraceDisruption& disruption : disruptions) {
    out << disruption_record(disruption).dump() << '\n';
  }
  for (const TraceTaskAttempt& attempt : task_attempts) {
    out << task_attempt_record(attempt).dump() << '\n';
  }
  for (const TraceTaskEvent& event : task_events) {
    out << task_event_record(event).dump() << '\n';
  }
  out << summary_record(recorded_makespan, task_count()).dump() << '\n';
}

void TaskLog::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw TraceError("cannot write task log '" + path + "'");
  save(out);
}

util::Json TaskLog::to_json() const {
  util::Json doc{util::JsonObject{}};
  doc.set("header", header_record(*this));
  util::Json wfs{util::JsonArray{}};
  for (const TraceWorkflow& workflow : workflows) {
    util::Json w = workflow_record(workflow);
    util::Json tasks{util::JsonArray{}};
    for (const TraceTaskDecl& task : workflow.tasks) {
      tasks.push_back(task_record(workflow.id, task));
    }
    w.set("tasks", std::move(tasks));
    wfs.push_back(std::move(w));
  }
  doc.set("workflows", std::move(wfs));
  util::Json ios{util::JsonArray{}};
  for (const TraceIoEvent& event : io_events) ios.push_back(io_event_record(event));
  doc.set("io_events", std::move(ios));
  // v2 arrays emitted only when present, keeping v1 trace-info output
  // byte-stable.
  if (!disruptions.empty()) {
    util::Json out{util::JsonArray{}};
    for (const TraceDisruption& disruption : disruptions) {
      out.push_back(disruption_record(disruption));
    }
    doc.set("disruptions", std::move(out));
  }
  if (!task_attempts.empty()) {
    util::Json out{util::JsonArray{}};
    for (const TraceTaskAttempt& attempt : task_attempts) {
      out.push_back(task_attempt_record(attempt));
    }
    doc.set("task_attempts", std::move(out));
  }
  util::Json events{util::JsonArray{}};
  for (const TraceTaskEvent& event : task_events) {
    events.push_back(task_event_record(event));
  }
  doc.set("task_events", std::move(events));
  doc.set("summary", summary_record(recorded_makespan, task_count()));
  return doc;
}

std::size_t TaskLog::task_count() const {
  std::size_t count = 0;
  for (const TraceWorkflow& workflow : workflows) count += workflow.tasks.size();
  return count;
}

double TaskLog::total_read_bytes() const {
  double total = 0.0;
  for (const TraceIoEvent& event : io_events) {
    if (event.op == "read") total += event.bytes;
  }
  return total;
}

double TaskLog::total_written_bytes() const {
  double total = 0.0;
  for (const TraceIoEvent& event : io_events) {
    if (event.op == "write") total += event.bytes;
  }
  return total;
}

double TaskLog::last_task_end() const {
  double last = 0.0;
  for (const TraceTaskEvent& event : task_events) {
    if (event.end > last) last = event.end;
  }
  return last;
}

double TaskLog::first_submit() const {
  if (workflows.empty()) return 0.0;
  double first = workflows.front().submit;
  for (const TraceWorkflow& workflow : workflows) {
    if (workflow.submit < first) first = workflow.submit;
  }
  return first;
}

}  // namespace pcs::tracelog
