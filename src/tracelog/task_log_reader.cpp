#include "tracelog/task_log_reader.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace pcs::tracelog {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::size_t estimate_bytes(const TraceWorkflow& wf) {
  std::size_t bytes = sizeof(TraceWorkflow) + wf.label.capacity() + wf.service.capacity();
  for (const TraceTaskDecl& task : wf.tasks) {
    bytes += sizeof(TraceTaskDecl) + task.name.capacity();
    for (const wf::FileSpec& f : task.inputs) bytes += sizeof(wf::FileSpec) + f.name.capacity();
    for (const wf::FileSpec& f : task.outputs) {
      bytes += sizeof(wf::FileSpec) + f.name.capacity();
    }
    for (const std::string& d : task.deps) bytes += sizeof(std::string) + d.capacity();
  }
  return bytes;
}

}  // namespace

TaskLogReader::TaskLogReader(std::string path, std::size_t window)
    : path_(std::move(path)), window_(std::max<std::size_t>(window, 1)) {
  in_.open(path_);
  if (!in_) throw TraceError("cannot open task log '" + path_ + "'");
  try {
    prescan();
  } catch (const TraceError& e) {
    throw TraceError(path_ + ": " + e.what());
  }
  in_.clear();  // past-EOF state would poison the first workflow() seek
}

void TaskLogReader::prescan() {
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  // Global task-name census: uniqueness, and task_done/io/task_attempt
  // records must reference declared tasks.  In a recorded log every event
  // follows its declaration, so names-so-far is the whole census.
  std::unordered_set<std::string> names;
  std::unordered_set<std::uint64_t> wf_ids;
  // The workflow whose declarations are still arriving, plus its local
  // state for the close-of-workflow dependency check.
  std::size_t open = kNone;
  std::unordered_set<std::string> open_names;
  std::vector<std::pair<std::string, std::string>> open_deps;  // (task, dep)
  std::unordered_set<std::string> open_files;

  auto close_open = [&] {
    if (open == kNone) return;
    for (const auto& [task, dep] : open_deps) {
      if (open_names.count(dep) == 0) {
        throw TraceError("task '" + task + "': dependency '" + dep +
                         "' is not a task of workflow '" + metas_[open].label + "'");
      }
    }
    open = kNone;
    open_names.clear();
    open_deps.clear();
    open_files.clear();
  };

  for (;;) {
    const std::streampos pos = in_.tellg();
    if (!std::getline(in_, line)) break;
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    util::Json rec;
    try {
      rec = util::Json::parse(line);
    } catch (const util::JsonError& e) {
      throw TraceError("task log line " + std::to_string(line_no) + ": " + e.what());
    }
    const std::string kind = rec.string_or("rec", "");
    try {
      if (kind == "header") {
        if (saw_header) throw TraceError("duplicate header record");
        saw_header = true;
        version_ = static_cast<int>(rec.at("version").as_number());
        if (version_ < kMinTaskLogVersion || version_ > kTaskLogVersion) {
          throw TraceError("unsupported task log version " + std::to_string(version_) +
                           " (this build reads versions " +
                           std::to_string(kMinTaskLogVersion) + ".." +
                           std::to_string(kTaskLogVersion) + ")");
        }
        scenario_ = rec.string_or("scenario", "");
        simulator_ = rec.string_or("simulator", "");
        anonymized_ = rec.bool_or("anonymized", false);
        if (rec.contains("source_scenario")) source_scenario_ = rec.at("source_scenario");
        if (rec.contains("fault_schedule")) fault_schedule_ = rec.at("fault_schedule");
      } else if (kind == "workflow") {
        close_open();
        const TraceWorkflow workflow = parse_workflow_record(rec);
        if (!wf_ids.insert(workflow.id).second) {
          throw TraceError("duplicate workflow id " + std::to_string(workflow.id));
        }
        if (workflow.submit < 0.0) {
          throw TraceError("workflow '" + workflow.label + "': negative submit time");
        }
        if (metas_.empty() || workflow.submit < first_submit_) {
          first_submit_ = workflow.submit;
        }
        TraceWorkflowMeta meta;
        meta.id = workflow.id;
        meta.label = workflow.label;
        meta.service = workflow.service;
        meta.submit = workflow.submit;
        meta.offset = static_cast<std::uint64_t>(static_cast<std::streamoff>(pos));
        open = metas_.size();
        metas_.push_back(std::move(meta));
      } else if (kind == "task") {
        std::uint64_t wf_id = 0;
        TraceTaskDecl task = parse_task_record(rec, &wf_id);
        if (open == kNone || metas_[open].id != wf_id) {
          if (wf_ids.count(wf_id) == 0) {
            throw TraceError("task references unknown workflow id " + std::to_string(wf_id));
          }
          throw TraceError("task record for workflow " + std::to_string(wf_id) +
                           " is not contiguous with its workflow record; a log's task "
                           "records must follow their workflow record");
        }
        if (!names.insert(task.name).second) {
          throw TraceError("duplicate task name '" + task.name + "'");
        }
        if (task.flops < 0.0) throw TraceError("task '" + task.name + "': negative flops");
        for (const wf::FileSpec& f : task.inputs) {
          if (f.size < 0.0) throw TraceError("task '" + task.name + "': negative input size");
          if (open_files.insert(f.name).second) metas_[open].files.push_back(f.name);
        }
        for (const wf::FileSpec& f : task.outputs) {
          if (f.size < 0.0) {
            throw TraceError("task '" + task.name + "': negative output size");
          }
          if (open_files.insert(f.name).second) metas_[open].files.push_back(f.name);
        }
        open_names.insert(task.name);
        for (std::string& dep : task.deps) {
          open_deps.emplace_back(task.name, std::move(dep));
        }
        ++metas_[open].task_count;
        ++task_count_;
      } else if (kind == "task_done") {
        const TraceTaskEvent event = parse_task_event_record(rec);
        if (names.count(event.name) == 0) {
          throw TraceError("task_done event for undeclared task '" + event.name + "'");
        }
        if (event.end < event.start) {
          throw TraceError("task_done '" + event.name + "': end precedes start");
        }
        ++task_event_count_;
        last_task_end_ = std::max(last_task_end_, event.end);
      } else if (kind == "io") {
        const TraceIoEvent event = parse_io_event_record(rec);
        if (event.bytes < 0.0) {
          throw TraceError("io event on '" + event.file + "': negative byte count");
        }
        if (event.end < event.start) {
          throw TraceError("io event on '" + event.file + "': end precedes start");
        }
        if (!event.task.empty() && names.count(event.task) == 0) {
          throw TraceError("io event on '" + event.file + "' names undeclared task '" +
                           event.task + "'");
        }
        ++io_event_count_;
        if (event.op == "read") read_bytes_ += event.bytes;
        if (event.op == "write") written_bytes_ += event.bytes;
      } else if (kind == "task_attempt") {
        const TraceTaskAttempt attempt = parse_task_attempt_record(rec);
        if (names.count(attempt.name) == 0) {
          throw TraceError("task_attempt for undeclared task '" + attempt.name + "'");
        }
        if (attempt.attempt < 1) {
          throw TraceError("task_attempt '" + attempt.name + "': attempt must be >= 1");
        }
        if (attempt.end < attempt.start) {
          throw TraceError("task_attempt '" + attempt.name + "': end precedes start");
        }
      } else if (kind == "disruption") {
        const TraceDisruption disruption = parse_disruption_record(rec);
        if (disruption.type.empty()) throw TraceError("disruption record with empty type");
        if (disruption.time < 0.0) {
          throw TraceError("disruption '" + disruption.type + "': negative time");
        }
      } else if (kind == "summary") {
        recorded_makespan_ = rec.at("makespan").as_number();
      } else {
        throw TraceError("unknown record type '" + kind + "'");
      }
    } catch (const util::JsonError& e) {
      throw TraceError("task log line " + std::to_string(line_no) + " (" +
                       (kind.empty() ? "no \"rec\" field" : kind) + "): " + e.what());
    } catch (const TraceError& e) {
      throw TraceError("task log line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  close_open();
  if (!saw_header) throw TraceError("task log has no header record");
}

TraceWorkflow TaskLogReader::load_workflow(const TraceWorkflowMeta& meta) {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(meta.offset));
  std::string line;
  if (!std::getline(in_, line)) {
    throw TraceError(path_ + ": truncated while re-reading workflow " +
                     std::to_string(meta.id) + " (log changed since the pre-scan?)");
  }
  TraceWorkflow workflow = parse_workflow_record(util::Json::parse(line));
  if (workflow.id != meta.id) {
    throw TraceError(path_ + ": workflow record at offset " + std::to_string(meta.offset) +
                     " no longer matches the pre-scan (log changed during replay)");
  }
  workflow.tasks.reserve(meta.task_count);
  while (workflow.tasks.size() < meta.task_count) {
    if (!std::getline(in_, line)) {
      throw TraceError(path_ + ": truncated while re-reading tasks of workflow " +
                       std::to_string(meta.id));
    }
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const util::Json rec = util::Json::parse(line);
    const std::string kind = rec.string_or("rec", "");
    if (kind == "workflow") {
      throw TraceError(path_ + ": workflow " + std::to_string(meta.id) +
                       " lost task records since the pre-scan (log changed during replay)");
    }
    if (kind != "task") continue;
    std::uint64_t wf_id = 0;
    TraceTaskDecl task = parse_task_record(rec, &wf_id);
    if (wf_id != meta.id) {
      throw TraceError(path_ + ": task records of workflow " + std::to_string(meta.id) +
                       " changed since the pre-scan");
    }
    workflow.tasks.push_back(std::move(task));
  }
  return workflow;
}

void TaskLogReader::for_each_event(const EventVisitor& visit) const {
  // A stream of its own: the pass never disturbs workflow()'s seek cursor.
  std::ifstream in(path_);
  if (!in) throw TraceError("cannot open task log '" + path_ + "'");
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const util::Json rec = util::Json::parse(line);
      const std::string kind = rec.string_or("rec", "");
      if (kind == "task_done") {
        if (visit.task_done) visit.task_done(parse_task_event_record(rec));
      } else if (kind == "io") {
        if (visit.io) visit.io(parse_io_event_record(rec));
      } else if (kind == "task_attempt") {
        if (visit.task_attempt) visit.task_attempt(parse_task_attempt_record(rec));
      } else if (kind == "disruption") {
        if (visit.disruption) visit.disruption(parse_disruption_record(rec));
      }
    } catch (const util::JsonError& e) {
      throw TraceError(path_ + ": task log line " + std::to_string(line_no) + ": " + e.what() +
                       " (log changed since the pre-scan?)");
    }
  }
}

const TraceWorkflow& TaskLogReader::workflow(std::size_t index) {
  if (index >= metas_.size()) {
    throw TraceError(path_ + ": workflow index " + std::to_string(index) + " out of range");
  }
  auto hit = cache_.find(index);
  if (hit != cache_.end()) {
    lru_.erase(hit->second.lru_pos);
    lru_.push_front(index);
    hit->second.lru_pos = lru_.begin();
    return hit->second.workflow;
  }
  while (cache_.size() >= window_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    auto v = cache_.find(victim);
    bytes_buffered_ -= v->second.bytes;
    cache_.erase(v);
  }
  CacheEntry entry;
  entry.workflow = load_workflow(metas_[index]);
  entry.bytes = estimate_bytes(entry.workflow);
  ++parse_count_;
  lru_.push_front(index);
  entry.lru_pos = lru_.begin();
  auto [pos, inserted] = cache_.emplace(index, std::move(entry));
  bytes_buffered_ += pos->second.bytes;
  window_peak_ = std::max(window_peak_, cache_.size());
  return pos->second.workflow;
}

}  // namespace pcs::tracelog
