// Task-log access: the one reader of the JSONL task-log format.  Every
// replay streams through it, so a million-task log replays through a
// bounded window instead of being held in memory whole.
//
// Three kinds of access to the file:
//
//   1. A pre-scan (constructor): one forward read of the file that keeps
//      only per-workflow metadata — label, service binding, submit time,
//      task count, referenced file names, and the byte offset of the
//      workflow record — plus O(1) summary accumulators (task/io event
//      counts, read/written bytes, last task end) and the header.  Every
//      record is validated here, in stream order (supported version, unique
//      workflow ids and task names, in-workflow dependencies, non-negative
//      sizes/flops/times, events naming declared tasks); event records are
//      then dropped, never stored.
//   2. On-demand workflow loads (workflow(i)): seek to the recorded offset
//      and parse just that workflow's declaration records, holding at most
//      `window` parsed workflows in an LRU cache.  Out-of-order access
//      (load_factor clones pulling the same recorded workflow at staggered
//      virtual times) re-parses after eviction instead of growing the
//      window.
//   3. The event pass (for_each_event): re-reads the file and hands each
//      task_done / io / task_attempt / disruption record to a callback —
//      what `replay --check` compares against and TaskLog::from_file
//      collects for the in-memory model.
//
// Memory is O(#workflows) metadata + O(window) parsed declarations,
// independent of the event-record volume — the property the
// `alloc/trace_window_bytes` gauge reports and trace_replay_test asserts.
//
// A workflow's task records must follow its workflow record before the
// next workflow begins (what TaskLogRecorder and TaskLog::save write);
// interleaved declarations are rejected by the pre-scan.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "tracelog/task_log.hpp"
#include "util/json.hpp"

namespace pcs::tracelog {

/// Everything the workload layer needs to schedule a recorded workflow
/// without its task bodies.
struct TraceWorkflowMeta {
  std::uint64_t id = 0;
  std::string label;
  std::string service;
  double submit = 0.0;
  std::uint64_t offset = 0;      ///< byte offset of the workflow record line
  std::uint32_t task_count = 0;  ///< declaration records to collect on load
  /// Input/output file names (unique, declaration order): the runner's
  /// workload_files set is built from these, not from materialized DAGs.
  std::vector<std::string> files;
};

class TaskLogReader {
 public:
  static constexpr std::size_t kDefaultWindow = 64;

  /// Pre-scans `path` (throws TraceError on malformed or non-contiguous
  /// logs, prefixed with the path).  `window` is
  /// the maximum number of parsed workflows cached at once (>= 1).
  explicit TaskLogReader(std::string path, std::size_t window = kDefaultWindow);

  // --- header ---------------------------------------------------------------
  [[nodiscard]] int version() const { return version_; }
  [[nodiscard]] const std::string& scenario() const { return scenario_; }
  [[nodiscard]] const std::string& simulator() const { return simulator_; }
  [[nodiscard]] bool anonymized() const { return anonymized_; }
  [[nodiscard]] const util::Json& source_scenario() const { return source_scenario_; }
  [[nodiscard]] const util::Json& fault_schedule() const { return fault_schedule_; }

  // --- pre-scan results -----------------------------------------------------
  [[nodiscard]] const std::vector<TraceWorkflowMeta>& workflows() const { return metas_; }
  [[nodiscard]] std::size_t task_count() const { return task_count_; }
  [[nodiscard]] std::size_t task_event_count() const { return task_event_count_; }
  [[nodiscard]] std::size_t io_event_count() const { return io_event_count_; }
  [[nodiscard]] double total_read_bytes() const { return read_bytes_; }
  [[nodiscard]] double total_written_bytes() const { return written_bytes_; }
  [[nodiscard]] double first_submit() const { return first_submit_; }
  [[nodiscard]] double last_task_end() const { return last_task_end_; }
  [[nodiscard]] double recorded_makespan() const { return recorded_makespan_; }

  /// The workflow at metadata index `index`, parsed on demand through the
  /// bounded cache.  The reference stays valid until `window` further
  /// workflow() calls at the earliest.
  [[nodiscard]] const TraceWorkflow& workflow(std::size_t index);

  /// Callbacks of the event pass; a null member skips that record type.
  struct EventVisitor {
    std::function<void(TraceTaskEvent)> task_done;
    std::function<void(TraceIoEvent)> io;
    std::function<void(TraceTaskAttempt)> task_attempt;
    std::function<void(TraceDisruption)> disruption;
  };
  /// The event pass: re-reads the file from the start and hands every event
  /// record, in file order, to its callback.  Nothing is retained, so the
  /// pass runs in O(1) memory whatever the log's length.
  void for_each_event(const EventVisitor& visit) const;

  // --- window gauges --------------------------------------------------------
  [[nodiscard]] std::size_t window() const { return window_; }
  /// Parsed workflows currently cached.
  [[nodiscard]] std::size_t window_blocks() const { return cache_.size(); }
  /// High-water mark of window_blocks() (never exceeds window()).
  [[nodiscard]] std::size_t window_peak() const { return window_peak_; }
  /// Total on-demand parses; > workflows().size() means eviction re-parses.
  [[nodiscard]] std::size_t parse_count() const { return parse_count_; }
  /// Approximate bytes held by the cached parsed workflows.
  [[nodiscard]] std::size_t bytes_buffered() const { return bytes_buffered_; }

 private:
  void prescan();
  [[nodiscard]] TraceWorkflow load_workflow(const TraceWorkflowMeta& meta);

  std::string path_;
  std::size_t window_;
  std::ifstream in_;  ///< kept open across workflow() seeks

  int version_ = 0;
  std::string scenario_;
  std::string simulator_;
  bool anonymized_ = false;
  util::Json source_scenario_;
  util::Json fault_schedule_;

  std::vector<TraceWorkflowMeta> metas_;
  std::size_t task_count_ = 0;
  std::size_t task_event_count_ = 0;
  std::size_t io_event_count_ = 0;
  double read_bytes_ = 0.0;
  double written_bytes_ = 0.0;
  double first_submit_ = 0.0;
  double last_task_end_ = 0.0;
  double recorded_makespan_ = 0.0;

  struct CacheEntry {
    TraceWorkflow workflow;
    std::size_t bytes = 0;
    std::list<std::size_t>::iterator lru_pos;  ///< position in lru_ (front = hottest)
  };
  std::unordered_map<std::size_t, CacheEntry> cache_;  ///< metadata index -> parsed
  std::list<std::size_t> lru_;
  std::size_t window_peak_ = 0;
  std::size_t parse_count_ = 0;
  std::size_t bytes_buffered_ = 0;
};

}  // namespace pcs::tracelog
