// Shared types of the host-cost benchmark (see perfbench/README.md).
//
// A workload is a closed loop of passes: one process runs one pass after
// another on one solver thread.  A pass loads its inputs from disk, runs
// every case, checks each case's simulated output against a pinned value
// and writes a report.  The benchmark measures each layer from outside,
// by timing its own calls into the layer's public functions; inside the
// engine it reads the existing obs::EngineProfile hook.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed call into a program layer: name, host start/end (seconds
/// since the log's origin) and the enclosing span (-1 = none).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder, written out once when the run ends.
class SpanLog {
 public:
  int open(std::string name);
  void close(int index);
  /// Chrome trace-event document ("X" events, microseconds).
  [[nodiscard]] pcs::util::Json to_chrome() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer: adds its host seconds to `*acc` (when
/// set) and, when `spans` is set, records it as a span.
class Timed {
 public:
  Timed(SpanLog* spans, const char* name, double* acc);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* spans_;
  double* acc_;
  int span_ = -1;
  Clock::time_point start_;
};

template <class F>
auto timed(SpanLog* spans, const char* name, double* acc, F&& call) {
  Timed timer(spans, name, acc);
  return call();
}

/// One case of a pass and the outcome of its output check.
struct CaseResult {
  std::string label;
  double instances = 0.0;  ///< concurrent applications (fig8 slope x axis)
  double seconds = 0.0;    ///< host time of the case: parse, run, report
  double observed = 0.0;   ///< the checked fingerprint (makespan or checksum)
  bool ok = false;
  std::string error;       ///< why the case failed (empty when ok)
};

/// Page-cache traffic of a pass: MemoryManager's byte counters summed over
/// every cached storage service of every case, and the largest number of
/// files a case's cache ends with.
struct CacheTraffic {
  double written = 0.0;  ///< application write bytes (dirty inserts)
  double hit = 0.0;
  double miss = 0.0;
  double flushed = 0.0;
  double evicted = 0.0;
  std::size_t files = 0;
};

/// Host figures of one pass.  Layer times are sums over the pass's cases.
struct PassStats {
  /// Set by the caller: run each case with the metrics sampler on, to fill
  /// `traffic` (untimed; the sampler leaves simulated results unchanged).
  bool count_traffic = false;
  CacheTraffic traffic;
  double wall_s = 0.0;      ///< inputs on disk to report written
  double setup_s = 0.0;     ///< load calls before simulation starts
  double parse_s = 0.0;     ///< ScenarioSpec parse calls
  double prescan_s = 0.0;   ///< TaskLogReader construction
  double run_s = 0.0;       ///< run_scenario / run_core_scenario calls
  double engine_s = 0.0;    ///< wall time the runs report for themselves
  double emit_s = 0.0;      ///< result_to_json plus serialization
  double report_bytes = 0.0;
  double records = 0.0;         ///< task-log records pre-scanned
  double final_blocks = 0.0;    ///< largest final page-cache block count
  double scheduling_points = 0.0;
  double fair_share_solves = 0.0;
  double components_solved = 0.0;
  /// Reference-host seconds per host second during the pass (calibrate.cpp).
  double speed = 1.0;
  pcs::obs::EngineProfile profile;  ///< filled only on traced passes
  std::vector<CaseResult> cases;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;       ///< smallest sizes, one pass (self-test)
  std::string root = ".";   ///< repository checkout
  std::string data_dir;     ///< prepared inputs (outside the source tree)
  std::string out_dir;      ///< reports, spans, result records
  std::string pins_path;    ///< pinned fingerprints
};

/// Seconds the reference kernel takes on the reference host: by
/// definition, the host the benchmark reports its times for.
constexpr double kReferenceKernelSeconds = 1.0e-3;

/// Host-speed samples around and inside one pass (calibrate.cpp).
class SpeedSampler {
 public:
  /// `first_budget`: host seconds the first sample times the kernel for.
  explicit SpeedSampler(double first_budget) : first_budget_(first_budget) {}
  /// Time the reference kernel (at least one run) for `first_budget`, or
  /// after that for 2.5% of the host time since the previous sample.
  void sample();
  /// sample() between two steps of a pass, once 100 ms have passed since
  /// the previous sample: short steps run back to back, as a sweep runs
  /// them, instead of each starting with caches the kernel just filled.
  void mid_pass();
  /// Reference-host seconds per host second over the sampled span: each
  /// interval between samples weighted by its length.
  [[nodiscard]] double speed() const;
  /// Host seconds spent sampling after the first sample (to leave out of
  /// the pass's own time).
  [[nodiscard]] double overhead_s() const { return overhead_s_; }

 private:
  struct Sample {
    Clock::time_point start;
    Clock::time_point end;
    double kernel_s = 0.0;  ///< mean host seconds of one kernel run
  };
  double first_budget_;
  std::vector<Sample> samples_;
  double overhead_s_ = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run one pass.  `profile` and `spans` are null on untraced passes.  A
  /// pass samples host speed between its steps; its wall time leaves the
  /// sampling out.
  virtual void pass(PassStats& stats, SpanLog* spans, pcs::obs::EngineProfile* profile,
                    SpeedSampler& sampler) = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options,
                                                      const pcs::util::Json& pins);

/// Record scenarios/nighres.json (at the quick or the full instance count)
/// into `data_dir` and write the replay scenario beside the log: the
/// nighres_replay input.
void prepare_nighres(const std::string& root, const std::string& data_dir, bool quick);

/// Page-cache probe figures, ns per operation.
struct ProbeResult {
  double lru_ns_per_op = 0.0;
  double io_ns_per_chunk = 0.0;
};

/// Drive LruList with the block operations of `traffic`, and IOController
/// + MemoryManager in writeback mode over a bare Engine, sized to `blocks`
/// cached blocks and `traffic.files` files.
[[nodiscard]] ProbeResult run_pagecache_probe(const CacheTraffic& traffic, std::size_t blocks,
                                              std::uint64_t seed);

}  // namespace perfbench
