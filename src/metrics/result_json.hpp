// The JSON projection of a scenario run — what experiment series extract
// from.  Everything in it is a *simulated* quantity: per-task phase
// timings, cache profiles/final state, engine counters, makespan.  Host
// wall-clock is deliberately absent, which is what keeps experiment reports
// byte-identical for any --jobs value (perfbench measures wall-clock time
// separately).
#pragma once

#include "scenario/run_result.hpp"
#include "util/json.hpp"

namespace pcs::metrics {

/// One cache snapshot as an object: {time, total, free, used, cached,
/// dirty, anonymous, inactive, active, per_file:{name: bytes}}.
[[nodiscard]] util::Json snapshot_to_json(const cache::CacheSnapshot& snapshot);

/// Full projection:
///   makespan, scheduling_points, fair_share_solves, same_time_points,
///   task_count, mean_instance_read_time, mean_instance_write_time,
///   final_active_blocks, final_inactive_blocks,
///   completed_tasks, failed_tasks, retried_tasks, disruptions_fired,
///   useful_task_seconds, wasted_attempt_seconds, availability,
///   goodput_tasks_per_hour,
///   tasks: {name: {start, read_start, read_end, compute_end, write_end,
///                  end, read_time, compute_time, write_time, makespan}},
///   final_state: snapshot, profile: [snapshot...]
[[nodiscard]] util::Json result_to_json(const scenario::RunResult& result);

}  // namespace pcs::metrics
