#include "simcore/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/profiler.hpp"
#include "simcore/trace.hpp"
#include "util/log.hpp"

namespace pcs::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Rate assigned to activities not constrained by any resource or bound;
// large enough that any realistic work amount finishes "instantly" yet
// finite so that time arithmetic stays well-defined.
constexpr double kUnconstrainedRate = 1e30;
}  // namespace

bool SleepAwaiter::await_ready() const noexcept { return wake_time_ <= engine_.now(); }

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  engine_.schedule_at(wake_time_, h);
}

Engine::Engine() : arena_(std::make_shared<ActivityArena>()) {
  arena_->engine = this;
  util::Logger::instance().set_clock([this] { return now_; });
}

Engine::~Engine() {
  // Detach surviving activities (daemon-owned work abandoned at run() exit,
  // or detached ActivityRefs the caller still holds): materialize their
  // progress and clear the arena's engine back-pointer so remaining() stays
  // safe after the engine is gone.  The arena itself is shared_ptr-owned,
  // so outstanding handles keep the storage alive.
  for (ActivitySlot slot : running_) sync_remaining(slot);
  arena_->engine = nullptr;
  util::Logger::instance().clear_clock();
}

void Resource::set_capacity(double capacity) {
  capacity_ = capacity;
  if (engine_ != nullptr) {
    engine_->mark_resource_dirty(this);
    engine_->solve_if_per_event();
  }
}

Resource* Engine::new_resource(std::string name, double capacity) {
  resources_.push_back(std::make_unique<Resource>(std::move(name), capacity));
  resources_.back()->engine_ = this;
  return resources_.back().get();
}

void Engine::mark_resource_dirty(Resource* resource) {
  if (!resource->dirty_queued_) {
    resource->dirty_queued_ = true;
    dirty_resources_.push_back(resource);
  }
}

ActivityAwaiter Engine::submit(std::string label, std::vector<Claim> claims, double amount,
                               double bound) {
  return ActivityAwaiter{submit_detached(std::move(label), std::move(claims), amount, bound)};
}

ActivityPtr Engine::submit_detached(std::string label, std::vector<Claim> claims, double amount,
                                    double bound) {
  // The paper's flush/evict "when called with negative arguments, simply
  // return and do not do anything"; zero-work activities likewise complete
  // immediately without a scheduling point.
  ActivityArena& a = *arena_;
  const ActivitySlot slot =
      a.alloc(next_id_++, std::move(label), std::move(claims), amount, bound, now_);
  if (amount <= 0.0) {
    a.remaining[slot] = 0.0;
    a.done[slot] = 1;
    a.cold[slot].end_time = now_;
    return ActivityPtr{arena_, slot};
  }
  a.run_index[slot] = static_cast<std::uint32_t>(running_.size());
  running_.push_back(slot);
  if (a.cold[slot].claims.empty()) {
    // A claimless activity is its own fair-share component: its rate is its
    // bound (or the unconstrained rate) and never changes, so the solver
    // needn't see it.  Matches the progressive-filling terminal branch.
    a.rate[slot] = std::isfinite(a.bound[slot]) ? a.bound[slot] : kUnconstrainedRate;
    update_completion(slot);
  } else {
    register_claims(slot);
    solve_if_per_event();
  }
  util::log_trace("engine", "start activity '", a.cold[slot].label, "' amount=", amount);
  return ActivityPtr{arena_, slot};
}

void Engine::register_claims(ActivitySlot slot) {
  std::vector<Claim>& claims = arena_->cold[slot].claims;
  for (std::size_t i = 0; i < claims.size(); ++i) {
    Claim& claim = claims[i];
    assert(claim.resource != nullptr && "activity claim without a resource");
    claim.slot_ = claim.resource->incumbents_.size();
    claim.resource->incumbents_.emplace_back(slot, static_cast<std::uint32_t>(i));
    mark_resource_dirty(claim.resource);
  }
}

void Engine::deregister_claims(ActivitySlot slot) {
  for (Claim& claim : arena_->cold[slot].claims) {
    Resource* r = claim.resource;
    mark_resource_dirty(r);
    auto& incumbents = r->incumbents_;
    const std::size_t pos = claim.slot_;
    assert(pos < incumbents.size() && incumbents[pos].first == slot);
    incumbents[pos] = incumbents.back();
    incumbents.pop_back();
    if (pos < incumbents.size()) {
      auto [moved_slot, moved_claim] = incumbents[pos];
      arena_->cold[moved_slot].claims[moved_claim].slot_ = pos;
    }
  }
}

Task<> Engine::root_guard(Task<> inner) {
  // The guard is a frame local: it fires when the body finishes normally,
  // when the inner task's exception unwinds through it, and when the frame
  // is destroyed at a suspend point (engine teardown with pending actors).
  struct Guard {
    std::size_t* live;
    ~Guard() { --*live; }
  } guard{&live_roots_};
  co_await inner;
}

void Engine::spawn(std::string name, Task<> task, bool daemon, std::string group) {
  if (!task.raw_handle()) throw SimulationError("spawn: empty task for actor '" + name + "'");
  if (!daemon) {
    ++live_roots_;
    task = root_guard(std::move(task));
  }
  std::coroutine_handle<> h = task.raw_handle();
  roots_.push_back(RootActor{std::move(name), std::move(task), daemon, std::move(group)});
  schedule(h);
}

std::size_t Engine::cancel_group(const std::string& group) {
  if (group.empty()) throw SimulationError("cancel_group: empty group name");
  std::size_t marked = 0;
  for (RootActor& root : roots_) {
    if (root.group != group || !root.task.valid() || root.task.done()) continue;
    root.cancel_pending = true;
    ++marked;
  }
  if (marked > 0) cancellations_pending_ = true;
  return marked;
}

void Engine::process_pending_cancellations() {
  if (!cancellations_pending_) return;
  cancellations_pending_ = false;
  // Reverse spawn order: actors spawned by other actors of the same group
  // (executor -> per-task workers) die before their spawners, so frame
  // locals a later actor borrowed from an earlier one are still alive while
  // its destructors run — the same inside-out order structured teardown
  // would use.
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    RootActor& root = *it;
    if (!root.cancel_pending) continue;
    root.cancel_pending = false;
    if (!root.task.valid() || root.task.done()) continue;
    util::log_trace("engine", "cancel actor '", root.name, "'");
    root.task = Task<>{};  // destroys the suspended frame chain
  }
  // Activities whose awaiting actor died have nobody left to resume: retire
  // them so the crashed host's in-flight IO and compute stop consuming
  // resource shares.  Ascending id keeps the sweep deterministic.
  orphan_scratch_.clear();
  for (ActivitySlot slot : running_) {
    const FrameRef& waiter = arena_->cold[slot].waiter;
    if (waiter.handle && !waiter.alive()) orphan_scratch_.push_back(slot);
  }
  std::sort(orphan_scratch_.begin(), orphan_scratch_.end(),
            [this](ActivitySlot x, ActivitySlot y) { return arena_->id[x] < arena_->id[y]; });
  for (ActivitySlot slot : orphan_scratch_) cancel_activity(slot);
  orphan_scratch_.clear();
}

void Engine::schedule_at(double t, std::coroutine_handle<> h) {
  if (t < now_) t = now_;
  timers_.push(Timer{t, next_id_++, FrameRef::capture(h)});
}

bool Engine::all_actors_done() const {
#ifdef PCS_DEBUG_INVARIANTS
  const bool scan = std::all_of(roots_.begin(), roots_.end(),
                                [](const RootActor& r) { return r.daemon || r.task.done(); });
  assert(scan == (live_roots_ == 0) && "live-root counter diverged from the root scan");
#endif
  return live_roots_ == 0;
}

std::size_t Engine::drain_ready() {
  // Dispatch = resuming every ready coroutine; with the solver sections
  // timed separately this is where the rest of the engine's wall time goes.
  obs::ScopedTimer dispatch_timer(profiler_ != nullptr ? &profiler_->dispatch : nullptr);
  std::size_t resumed = 0;
  // Cancellations are processed only here, between resumptions, when no
  // coroutine is mid-execution — destroying a frame that is on the native
  // call stack would be undefined behaviour.
  process_pending_cancellations();
  while (!ready_.empty()) {
    const FrameRef ref = ready_.front();
    ready_.pop_front();
    if (!ref.alive()) continue;  // frame destroyed by cancellation
    ++resumed;
    if (!ref.handle.done()) ref.handle.resume();
    process_pending_cancellations();
  }
  return resumed;
}

void Engine::sync_remaining(ActivitySlot slot) {
  ActivityArena& a = *arena_;
  if (a.last_update[slot] >= now_) return;
  if (a.rate[slot] > 0.0) {
    a.remaining[slot] -= a.rate[slot] * (now_ - a.last_update[slot]);
    if (a.remaining[slot] < 0.0) a.remaining[slot] = 0.0;
  }
  a.last_update[slot] = now_;
}

void Engine::update_completion(ActivitySlot slot) {
  ActivityArena& a = *arena_;
  ++a.version[slot];
  a.completion_time[slot] =
      a.rate[slot] > 0.0 ? now_ + a.remaining[slot] / a.rate[slot] : kInf;
  if (a.completion_time[slot] < kInf) {
    completions_.push(
        CompletionEntry{a.completion_time[slot], a.id[slot], a.version[slot], slot});
  }
}

double Engine::heap_top_time() {
  const ActivityArena& a = *arena_;
  while (!completions_.empty()) {
    const CompletionEntry& e = completions_.top();
    // Stale if the activity finished or was re-solved since the push.  A
    // recycled slot can never alias: the per-slot version is monotone
    // across reuses, so entries of a previous incarnation stay stale.
    if (a.done[e.slot] || e.version != a.version[e.slot]) {
      completions_.pop();
      continue;
    }
    return e.time;
  }
  return kInf;
}

void Engine::recompute_rates() {
  // Enumerate the dirty connected components of the incumbency graph
  // (resource -> claiming activities -> their other resources), one BFS per
  // still-unvisited dirty seed.  Everything outside keeps its rate,
  // remaining amount and completion entry untouched.
  obs::ScopedTimer total_timer(profiler_ != nullptr ? &profiler_->recompute_rates : nullptr);
  ActivityArena& arena = *arena_;
  ++visit_mark_;
  ++solves_;
  component_count_ = 0;
  {
    obs::ScopedTimer bfs_timer(profiler_ != nullptr ? &profiler_->bfs : nullptr);
    for (Resource* seed : dirty_resources_) {
      seed->dirty_queued_ = false;
      if (seed->visit_mark_ == visit_mark_) continue;  // merged into an earlier seed
      seed->visit_mark_ = visit_mark_;
      if (component_count_ == components_.size()) components_.emplace_back();
      std::vector<ActivitySlot>& acts = components_[component_count_];
      acts.clear();
      bfs_stack_.clear();
      bfs_stack_.push_back(seed);
      while (!bfs_stack_.empty()) {
        Resource* r = bfs_stack_.back();
        bfs_stack_.pop_back();
        for (const auto& [slot, claim_idx] : r->incumbents_) {
          (void)claim_idx;
          if (arena.visit_mark[slot] == visit_mark_) continue;
          arena.visit_mark[slot] = visit_mark_;
          acts.push_back(slot);
          for (const Claim& claim : arena.cold[slot].claims) {
            if (claim.resource->visit_mark_ != visit_mark_) {
              claim.resource->visit_mark_ = visit_mark_;
              bfs_stack_.push_back(claim.resource);
            }
          }
        }
      }
      if (!acts.empty()) ++component_count_;  // idle components (no incumbents) are dropped
    }
    dirty_resources_.clear();
  }
  components_solved_ += component_count_;

  if (component_count_ > 0) {
    {
      obs::ScopedTimer solve_timer(profiler_ != nullptr ? &profiler_->solve : nullptr);
      for (std::size_t i = 0; i < component_count_; ++i) {
        // Canonical order: ascending id = submission order, the same
        // relative order a full solve over `running_` would visit.  This
        // keeps tie-breaks — and therefore floating-point operation order —
        // bit-identical to the full solve.
        std::vector<ActivitySlot>& acts = components_[i];
        std::sort(acts.begin(), acts.end(), [&arena](ActivitySlot x, ActivitySlot y) {
          return arena.id[x] < arena.id[y];
        });
        for (ActivitySlot slot : acts) sync_remaining(slot);
        solve_subset(acts);
      }
    }

    // Push the new completion times.  Component order does not matter: the
    // heap orders entries by (time, id), stale entries are dropped by
    // version, and step() re-sorts each completed batch by id.
    obs::ScopedTimer merge_timer(profiler_ != nullptr ? &profiler_->merge : nullptr);
    for (std::size_t i = 0; i < component_count_; ++i) {
      for (ActivitySlot slot : components_[i]) update_completion(slot);
    }
  }

  if (cross_check_) verify_full_solve();
}

void Engine::solve_subset(const std::vector<ActivitySlot>& acts) {
  ActivityArena& arena = *arena_;
  std::vector<Resource*>& used_scratch = solve_scratch_;
  used_scratch.clear();
  for (ActivitySlot s : acts) {
    arena.scratch_assigned[s] = 0;
    for (const Claim& claim : arena.cold[s].claims) {
      Resource* r = claim.resource;
      if (!r->scratch_active_) {
        r->scratch_active_ = true;
        r->scratch_capacity_ = r->capacity_;
        r->scratch_weight_ = 0.0;
        used_scratch.push_back(r);
      }
      r->scratch_weight_ += claim.weight;
    }
  }

  // Progressive filling: repeatedly find the binding constraint (the
  // resource with the smallest fair share, or an activity whose own bound
  // is smaller), fix the rate of the activities it pins, subtract their
  // consumption everywhere, repeat.
  std::size_t unassigned = acts.size();
  while (unassigned > 0) {
    double best = kInf;
    Resource* best_resource = nullptr;
    ActivitySlot best_bounded = kNoActivity;
    for (Resource* r : used_scratch) {
      if (r->scratch_weight_ <= 0.0) continue;
      double fair = r->scratch_capacity_ / r->scratch_weight_;
      if (fair < best) {
        best = fair;
        best_resource = r;
        best_bounded = kNoActivity;
      }
    }
    for (ActivitySlot s : acts) {
      if (arena.scratch_assigned[s]) continue;
      if (arena.bound[s] < best) {
        best = arena.bound[s];
        best_bounded = s;
        best_resource = nullptr;
      }
    }

    if (best_resource == nullptr && best_bounded == kNoActivity) {
      // Remaining activities have no claims and no finite bound.
      for (ActivitySlot s : acts) {
        if (!arena.scratch_assigned[s]) {
          arena.rate[s] = kUnconstrainedRate;
          arena.scratch_assigned[s] = 1;
          --unassigned;
        }
      }
      break;
    }

    auto consume = [&arena](ActivitySlot s, double rate_val) {
      for (const Claim& claim : arena.cold[s].claims) {
        Resource* r = claim.resource;
        r->scratch_capacity_ = std::max(0.0, r->scratch_capacity_ - rate_val * claim.weight);
        r->scratch_weight_ -= claim.weight;
      }
    };

    if (best_bounded != kNoActivity) {
      arena.rate[best_bounded] = arena.bound[best_bounded];
      arena.scratch_assigned[best_bounded] = 1;
      consume(best_bounded, arena.rate[best_bounded]);
      --unassigned;
    } else {
      for (ActivitySlot s : acts) {
        if (arena.scratch_assigned[s]) continue;
        const std::vector<Claim>& claims = arena.cold[s].claims;
        bool uses = std::any_of(claims.begin(), claims.end(),
                                [&](const Claim& c) { return c.resource == best_resource; });
        if (!uses) continue;
        arena.rate[s] = best;
        arena.scratch_assigned[s] = 1;
        consume(s, best);
        --unassigned;
      }
      best_resource->scratch_weight_ = 0.0;  // numerically retire this resource
    }
  }

  for (Resource* r : used_scratch) r->scratch_active_ = false;
}

void Engine::verify_full_solve() {
  // Debug cross-check: the incremental solver must agree bit-for-bit with a
  // full progressive-filling solve over every running activity.
  ActivityArena& arena = *arena_;
  std::vector<ActivitySlot>& all = full_solve_scratch_;
  all.clear();
  all.reserve(running_.size());
  for (ActivitySlot slot : running_) all.push_back(slot);
  std::sort(all.begin(), all.end(),
            [&arena](ActivitySlot x, ActivitySlot y) { return arena.id[x] < arena.id[y]; });

  // Save incremental rates, run the full solve, compare, restore.
  for (ActivitySlot slot : all) arena.scratch_check_rate[slot] = arena.rate[slot];
  solve_subset(all);
  for (ActivitySlot slot : all) {
    const double full_rate = arena.rate[slot];
    arena.rate[slot] = arena.scratch_check_rate[slot];
    if (full_rate != arena.scratch_check_rate[slot]) {
      throw SimulationError("incremental solver diverged from full solve for activity '" +
                            arena.cold[slot].label + "': incremental " +
                            std::to_string(arena.scratch_check_rate[slot]) + " vs full " +
                            std::to_string(full_rate));
    }
  }
}

void Engine::cancel_activity(ActivitySlot slot) {
  // Unlike completion, the work is abandoned part-way: materialize progress
  // (remaining() keeps reporting how much was left), stop the clock, free
  // the resource shares, wake nobody.
  sync_remaining(slot);
  ActivityArena& a = *arena_;
  a.done[slot] = 1;
  a.cold[slot].end_time = now_;
  a.rate[slot] = 0.0;
  ++a.version[slot];  // drop any still-queued completion entry
  deregister_claims(slot);

  const std::size_t idx = a.run_index[slot];
  assert(idx < running_.size() && running_[idx] == slot);
  if (idx + 1 != running_.size()) {
    running_[idx] = running_.back();
    a.run_index[running_[idx]] = static_cast<std::uint32_t>(idx);
  }
  running_.pop_back();

  a.cold[slot].waiter = FrameRef{};
  ++cancelled_activities_;
  util::log_trace("engine", "cancel activity '", a.cold[slot].label, "'");
  solve_if_per_event();
  // No waiter and no external handle => nobody can observe the slot again.
  a.retire_if_unreferenced(slot);
}

void Engine::complete_activity(ActivitySlot slot) {
  ActivityArena& a = *arena_;
  a.remaining[slot] = 0.0;
  a.last_update[slot] = now_;
  a.done[slot] = 1;
  a.cold[slot].end_time = now_;
  a.rate[slot] = 0.0;
  ++a.version[slot];  // drop any still-queued completion entry
  deregister_claims(slot);

  // Swap-remove from the running set.
  const std::size_t idx = a.run_index[slot];
  assert(idx < running_.size() && running_[idx] == slot);
  if (idx + 1 != running_.size()) {
    running_[idx] = running_.back();
    a.run_index[running_[idx]] = static_cast<std::uint32_t>(idx);
  }
  running_.pop_back();

  if (tracer_ != nullptr) tracer_->record(a.cold[slot].label, a.cold[slot].start_time, now_);
  util::log_trace("engine", "complete activity '", a.cold[slot].label, "'");
  if (a.cold[slot].waiter.handle) {
    schedule(a.cold[slot].waiter);
    a.cold[slot].waiter = FrameRef{};
  }
  // Per-event reference mode: this completion's freed capacity is re-shared
  // before the next event is even looked at — one solve per event, the
  // eager flow-level model.  Batched mode leaves the dirty set to
  // accumulate until the whole timestamp has been drained.
  solve_if_per_event();
  // The waiter (if any) is woken by FrameRef, not by slot: once no external
  // handle remains the slot can recycle immediately.
  a.retire_if_unreferenced(slot);
}

void Engine::step(double time_limit) {
  bool check_actors = true;
  while (true) {
    if (drain_ready() > 0) check_actors = true;
    if (check_actors) {
      if (all_actors_done()) return;
      check_actors = false;  // can only change after a coroutine resumes
    }
    // The timestamp batch closes here: every completion, timer and actor
    // resumption at the current virtual time has run (and the submissions
    // they made are registered), so one solve covers the whole batch.  In
    // per-event mode the solves already happened eagerly and this is a
    // no-op catch-all.
    if (!dirty_resources_.empty()) recompute_rates();

    double t_act = heap_top_time();
    double t_timer = timers_.empty() ? kInf : timers_.top().time;
    double t_next = std::min(t_act, t_timer);
    if (t_next == kInf) return;  // no event source left; caller decides if deadlock
    if (t_next > time_limit) {
      // Idle activities advance lazily; moving the clock is all that's
      // needed (remaining() projects through last_update_).
      now_ = time_limit;
      return;
    }

    now_ = t_next;
    ++scheduling_points_;
    const double tol = 1e-9 * (1.0 + std::fabs(t_next));
    if (std::fabs(t_next - last_sp_time_) <= tol) ++same_time_points_;
    last_sp_time_ = t_next;

    // Activities whose completion lands at this scheduling point (within
    // relative tolerance, so simultaneous finishes stay simultaneous),
    // completed in submission order — the same order the former full scan
    // over `running_` used.  Only the newest heap entry of a slot passes
    // the version check, so the batch holds each activity at most once.
    completed_scratch_.clear();
    {
      ActivityArena& a = *arena_;
      while (!completions_.empty()) {
        const CompletionEntry& e = completions_.top();
        if (a.done[e.slot] || e.version != a.version[e.slot]) {
          completions_.pop();
          continue;
        }
        if (e.time > t_next + tol) break;
        completed_scratch_.push_back(e.slot);
        completions_.pop();
      }
      std::sort(completed_scratch_.begin(), completed_scratch_.end(),
                [&a](ActivitySlot x, ActivitySlot y) { return a.id[x] < a.id[y]; });
    }
    for (ActivitySlot slot : completed_scratch_) complete_activity(slot);
    completed_scratch_.clear();

    while (!timers_.empty() && timers_.top().time <= now_ + tol) {
      // The stored FrameRef (not a re-capture): a timer armed by a frame
      // that has since been cancelled must not fire into whatever coroutine
      // now occupies the recycled address.
      schedule(timers_.top().ref);
      timers_.pop();
    }
  }
}

void Engine::run() {
  if (running_loop_) throw SimulationError("Engine::run is not reentrant");
  running_loop_ = true;
  step(kInf);
  running_loop_ = false;

  for (const RootActor& root : roots_) root.task.rethrow_if_failed();
  if (!all_actors_done()) {
    std::string stuck;
    for (const RootActor& root : roots_) {
      if (!root.daemon && !root.task.done()) {
        if (!stuck.empty()) stuck += ", ";
        stuck += root.name;
      }
    }
    throw SimulationError("deadlock: no pending event but actors are blocked: " + stuck);
  }
}

void Engine::run_until(double t) {
  if (running_loop_) throw SimulationError("Engine::run_until is not reentrant");
  running_loop_ = true;
  step(t);
  if (now_ < t && ready_.empty() && timers_.empty() && running_.empty()) now_ = t;
  running_loop_ = false;
  for (const RootActor& root : roots_) root.task.rethrow_if_failed();
}

}  // namespace pcs::sim
