// Coroutine task type for simulated actors.
//
// `sim::Task<T>` is a lazily-started coroutine.  Awaiting a Task starts it
// and transfers control (symmetric transfer); when the child finishes, the
// parent resumes with the child's value or exception.  A Task can also be
// handed to `Engine::spawn`, which resumes it from the event loop and keeps
// it alive until the simulation ends — that is how top-level simulated
// "processes" (the paper's application tasks, the Memory Manager's
// background flush thread, NFS daemons...) are expressed.
//
// Tasks are single-owner and single-awaiter: exactly one coroutine may
// co_await a given Task, which matches structured actor code and keeps the
// implementation free of reference counting.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <unordered_map>
#include <utility>

namespace pcs::sim {

template <typename T>
class Task;

namespace detail {

/// Liveness registry for Task coroutine frames (thread-local, like the
/// Engine itself).  Group cancellation destroys suspended frames outright,
/// but handles to them may still sit in the engine's ready queue, the timer
/// heap and the waiter deques of sync primitives; every wake path consults
/// this registry (frame address -> generation) before resuming.  The
/// generation counter makes a recycled frame address distinguishable from
/// the frame that died there.
struct FrameRegistry {
  std::unordered_map<void*, std::uint64_t> live;
  std::uint64_t next_gen = 1;
  static FrameRegistry& instance() {
    thread_local FrameRegistry registry;
    return registry;
  }
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  void* registered_frame_ = nullptr;

  void register_frame(void* address) {
    registered_frame_ = address;
    FrameRegistry& registry = FrameRegistry::instance();
    registry.live[address] = registry.next_gen++;
  }

  ~PromiseBase() {
    if (registered_frame_ != nullptr) FrameRegistry::instance().live.erase(registered_frame_);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      return promise.continuation ? promise.continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// Generation stamp of a live Task frame; 0 when the frame has been
/// destroyed (or was never a sim::Task frame).
[[nodiscard]] inline std::uint64_t frame_generation(std::coroutine_handle<> h) {
  const auto& live = detail::FrameRegistry::instance().live;
  const auto it = live.find(h.address());
  return it == live.end() ? 0 : it->second;
}

/// A coroutine handle plus the generation of the frame it pointed to when
/// captured.  Queues that may outlive their coroutines (ready queue, timer
/// heap, mutex/CV/semaphore waiter deques, activity waiters) store
/// FrameRefs and skip entries whose frame died — that is how cancellation
/// composes with every existing suspension point.
struct FrameRef {
  std::coroutine_handle<> handle{};
  std::uint64_t gen = 0;

  [[nodiscard]] static FrameRef capture(std::coroutine_handle<> h) {
    return FrameRef{h, frame_generation(h)};
  }
  [[nodiscard]] bool alive() const { return handle && frame_generation(handle) == gen; }
};

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      this->register_frame(h.address());
      return Task{h};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return handle_ == nullptr || handle_.done(); }

  // Awaiter interface (parent co_awaits this task).
  [[nodiscard]] bool await_ready() const noexcept { return handle_ == nullptr || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  T await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
    assert(promise.value.has_value() && "task finished without a value");
    return std::move(*promise.value);
  }

  /// Used by Engine::spawn to drive the root coroutine.
  [[nodiscard]] std::coroutine_handle<> raw_handle() const { return handle_; }
  /// Rethrows a stored exception after completion (Engine does this for roots).
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      this->register_frame(h.address());
      return Task{h};
    }
    void return_void() noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return handle_ == nullptr || handle_.done(); }

  [[nodiscard]] bool await_ready() const noexcept { return handle_ == nullptr || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
  }

  [[nodiscard]] std::coroutine_handle<> raw_handle() const { return handle_; }
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace pcs::sim
