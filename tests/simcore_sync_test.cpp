#include "simcore/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace pcs::sim {
namespace {

TEST(Mutex, UncontendedLockIsImmediate) {
  Engine engine;
  Mutex mutex(engine);
  auto body = [&mutex](Engine& /*e*/) -> Task<> {
    co_await mutex.lock();
    EXPECT_TRUE(mutex.locked());
    mutex.unlock();
    EXPECT_FALSE(mutex.locked());
    co_return;
  };
  test::run_actor(engine, body(engine));
}

TEST(Mutex, ContendedLockWaitsForHolder) {
  Engine engine;
  Mutex mutex(engine);
  std::vector<std::string> order;
  auto holder = [&](Engine& e) -> Task<> {
    co_await mutex.lock();
    order.push_back("holder-acquired");
    co_await e.sleep(5.0);
    order.push_back("holder-releases");
    mutex.unlock();
  };
  auto waiter = [&](Engine& e) -> Task<> {
    co_await e.sleep(1.0);  // ensure the holder goes first
    co_await mutex.lock();
    order.push_back("waiter-acquired");
    EXPECT_DOUBLE_EQ(e.now(), 5.0);
    mutex.unlock();
  };
  engine.spawn("holder", holder(engine));
  engine.spawn("waiter", waiter(engine));
  engine.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "holder-acquired");
  EXPECT_EQ(order[1], "holder-releases");
  EXPECT_EQ(order[2], "waiter-acquired");
}

TEST(Mutex, FifoHandoff) {
  Engine engine;
  Mutex mutex(engine);
  std::vector<int> order;
  auto worker = [&](Engine& e, int id) -> Task<> {
    co_await e.sleep(0.1 * id);
    co_await mutex.lock();
    order.push_back(id);
    co_await e.sleep(1.0);
    mutex.unlock();
  };
  for (int i = 0; i < 4; ++i) engine.spawn("w" + std::to_string(i), worker(engine, i));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mutex, TryLock) {
  Engine engine;
  Mutex mutex(engine);
  EXPECT_TRUE(mutex.try_lock());
  EXPECT_FALSE(mutex.try_lock());
  mutex.unlock();
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(ConditionVariable, NotifyOneWakesOneWaiter) {
  Engine engine;
  Mutex mutex(engine);
  ConditionVariable cv(engine);
  int woken = 0;
  auto waiter = [&](Engine& e) -> Task<> {
    co_await mutex.lock();
    co_await cv.wait(mutex);
    ++woken;
    mutex.unlock();
    (void)e;
  };
  auto notifier = [&](Engine& e) -> Task<> {
    co_await e.sleep(1.0);
    cv.notify_one();
    co_await e.sleep(1.0);
    cv.notify_one();
  };
  engine.spawn("w1", waiter(engine));
  engine.spawn("w2", waiter(engine));
  engine.spawn("n", notifier(engine));
  engine.run();
  EXPECT_EQ(woken, 2);
}

TEST(ConditionVariable, NotifyAll) {
  Engine engine;
  Mutex mutex(engine);
  ConditionVariable cv(engine);
  int woken = 0;
  auto waiter = [&](Engine& e) -> Task<> {
    co_await mutex.lock();
    co_await cv.wait(mutex);
    ++woken;
    mutex.unlock();
    (void)e;
  };
  auto notifier = [&](Engine& e) -> Task<> {
    co_await e.sleep(2.0);
    cv.notify_all();
  };
  for (int i = 0; i < 5; ++i) engine.spawn("w" + std::to_string(i), waiter(engine));
  engine.spawn("n", notifier(engine));
  engine.run();
  EXPECT_EQ(woken, 5);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(ConditionVariable, WaitReleasesMutex) {
  Engine engine;
  Mutex mutex(engine);
  ConditionVariable cv(engine);
  bool other_got_lock = false;
  auto waiter = [&](Engine& e) -> Task<> {
    co_await mutex.lock();
    co_await cv.wait(mutex);  // must release the mutex while waiting
    mutex.unlock();
    (void)e;
  };
  auto other = [&](Engine& e) -> Task<> {
    co_await e.sleep(1.0);
    co_await mutex.lock();
    other_got_lock = true;
    mutex.unlock();
    cv.notify_one();
  };
  engine.spawn("waiter", waiter(engine));
  engine.spawn("other", other(engine));
  engine.run();
  EXPECT_TRUE(other_got_lock);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(engine, 2);
  int concurrent = 0;
  int peak = 0;
  auto worker = [&](Engine& e) -> Task<> {
    co_await sem.acquire();
    ++concurrent;
    peak = std::max(peak, concurrent);
    co_await e.sleep(1.0);
    --concurrent;
    sem.release();
  };
  for (int i = 0; i < 6; ++i) engine.spawn("w" + std::to_string(i), worker(engine));
  engine.run();
  EXPECT_EQ(peak, 2);
  // 6 workers, 2 at a time, 1 s each -> 3 s.
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrements) {
  Engine engine;
  Semaphore sem(engine, 0);
  sem.release();
  EXPECT_EQ(sem.available(), 1u);
}

}  // namespace
}  // namespace pcs::sim
