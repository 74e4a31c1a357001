// Tests for the annotated synchronization wrappers (common/sync.h):
// mutual exclusion through Mutex/MutexLock, CondVar signaling, and the
// ticket-ordered Turnstile the commit pipeline serializes its validation
// and storage phases with.
// The concurrency cases are TSan targets (see .github/workflows/ci.yml).

#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace pqidx {
namespace {

TEST(SyncTest, MutexProvidesMutualExclusion) {
  Mutex mutex;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mutex);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIncrements);
}

TEST(SyncTest, MutexTryLockReportsContention) {
  Mutex mutex;
  mutex.Lock();
  EXPECT_FALSE(mutex.TryLock());
  mutex.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(SyncTest, MutexLockManualUnlockRelock) {
  // The group-commit leader drops the queue lock around the batch
  // commit and reacquires it to mark results; MutexLock::Unlock/Lock is
  // that window.
  Mutex mutex;
  MutexLock lock(&mutex);
  lock.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
  lock.Lock();
  EXPECT_FALSE(mutex.TryLock());
}

TEST(SyncTest, CondVarWakesWaiter) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread signaler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(&mutex);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mutex);
    while (!ready) cv.Wait(&mutex);
    EXPECT_TRUE(ready);
  }
  signaler.join();
}

TEST(SyncTest, TurnstileAdmitsTicketsInOrder) {
  // Threads arrive with shuffled start delays but must pass the
  // turnstile strictly by ticket -- the property the commit pipeline's
  // validation and storage phases rely on for WAL ordering.
  Turnstile turnstile;
  constexpr int kTickets = 8;
  Mutex order_mutex;
  std::vector<uint64_t> order;
  std::vector<std::thread> threads;
  threads.reserve(kTickets);
  for (int t = 0; t < kTickets; ++t) {
    threads.emplace_back([&, t] {
      // Later tickets tend to arrive first, forcing real waits.
      std::this_thread::sleep_for(
          std::chrono::milliseconds((kTickets - t) * 2));
      turnstile.Await(static_cast<uint64_t>(t));
      {
        MutexLock lock(&order_mutex);
        order.push_back(static_cast<uint64_t>(t));
      }
      turnstile.Finish();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(order.size(), static_cast<size_t>(kTickets));
  for (int t = 0; t < kTickets; ++t) {
    EXPECT_EQ(order[static_cast<size_t>(t)], static_cast<uint64_t>(t));
  }
}

TEST(SyncTest, TurnstilePipelinesDisjointPhases) {
  // Two turnstiles chained like the commit pipeline's validate/storage
  // phases: every ticket passes phase V before phase S, both in ticket
  // order, while different tickets overlap across phases.
  Turnstile validate;
  Turnstile storage;
  constexpr int kTickets = 6;
  std::atomic<int> validated{0};
  std::atomic<int> stored{0};
  std::vector<std::thread> threads;
  threads.reserve(kTickets);
  for (int t = 0; t < kTickets; ++t) {
    threads.emplace_back([&, t] {
      const auto ticket = static_cast<uint64_t>(t);
      validate.Await(ticket);
      EXPECT_EQ(validated.fetch_add(1), t);
      validate.Finish();
      storage.Await(ticket);
      // Storage order matches validation order, so everything this
      // ticket validated against has already committed.
      EXPECT_EQ(stored.fetch_add(1), t);
      EXPECT_GE(validated.load(), stored.load());
      storage.Finish();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(validated.load(), kTickets);
  EXPECT_EQ(stored.load(), kTickets);
}

}  // namespace
}  // namespace pqidx
