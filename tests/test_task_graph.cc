// TaskScope tests: every submitted task runs exactly once, a
// one-thread scope runs tasks in submission order, cancellation drains
// to quiescence with zero leaked tasks, work stealing actually happens
// under a skewed queue, only the scope's members may submit, and a
// scope nested inside a task hands its thread back to the outer scope.
// The pipeline's in-order reorder drain on top of the scope is pinned
// in test_pipeline (PipelineOrderedCommit).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/task_graph.h"

using lpo::TaskScope;

TEST(TaskGraphTest, RunsEveryTaskExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        constexpr size_t kTasks = 500;
        std::vector<std::atomic<uint32_t>> hits(kTasks);
        {
            TaskScope scope(threads);
            for (size_t i = 0; i < kTasks; ++i)
                scope.submit([&hits, i] { hits[i].fetch_add(1); });
            scope.wait();
            EXPECT_EQ(scope.stats().tasks_run, kTasks)
                << "threads " << threads;
            EXPECT_EQ(scope.stats().tasks_cancelled, 0u);
        }
        for (size_t i = 0; i < kTasks; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "task " << i << " threads " << threads;
    }
}

// With one thread the scope runs tasks in submission order — the
// reproducibility baseline the pipeline's determinism contract and the
// verifier's lowest-index-first sweep lean on. Tasks submitted by a
// running task queue behind everything submitted before them.
TEST(TaskGraphTest, SerialExecutionFollowsSubmissionOrder)
{
    TaskScope scope(1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        scope.submit([&, i] {
            order.push_back(i);
            if (i == 1)
                scope.submit([&] { order.push_back(5); });
        });
    scope.wait();
    const std::vector<int> expected{0, 1, 2, 3, 4, 5};
    EXPECT_EQ(order, expected);
}

// cancel() stops unstarted work and wait() still drains to
// quiescence: every submitted task is accounted run-or-cancelled, a
// running task observes the flag, and nothing executes after wait()
// returns (no detached work survives the scope).
TEST(TaskGraphTest, CancellationDrainsToQuiescence)
{
    for (unsigned threads : {1u, 4u}) {
        constexpr size_t kTasks = 200;
        std::atomic<uint64_t> ran{0};
        std::atomic<bool> after_wait{false};
        std::atomic<bool> saw_cancel{false};
        TaskScope scope(threads);
        // The canceller cancels the scope, observes its own
        // cancellation flag — proving running tasks see it — and only
        // then submits the victims, so every one of them must drain as
        // discarded, deterministically.
        scope.submit([&] {
            scope.cancel();
            saw_cancel.store(scope.cancelFlag()->load());
            for (size_t i = 0; i < kTasks; ++i)
                scope.submit([&] {
                    ASSERT_FALSE(after_wait.load())
                        << "task executed after wait() returned";
                    ran.fetch_add(1);
                });
        });
        scope.wait();
        after_wait.store(true);
        EXPECT_TRUE(saw_cancel.load());
        EXPECT_TRUE(scope.cancelled());
        // Quiescence accounting: only the canceller ran, every victim
        // was cancelled — zero leaked.
        EXPECT_EQ(scope.stats().tasks_run, 1u) << "threads " << threads;
        EXPECT_EQ(scope.stats().tasks_cancelled, kTasks)
            << "threads " << threads;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_EQ(ran.load(), 0u);
    }
}

TEST(TaskGraphTest, ExceptionCancelsRemainderAndPropagates)
{
    for (unsigned threads : {1u, 4u}) {
        constexpr size_t kTasks = 300;
        TaskScope scope(threads);
        for (size_t i = 0; i < kTasks; ++i)
            scope.submit([i] {
                if (i == 7)
                    throw std::runtime_error("task seven dies");
            });
        try {
            scope.wait();
            FAIL() << "wait() swallowed the task exception, threads "
                   << threads;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task seven dies");
        }
        EXPECT_TRUE(scope.cancelled());
        EXPECT_EQ(scope.stats().tasks_run + scope.stats().tasks_cancelled,
                  kTasks)
            << "threads " << threads;
    }
}

// Skewed load: the scope owner floods its own deque while the tasks
// themselves sleep, so other workers can only get work by stealing.
TEST(TaskGraphTest, StealsOccurUnderSkewedQueues)
{
    constexpr size_t kTasks = 400;
    std::atomic<uint64_t> ran{0};
    TaskScope scope(4);
    for (size_t i = 0; i < kTasks; ++i)
        scope.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            ran.fetch_add(1);
        });
    scope.wait();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(scope.stats().tasks_run, kTasks);
    // All tasks were pushed to slot 0's deque; every task a worker
    // executed was necessarily stolen.
    EXPECT_GT(scope.stats().steal_attempts, 0u);
    EXPECT_GT(scope.stats().steals, 0u);
    EXPECT_GT(scope.stats().max_queue_depth, 1u);
}

// Tasks may submit follow-up tasks into their own scope (the
// streaming shape: discovery spawns work). All of it completes before
// wait() returns.
TEST(TaskGraphTest, TasksCanSubmitSubtasks)
{
    for (unsigned threads : {1u, 4u}) {
        std::atomic<uint64_t> ran{0};
        TaskScope scope(threads);
        for (int i = 0; i < 20; ++i)
            scope.submit([&] {
                ran.fetch_add(1);
                for (int j = 0; j < 5; ++j)
                    scope.submit([&] { ran.fetch_add(1); });
            });
        scope.wait();
        EXPECT_EQ(ran.load(), 20u + 20u * 5u) << "threads " << threads;
        EXPECT_EQ(scope.stats().tasks_run, 120u);
    }
}

TEST(TaskGraphTest, SubmitAfterWaitThrows)
{
    TaskScope scope(2);
    scope.submit([] {});
    scope.wait();
    EXPECT_THROW(scope.submit([] {}), std::logic_error);
}

// Every deque has exactly one pushing thread, so a thread that is
// neither the owner nor running one of the scope's tasks is refused.
TEST(TaskGraphTest, SubmitFromOutsideTheScopeThrows)
{
    for (unsigned threads : {1u, 2u}) {
        TaskScope scope(threads);
        bool threw = false;
        std::thread outsider([&] {
            try {
                scope.submit([] {});
            } catch (const std::logic_error &) {
                threw = true;
            }
        });
        outsider.join();
        EXPECT_TRUE(threw) << "threads " << threads;
        scope.wait();
        EXPECT_EQ(scope.stats().tasks_run, 0u);
    }
}

// A task may open a scope of its own (the verifier's sweep does,
// inside pipeline case tasks). The outer scope must still run every
// task exactly once, follow-ups submitted after the inner scope
// included.
TEST(TaskGraphTest, NestedScopes)
{
    for (unsigned outer_threads : {1u, 2u, 8u}) {
        for (unsigned inner_threads : {1u, 4u}) {
            constexpr size_t kOuter = 16, kInner = 8, kFollowUps = 3;
            std::vector<std::atomic<uint32_t>> hits(kOuter);
            std::atomic<uint64_t> inner_ran{0}, follow_ups{0};
            TaskScope scope(outer_threads);
            for (size_t i = 0; i < kOuter; ++i) {
                scope.submit([&, i] {
                    hits[i].fetch_add(1);
                    TaskScope nested(inner_threads);
                    for (size_t j = 0; j < kInner; ++j)
                        nested.submit([&] { inner_ran.fetch_add(1); });
                    nested.wait();
                    for (size_t k = 0; k < kFollowUps; ++k)
                        scope.submit([&] { follow_ups.fetch_add(1); });
                });
            }
            scope.wait();
            for (size_t i = 0; i < kOuter; ++i)
                ASSERT_EQ(hits[i].load(), 1u)
                    << "task " << i << " outer " << outer_threads
                    << " inner " << inner_threads;
            EXPECT_EQ(inner_ran.load(), kOuter * kInner);
            EXPECT_EQ(follow_ups.load(), kOuter * kFollowUps);
            EXPECT_EQ(scope.stats().tasks_run, kOuter * (1 + kFollowUps));
        }
    }
}

// After a nested scope the thread is the outer scope's slot again, so
// its submits land on its own deque (a submit from a non-member would
// throw). The blocker holds the only other worker, so nothing is
// stolen while the follow-ups are pushed: the owner's deque must reach
// their count.
TEST(TaskGraphTest, NestedScopeHandsTheThreadBack)
{
    constexpr size_t kFollowUps = 50;
    std::atomic<bool> pushed{false};
    std::atomic<uint64_t> ran{0};
    TaskScope scope(2);
    // Submitted first, so it sits at the top of slot 0's deque: the
    // worker steals it, while slot 0 pops the nesting task.
    scope.submit([&] {
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!pushed.load() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    scope.submit([&] {
        TaskScope nested(1);
        nested.submit([] {});
        nested.wait();
        for (size_t k = 0; k < kFollowUps; ++k)
            scope.submit([&] { ran.fetch_add(1); });
        pushed.store(true);
    });
    scope.wait();
    EXPECT_EQ(ran.load(), kFollowUps);
    EXPECT_GE(scope.stats().max_queue_depth, kFollowUps);
}

TEST(TaskGraphTest, HardwareThreadsNonZero)
{
    EXPECT_GE(TaskScope::hardwareThreads(), 1u);
    TaskScope scope(0); // 0 = hardware threads
    std::atomic<uint64_t> ran{0};
    for (int i = 0; i < 10; ++i)
        scope.submit([&] { ran.fetch_add(1); });
    scope.wait();
    EXPECT_EQ(ran.load(), 10u);
}
