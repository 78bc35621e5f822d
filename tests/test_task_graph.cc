// TaskScheduler/TaskScope tests: every submitted task runs exactly
// once, dependencies order execution, the single-threaded scheduler is
// deterministic, cancellation drains to quiescence with zero leaked
// tasks, work stealing actually happens under a skewed queue, per-task
// budgets are visible to the running body, and a scope nested on a
// second scheduler hands its thread back to the outer one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/task_graph.h"

using lpo::kInvalidTask;
using lpo::TaskId;
using lpo::TaskScheduler;
using lpo::TaskScope;

namespace {

TaskScheduler::Options
options(unsigned threads, uint64_t seed = 42)
{
    TaskScheduler::Options o;
    o.num_threads = threads;
    o.steal_seed = seed;
    return o;
}

} // namespace

TEST(TaskGraphTest, RunsEveryTaskExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        TaskScheduler scheduler(options(threads));
        constexpr size_t kTasks = 500;
        std::vector<std::atomic<uint32_t>> hits(kTasks);
        {
            TaskScope scope(scheduler);
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

TEST(TaskGraphTest, DependenciesOrderExecution)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        TaskScheduler scheduler(options(threads));
        // A chain of 100 commits plus fan-in: commit i depends on
        // case i and commit i-1, the pipeline's exact shape.
        constexpr size_t kCases = 100;
        std::atomic<uint64_t> clock{0};
        std::vector<uint64_t> case_stamp(kCases), commit_stamp(kCases);
        TaskScope scope(scheduler);
        std::vector<TaskId> case_ids(kCases);
        for (size_t i = 0; i < kCases; ++i)
            case_ids[i] = scope.submit(
                [&, i] { case_stamp[i] = clock.fetch_add(1); });
        TaskId prev = kInvalidTask;
        for (size_t i = 0; i < kCases; ++i) {
            std::vector<TaskId> deps{case_ids[i]};
            if (prev != kInvalidTask)
                deps.push_back(prev);
            prev = scope.submit(
                [&, i] { commit_stamp[i] = clock.fetch_add(1); }, deps);
        }
        scope.wait();
        for (size_t i = 0; i < kCases; ++i) {
            EXPECT_GT(commit_stamp[i], case_stamp[i])
                << "commit " << i << " ran before its case, threads "
                << threads;
            if (i > 0)
                EXPECT_GT(commit_stamp[i], commit_stamp[i - 1])
                    << "commit chain out of order at " << i
                    << ", threads " << threads;
        }
    }
}

// With one thread the scheduler runs ready tasks in submission order —
// the reproducibility baseline the pipeline's determinism contract
// leans on. Two identical runs must produce the identical sequence.
TEST(TaskGraphTest, SerialExecutionIsDeterministic)
{
    std::vector<std::vector<int>> orders;
    for (int run = 0; run < 2; ++run) {
        TaskScheduler scheduler(options(1));
        TaskScope scope(scheduler);
        std::vector<int> order;
        // 0..4 independent, 5 joins {4, 3}, 6 hangs off 0.
        std::vector<TaskId> ids;
        for (int i = 0; i < 5; ++i)
            ids.push_back(
                scope.submit([&order, i] { order.push_back(i); }));
        scope.submit([&order] { order.push_back(5); },
                     {ids[4], ids[3]});
        scope.submit([&order] { order.push_back(6); }, {ids[0]});
        scope.wait();
        orders.push_back(std::move(order));
    }
    const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6};
    EXPECT_EQ(orders[0], expected);
    EXPECT_EQ(orders[1], expected);
}

// cancel() stops unstarted work and wait() still drains to
// quiescence: every submitted task is accounted run-or-cancelled, a
// running task observes the flag and finishes early, and nothing
// executes after wait() returns (no detached work survives the scope).
TEST(TaskGraphTest, CancellationDrainsToQuiescence)
{
    for (unsigned threads : {1u, 4u}) {
        TaskScheduler scheduler(options(threads));
        constexpr size_t kTasks = 200;
        std::atomic<uint64_t> ran{0};
        std::atomic<bool> after_wait{false};
        std::atomic<bool> saw_cancel{false};
        TaskScope scope(scheduler);
        // The canceller cancels the scope, then spins until it
        // observes its own cancellation flag — proving running tasks
        // see it. Everything else waits behind a gate that depends on
        // the canceller, so by the time any victim could start, the
        // scope is already cancelled: the whole gated subgraph must
        // drain as discarded, deterministically.
        TaskId canceller = scope.submit([&] {
            scope.cancel();
            const std::atomic<bool> *flag = scope.cancelFlag();
            for (int spin = 0; spin < 1'000'000; ++spin)
                if (flag->load(std::memory_order_relaxed)) {
                    saw_cancel.store(true);
                    break;
                }
        });
        TaskId gate = scope.submit([] {}, {canceller});
        for (size_t i = 0; i < kTasks; ++i)
            scope.submit(
                [&] {
                    ASSERT_FALSE(after_wait.load())
                        << "task executed after wait() returned";
                    ran.fetch_add(1);
                },
                {gate});
        scope.wait();
        after_wait.store(true);
        EXPECT_TRUE(saw_cancel.load());
        EXPECT_TRUE(scope.cancelled());
        // Quiescence accounting: every task finished as a run or a
        // cancellation — zero leaked; only the canceller ever ran.
        EXPECT_EQ(scope.stats().tasks_run + scope.stats().tasks_cancelled,
                  kTasks + 2)
            << "threads " << threads;
        EXPECT_EQ(scope.stats().tasks_cancelled, kTasks + 1)
            << "threads " << threads;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_EQ(ran.load(), 0u);
    }
}

// A cancelled dependency chain drains transitively: children of a
// discarded task are discarded, not stranded (wait() would hang
// otherwise, so completing at all is most of the assertion).
TEST(TaskGraphTest, CancelledChainDrainsTransitively)
{
    TaskScheduler scheduler(options(4));
    TaskScope scope(scheduler);
    std::atomic<uint64_t> ran{0};
    TaskId gate = scope.submit([&] {
        scope.cancel();
        ran.fetch_add(1);
    });
    // A 50-deep chain hanging off the cancelling task.
    TaskId prev = gate;
    for (int i = 0; i < 50; ++i)
        prev = scope.submit([&] { ran.fetch_add(1); }, {prev});
    scope.wait();
    EXPECT_EQ(ran.load(), 1u); // only the gate ran
    EXPECT_EQ(scope.stats().tasks_cancelled, 50u);
}

TEST(TaskGraphTest, ExceptionCancelsRemainderAndPropagates)
{
    for (unsigned threads : {1u, 4u}) {
        TaskScheduler scheduler(options(threads));
        constexpr size_t kTasks = 300;
        TaskScope scope(scheduler);
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
    TaskScheduler scheduler(options(4, /*seed=*/7));
    constexpr size_t kTasks = 400;
    std::atomic<uint64_t> ran{0};
    TaskScope scope(scheduler);
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

TEST(TaskGraphTest, PerTaskBudgetVisibleToBody)
{
    for (unsigned threads : {1u, 4u}) {
        TaskScheduler scheduler(options(threads));
        TaskScope scope(scheduler);
        std::atomic<uint64_t> seen_a{0}, seen_b{0}, seen_none{1};
        scope.submit(
            [&] { seen_a = TaskScheduler::currentTaskBudget(); }, {},
            2'000'000);
        scope.submit(
            [&] { seen_b = TaskScheduler::currentTaskBudget(); }, {},
            777);
        scope.submit(
            [&] { seen_none = TaskScheduler::currentTaskBudget(); });
        scope.wait();
        EXPECT_EQ(seen_a.load(), 2'000'000u) << "threads " << threads;
        EXPECT_EQ(seen_b.load(), 777u) << "threads " << threads;
        EXPECT_EQ(seen_none.load(), 0u) << "threads " << threads;
        EXPECT_EQ(TaskScheduler::currentTaskBudget(), 0u);
    }
}

// Tasks may submit follow-up tasks into their own scope (the
// streaming shape: discovery spawns work). All of it completes before
// wait() returns.
TEST(TaskGraphTest, TasksCanSubmitSubtasks)
{
    for (unsigned threads : {1u, 4u}) {
        TaskScheduler scheduler(options(threads));
        std::atomic<uint64_t> ran{0};
        TaskScope scope(scheduler);
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

// One active scope per scheduler, enforced loudly; sequential scopes
// reuse the scheduler (and its worker threads) cleanly.
TEST(TaskGraphTest, OneActiveScopePerScheduler)
{
    TaskScheduler scheduler(options(2));
    {
        TaskScope first(scheduler);
        first.submit([] {});
        EXPECT_THROW(TaskScope second(scheduler), std::logic_error);
        first.wait();
    }
    // After the first scope completes, a new one attaches fine.
    std::atomic<uint64_t> ran{0};
    TaskScope second(scheduler);
    for (int i = 0; i < 50; ++i)
        second.submit([&] { ran.fetch_add(1); });
    second.wait();
    EXPECT_EQ(ran.load(), 50u);
    // Scheduler-lifetime stats folded both scopes.
    EXPECT_GE(scheduler.stats().tasks_run, 51u);
}

TEST(TaskGraphTest, SubmitAfterWaitThrows)
{
    TaskScheduler scheduler(options(2));
    TaskScope scope(scheduler);
    scope.submit([] {});
    scope.wait();
    EXPECT_THROW(scope.submit([] {}), std::logic_error);
}

TEST(TaskGraphTest, DependencyOnLaterTaskThrows)
{
    TaskScheduler scheduler(options(1));
    TaskScope scope(scheduler);
    TaskId first = scope.submit([] {});
    EXPECT_THROW(scope.submit([] {}, {static_cast<TaskId>(first + 5)}),
                 std::logic_error);
    scope.wait();
}

// A task may open a scope on a second scheduler (the verifier's sweep
// does, inside pipeline case tasks). The outer graph must still run
// every task exactly once, and the outer task's budget must read the
// outer value again once the inner scope is done.
TEST(TaskGraphTest, NestedScopeOnSecondScheduler)
{
    for (unsigned outer_threads : {1u, 2u, 8u}) {
        for (unsigned inner_threads : {1u, 4u}) {
            TaskScheduler scheduler(options(outer_threads));
            constexpr size_t kOuter = 16, kInner = 8, kFollowUps = 3;
            std::vector<std::atomic<uint32_t>> hits(kOuter);
            std::atomic<uint64_t> inner_ran{0}, follow_ups{0};
            std::atomic<uint64_t> budget_mismatches{0};
            TaskScope scope(scheduler);
            for (size_t i = 0; i < kOuter; ++i) {
                const uint64_t budget = 1000 + i;
                scope.submit(
                    [&, i, budget] {
                        hits[i].fetch_add(1);
                        TaskScheduler inner(options(inner_threads));
                        TaskScope nested(inner);
                        for (size_t j = 0; j < kInner; ++j)
                            nested.submit(
                                [&] {
                                    if (TaskScheduler::currentTaskBudget() !=
                                        7)
                                        budget_mismatches.fetch_add(1);
                                    inner_ran.fetch_add(1);
                                },
                                {}, 7);
                        nested.wait();
                        if (TaskScheduler::currentTaskBudget() != budget)
                            budget_mismatches.fetch_add(1);
                        for (size_t k = 0; k < kFollowUps; ++k)
                            scope.submit([&] { follow_ups.fetch_add(1); });
                    },
                    {}, budget);
            }
            scope.wait();
            for (size_t i = 0; i < kOuter; ++i)
                ASSERT_EQ(hits[i].load(), 1u)
                    << "task " << i << " outer " << outer_threads
                    << " inner " << inner_threads;
            EXPECT_EQ(inner_ran.load(), kOuter * kInner);
            EXPECT_EQ(follow_ups.load(), kOuter * kFollowUps);
            EXPECT_EQ(budget_mismatches.load(), 0u)
                << "outer " << outer_threads << " inner " << inner_threads;
            EXPECT_EQ(scope.stats().tasks_run, kOuter * (1 + kFollowUps));
            EXPECT_EQ(TaskScheduler::currentTaskBudget(), 0u);
        }
    }
}

// After a nested scope the thread is the outer scheduler's slot again,
// so its enqueues land on its own deque, not the overflow injector.
// The blocker holds the only other worker, so nothing is stolen while
// the follow-ups are pushed: the owner's deque must reach their count.
TEST(TaskGraphTest, NestedScopeHandsTheThreadBack)
{
    TaskScheduler scheduler(options(2));
    constexpr size_t kFollowUps = 50;
    std::atomic<bool> pushed{false};
    std::atomic<uint64_t> ran{0};
    TaskScope scope(scheduler);
    // Submitted first, so it sits at the top of slot 0's deque: the
    // worker steals it, while slot 0 pops the nesting task.
    scope.submit([&] {
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!pushed.load() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    scope.submit([&] {
        TaskScheduler inner(options(1));
        TaskScope nested(inner);
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
    EXPECT_GE(TaskScheduler::hardwareThreads(), 1u);
    TaskScheduler scheduler; // default: hardware threads
    EXPECT_EQ(scheduler.size(), TaskScheduler::hardwareThreads());
}
