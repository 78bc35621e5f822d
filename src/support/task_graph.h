/**
 * @file
 * Work-stealing fork-join task scope: the one concurrency runtime. The
 * module pipeline fans its cases out on it, and the verifier's
 * concrete-testing sweep runs its input chunks on it.
 *
 * A fan-out over static chunks with hard phase barriers lets one
 * adversarial SAT query idle a worker's whole share of the module
 * while every other phase waits. A scope has no barriers: every
 * submitted task is independent and goes to the submitting thread's
 * own Chase-Lev-style deque (owner pushes and pops the bottom without
 * contention; thieves CAS the top), and idle workers steal from
 * randomized victims. One pathological task stalls only its own slot.
 *
 * Structure and determinism contract:
 *
 *  - A TaskScope owns its workers: the constructor spawns
 *    num_threads - 1 of them and makes the creating thread slot 0;
 *    wait() runs tasks on the caller alongside them until the scope is
 *    quiescent, then joins them. The scope is *structured*: wait()
 *    (and the destructor) returns only once every submitted task has
 *    either run to completion or been discarded by cancellation. No
 *    detached work survives the scope, so a scope cannot leak tasks,
 *    closures, or threads.
 *  - Tasks are submitted by the scope's members only: the owner, or a
 *    task running in the scope. Execution order is unspecified across
 *    threads; callers that need deterministic output funnel side
 *    effects through an in-order reorder drain, as
 *    Pipeline::processSequences does. With num_threads <= 1 no worker
 *    threads exist and wait() runs tasks on the caller in submission
 *    order — the reproducibility baseline.
 *  - cancel() marks the scope: tasks that have not started are
 *    discarded, running tasks see the scope's cancellation flag (wired
 *    into SatSolver::setInterrupt by the verification layer) and finish
 *    early at the next conflict boundary. wait() still drains to
 *    quiescence.
 *  - Scopes nest: a task may open a TaskScope of its own (the
 *    verifier's sweep does, inside pipeline case tasks). The inner
 *    scope borrows the calling thread as its slot 0 and hands it back
 *    on wait(), so the outer task's later submits still reach its own
 *    deque in the outer scope.
 *
 * An idle worker sweeps every other deque twice, each sweep starting
 * at a victim drawn from a per-worker xorshift stream seeded from a
 * constant and the worker index. Steal outcomes depend on timing,
 * which is why the scope's counters are telemetry, not part of any
 * pinned snapshot.
 */
#ifndef LPO_SUPPORT_TASK_GRAPH_H
#define LPO_SUPPORT_TASK_GRAPH_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lpo {

/** Folded scope counters; see the per-field comments. */
struct TaskGraphStats
{
    uint64_t tasks_run = 0;       ///< bodies executed to completion
    uint64_t tasks_cancelled = 0; ///< discarded before starting
    uint64_t steals = 0;          ///< successful steals
    uint64_t steal_attempts = 0;  ///< probes, successful or not
    uint64_t max_queue_depth = 0; ///< deepest any worker deque got
    uint64_t idle_ns = 0;         ///< summed worker wait time

    TaskGraphStats &operator+=(const TaskGraphStats &other)
    {
        tasks_run += other.tasks_run;
        tasks_cancelled += other.tasks_cancelled;
        steals += other.steals;
        steal_attempts += other.steal_attempts;
        if (other.max_queue_depth > max_queue_depth)
            max_queue_depth = other.max_queue_depth;
        idle_ns += other.idle_ns;
        return *this;
    }
};

class TaskScope
{
  public:
    /** Total parallelism counting the caller; 0 = hardware. */
    explicit TaskScope(unsigned num_threads);
    /** Drains to quiescence (implicit wait()). */
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

    /** std::thread::hardware_concurrency(), never zero. */
    static unsigned hardwareThreads();

    /**
     * Add a task. Only the scope's owner (before wait() returned) and
     * tasks running in this scope may submit; any other caller gets
     * std::logic_error.
     */
    void submit(std::function<void()> fn);

    /**
     * Cancel the scope: no not-yet-started task will run (each is
     * counted in tasks_cancelled instead), and running tasks can
     * observe cancelFlag() to finish early. Idempotent; safe from any
     * thread, including from inside a task.
     */
    void cancel();
    bool cancelled() const
    {
        return cancel_flag_.load(std::memory_order_relaxed);
    }
    /** Stable address for cooperative-cancellation wiring (e.g.
     *  SatSolver::setInterrupt). */
    const std::atomic<bool> *cancelFlag() const { return &cancel_flag_; }

    /**
     * Run tasks on the calling thread alongside the workers until the
     * scope is quiescent: every submitted task completed or was
     * discarded by cancellation. Joins the workers, then rethrows the
     * first captured task exception (by completion order); the
     * remaining tasks are cancelled, never leaked.
     */
    void wait();

    /** Counters for this scope (valid after wait()). */
    const TaskGraphStats &stats() const { return stats_; }

  private:
    using Task = std::function<void()>;
    class Deque;
    struct Worker;

    void workerLoop(unsigned index);
    /** Run one task from slot @p index's deque or a stolen one;
     *  false when none was found. */
    bool runOneTask(unsigned index);
    /** Sleep until new work may have arrived (timed, so a lost
     *  notification costs a millisecond, never a deadlock). False,
     *  without sleeping, once the participant should leave: the owner
     *  at quiescence, a worker once wait() has stopped the scope. */
    bool idle(Worker &self, bool owner);

    unsigned num_threads_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    bool stop_ = false;               // guarded by mutex_
    std::exception_ptr first_error_;  // guarded by mutex_
    std::atomic<bool> cancel_flag_{false};
    /** Tasks not yet finished (completed or discarded). */
    std::atomic<int64_t> unfinished_{0};
    bool waited_ = false;
    /** The creating thread's scope slot before this scope claimed it
     *  (null/0 outside any scope); restored by wait(). */
    TaskScope *outer_scope_ = nullptr;
    unsigned outer_worker_ = 0;
    TaskGraphStats stats_;
    /** Slots 1..n-1; declared last, after everything they use. */
    std::vector<std::thread> threads_;
};

} // namespace lpo

#endif // LPO_SUPPORT_TASK_GRAPH_H
