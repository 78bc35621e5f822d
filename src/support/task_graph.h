/**
 * @file
 * Work-stealing streaming task-graph scheduler: the one concurrency
 * runtime. The module pipeline fans its cases out on it, and the
 * verifier's concrete-testing sweep runs its input chunks on it.
 *
 * A fan-out over static chunks with hard phase barriers lets one
 * adversarial SAT query idle a worker's whole share of the module
 * while every other phase waits. This scheduler has no barriers, only
 * a dependency graph: tasks become ready when their dependency count
 * reaches zero, ready tasks go to the enqueuing worker's own
 * Chase-Lev-style deque (owner pushes and pops the bottom without
 * contention; thieves CAS the top), and idle workers steal from
 * deterministically seeded randomized victims. One pathological task
 * stalls only the chain behind it.
 *
 * Structure and determinism contract:
 *
 *  - Tasks are submitted into a TaskScope. The scope is *structured*:
 *    TaskScope::wait() (and the destructor) returns only at
 *    quiescence — every submitted task has either run to completion
 *    or been discarded by cancellation. No detached work survives the
 *    scope, so a scope cannot leak tasks, closures, or threads.
 *  - Execution order is unspecified across threads; callers that need
 *    deterministic output must funnel side effects through an ordered
 *    chain of commit tasks (task i+1 depends on task i), exactly as
 *    Pipeline::processSequences does. With num_threads <= 1 no worker
 *    threads exist and wait() runs tasks on the caller in dependency
 *    order — the reproducibility baseline.
 *  - cancel() marks the scope: tasks that have not started are
 *    discarded (their dependents too), running tasks see the scope's
 *    cancellation flag (wired into SatSolver::setInterrupt by the
 *    verification layer) and finish early at the next conflict
 *    boundary. wait() still drains to quiescence.
 *  - Scopes nest across schedulers: a task may open a TaskScope on a
 *    second scheduler (the verifier's sweep does, inside pipeline case
 *    tasks). The inner scope borrows the calling thread as its slot 0
 *    and hands it back on wait(), so the outer task's later enqueues
 *    still reach its own deque.
 *
 * An idle worker sweeps every other deque twice, each sweep starting
 * at a victim drawn from a per-worker xorshift stream seeded from
 * (options.steal_seed, worker index), so two runs of the same build
 * probe victims in the same order; actual steal outcomes still depend
 * on timing, which is why the scheduler's counters are telemetry, not
 * part of any pinned snapshot.
 */
#ifndef LPO_SUPPORT_TASK_GRAPH_H
#define LPO_SUPPORT_TASK_GRAPH_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lpo {

/** Scope-local task handle (index into the scope's node array). */
using TaskId = uint32_t;
inline constexpr TaskId kInvalidTask = ~TaskId(0);

/** Folded scheduler counters; see the per-field comments. */
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

class TaskScope;

class TaskScheduler
{
  public:
    struct Options
    {
        /** Total parallelism counting the caller; 0 = hardware. */
        unsigned num_threads = 0;
        /** Base seed of the per-worker victim-selection streams. */
        uint64_t steal_seed = 0x9E3779B97F4A7C15ull;
    };

    TaskScheduler(); ///< defaults: hardware threads, fixed seed
    explicit TaskScheduler(const Options &options);
    ~TaskScheduler();

    TaskScheduler(const TaskScheduler &) = delete;
    TaskScheduler &operator=(const TaskScheduler &) = delete;

    /** Total parallelism, counting the calling thread. */
    unsigned size() const { return num_threads_; }

    /** std::thread::hardware_concurrency(), never zero. */
    static unsigned hardwareThreads();

    /** Counters folded over every completed scope (quiescent reads
     *  only: call between scopes, not while one is running). */
    const TaskGraphStats &stats() const { return stats_; }

  private:
    friend class TaskScope;
    class Deque;
    struct Worker;

    /** Monotonic shared counters; scopes report deltas over these. */
    struct Counters
    {
        std::atomic<uint64_t> tasks_run{0};
        std::atomic<uint64_t> tasks_cancelled{0};
        std::atomic<uint64_t> steals{0};
        std::atomic<uint64_t> steal_attempts{0};
        std::atomic<uint64_t> max_queue_depth{0};
        std::atomic<uint64_t> idle_ns{0};
    };

    void workerLoop(unsigned index);
    /** Run ready tasks for @p scope from slot @p index. Workers stay
     *  (idling between tasks) until the scope is detached; the caller
     *  (slot 0, is_worker = false) returns at quiescence. */
    void runScopeTasks(TaskScope &scope, unsigned index, bool is_worker);
    bool runOneTask(TaskScope &scope, unsigned index);
    void executeTask(TaskScope &scope, TaskId task);
    /** Done/Discarded bookkeeping: cascades dependents, decrements the
     *  scope's unfinished count, wakes sleepers at quiescence. */
    void finishNode(TaskScope &scope, TaskId task, bool ran);
    void enqueueReady(TaskScope &scope, TaskId task);
    void noteQueueDepth(uint64_t depth);

    unsigned num_threads_;
    uint64_t steal_seed_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable scope_done_;
    TaskScope *active_scope_ = nullptr;  // guarded by mutex_
    unsigned workers_in_scope_ = 0;      // guarded by mutex_
    std::deque<TaskId> injector_;        // guarded by mutex_; overflow
                                         // queue for enqueues from
                                         // threads without a deque
    bool stop_ = false;

    Counters counters_;
    TaskGraphStats stats_; // folded at scope exit
};

class TaskScope
{
  public:
    explicit TaskScope(TaskScheduler &scheduler);
    /** Drains to quiescence (implicit wait()). */
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

    /**
     * Add a task. @p deps must be ids returned by earlier submit()
     * calls on this scope; the task runs only after all of them have
     * completed. Submitting after wait() returned is invalid.
     */
    TaskId submit(std::function<void()> fn,
                  const std::vector<TaskId> &deps = {});

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
     * discarded by cancellation. Rethrows the first captured task
     * exception (by completion order) after quiescence; the remaining
     * tasks are cancelled, never leaked.
     */
    void wait();

    /** Counters for this scope (valid after wait()). */
    const TaskGraphStats &stats() const { return stats_; }

  private:
    friend class TaskScheduler;

    enum class State : uint8_t { Pending, Ready, Running, Done, Discarded };

    struct Node
    {
        std::function<void()> fn;
        /** Dependencies not yet completed; the node becomes ready at
         *  zero. Starts at deps.size() + 1: the extra count is the
         *  submission itself, dropped once the dependents lists are
         *  linked, so a node can never fire mid-submit. */
        std::atomic<int32_t> pending{1};
        State state = State::Pending; // guarded by scope mutex
        std::vector<TaskId> dependents;
    };

    TaskScheduler &scheduler_;
    std::atomic<bool> cancel_flag_{false};
    /** Tasks not yet finished (completed or discarded). */
    std::atomic<int64_t> unfinished_{0};
    std::mutex graph_mutex_;
    std::vector<std::unique_ptr<Node>> nodes_; // guarded by graph_mutex_
    std::exception_ptr first_error_;           // guarded by graph_mutex_
    /** Ready queue of the single-threaded scheduler: lowest id first,
     *  which makes serial execution follow submission order among
     *  ready tasks — the deterministic baseline. */
    std::priority_queue<TaskId, std::vector<TaskId>, std::greater<TaskId>>
        serial_ready_; // guarded by graph_mutex_
    bool waited_ = false;
    /** The creating thread's scheduler slot before this scope claimed
     *  it (null/0 outside any scope); restored by wait(). */
    TaskScheduler *outer_scheduler_ = nullptr;
    unsigned outer_worker_ = 0;
    TaskGraphStats counters_base_; ///< scheduler counters at scope entry
    TaskGraphStats stats_;
};

} // namespace lpo

#endif // LPO_SUPPORT_TASK_GRAPH_H
