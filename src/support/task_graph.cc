#include "support/task_graph.h"

#include <chrono>
#include <stdexcept>

namespace lpo {

namespace {

/** splitmix64 — seeds the per-worker victim streams so no two workers
 *  share a sequence even for adjacent indices. */
uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

uint64_t xorshift64star(uint64_t &state)
{
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
}

/** The slot this thread occupies in the scheduler it is serving (the
 *  scope owner is slot 0, workers are 1..n-1). Used to route ready
 *  tasks to the enqueuing thread's own deque. */
thread_local TaskScheduler *tls_scheduler = nullptr;
thread_local unsigned tls_worker = 0;

void atomicMax(std::atomic<uint64_t> &slot, uint64_t value)
{
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
}

} // namespace

/*
 * Chase-Lev work-stealing deque (memory ordering per Lê et al.,
 * "Correct and Efficient Work-Stealing for Weak Memory Models").
 * The owning worker pushes and pops the bottom without contention;
 * thieves CAS the top. The ring buffer grows by doubling; outgrown
 * buffers are retired, not freed, until the deque is destroyed,
 * because a concurrent thief may still be reading a stale buffer
 * pointer (it will then lose its CAS and retry — reading retired
 * memory is harmless, freeing it would not be).
 */
class TaskScheduler::Deque
{
  public:
    Deque()
    {
        auto initial = std::make_unique<Buffer>(kInitialCapacity);
        buffer_.store(initial.get(), std::memory_order_relaxed);
        buffers_.push_back(std::move(initial));
    }

    /** Owner only. Returns the depth after the push. */
    int64_t pushBottom(TaskId task)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_acquire);
        Buffer *buf = buffer_.load(std::memory_order_relaxed);
        if (b - t > buf->capacity - 1)
            buf = grow(buf, t, b);
        buf->at(b).store(task, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return b + 1 - t;
    }

    /** Owner only. */
    TaskId popBottom()
    {
        int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        Buffer *buf = buffer_.load(std::memory_order_relaxed);
        bottom_.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t t = top_.load(std::memory_order_relaxed);
        TaskId task = kInvalidTask;
        if (t <= b) {
            task = buf->at(b).load(std::memory_order_relaxed);
            if (t == b) {
                // Last element: race the thieves for it.
                if (!top_.compare_exchange_strong(
                        t, t + 1, std::memory_order_seq_cst,
                        std::memory_order_relaxed))
                    task = kInvalidTask;
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
        } else {
            bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return task;
    }

    /** Any thread. */
    TaskId stealTop()
    {
        int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t b = bottom_.load(std::memory_order_acquire);
        if (t >= b)
            return kInvalidTask;
        Buffer *buf = buffer_.load(std::memory_order_acquire);
        TaskId task = buf->at(t).load(std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return kInvalidTask;
        return task;
    }

  private:
    static constexpr int64_t kInitialCapacity = 64; // power of two

    struct Buffer
    {
        explicit Buffer(int64_t cap)
            : capacity(cap), slots(new std::atomic<TaskId>[cap])
        {}
        std::atomic<TaskId> &at(int64_t i)
        {
            return slots[i & (capacity - 1)];
        }
        int64_t capacity;
        std::unique_ptr<std::atomic<TaskId>[]> slots;
    };

    Buffer *grow(Buffer *old, int64_t t, int64_t b)
    {
        auto next = std::make_unique<Buffer>(old->capacity * 2);
        for (int64_t i = t; i < b; ++i)
            next->at(i).store(old->at(i).load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        Buffer *raw = next.get();
        buffers_.push_back(std::move(next)); // old buffer stays retired
        buffer_.store(raw, std::memory_order_release);
        return raw;
    }

    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
    std::atomic<Buffer *> buffer_{nullptr};
    std::vector<std::unique_ptr<Buffer>> buffers_; // owner only
};

struct TaskScheduler::Worker
{
    explicit Worker(uint64_t rng_seed) : rng(rng_seed) {}
    Deque deque;
    uint64_t rng; ///< victim-selection stream, owner only
};

TaskScheduler::TaskScheduler() : TaskScheduler(Options()) {}

TaskScheduler::TaskScheduler(const Options &options)
{
    unsigned n =
        options.num_threads != 0 ? options.num_threads : hardwareThreads();
    num_threads_ = n;
    steal_seed_ = options.steal_seed;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(
            std::make_unique<Worker>(splitmix64(steal_seed_ ^ i)));
    threads_.reserve(n > 0 ? n - 1 : 0);
    for (unsigned i = 1; i < n; ++i)
        threads_.emplace_back(&TaskScheduler::workerLoop, this, i);
}

TaskScheduler::~TaskScheduler()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

unsigned TaskScheduler::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

void TaskScheduler::workerLoop(unsigned index)
{
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        work_ready_.wait(
            lk, [&] { return stop_ || active_scope_ != nullptr; });
        if (stop_)
            return;
        TaskScope *scope = active_scope_;
        ++workers_in_scope_;
        lk.unlock();

        tls_scheduler = this;
        tls_worker = index;
        runScopeTasks(*scope, index, /*is_worker=*/true);
        tls_scheduler = nullptr;
        tls_worker = 0;

        lk.lock();
        if (--workers_in_scope_ == 0)
            scope_done_.notify_all();
        // Do not respin on the same scope: wait until it is detached
        // (runScopeTasks only returns once it saw that happen, so the
        // predicate above will not re-trigger spuriously).
    }
}

void TaskScheduler::runScopeTasks(TaskScope &scope, unsigned index,
                                  bool is_worker)
{
    using Clock = std::chrono::steady_clock;
    for (;;) {
        if (!is_worker &&
            scope.unfinished_.load(std::memory_order_acquire) == 0)
            return; // caller exits at quiescence
        if (runOneTask(scope, index))
            continue;
        // Single-threaded scheduler: no other thread can make
        // progress, so an empty ready queue with unfinished tasks is a
        // stalled graph (cannot be reached through submit()'s
        // backward-dependency check; purely defensive).
        if (num_threads_ <= 1)
            throw std::logic_error(
                "TaskScope: dependency graph stalled");
        // Nothing runnable right now: sleep until new work arrives.
        // The wait is timed so a lost notification costs a
        // millisecond, never a deadlock.
        Clock::time_point idle_start = Clock::now();
        std::unique_lock<std::mutex> lk(mutex_);
        if (is_worker && active_scope_ != &scope)
            return; // scope detached while we were idle
        if (!is_worker &&
            scope.unfinished_.load(std::memory_order_acquire) == 0)
            return;
        work_ready_.wait_for(lk, std::chrono::milliseconds(1));
        lk.unlock();
        counters_.idle_ns.fetch_add(
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - idle_start)
                    .count()),
            std::memory_order_relaxed);
    }
}

bool TaskScheduler::runOneTask(TaskScope &scope, unsigned index)
{
    Worker &self = *workers_[index];
    TaskId task = kInvalidTask;

    if (num_threads_ <= 1) {
        // Serial mode: pull the lowest ready id — submission order.
        std::lock_guard<std::mutex> lk(scope.graph_mutex_);
        if (!scope.serial_ready_.empty()) {
            task = scope.serial_ready_.top();
            scope.serial_ready_.pop();
        }
    } else {
        task = self.deque.popBottom();
        if (task == kInvalidTask) {
            std::lock_guard<std::mutex> lk(mutex_);
            if (!injector_.empty()) {
                task = injector_.front();
                injector_.pop_front();
            }
        }
        if (task == kInvalidTask) {
            // Steal: two full sweeps over every other slot, each from a
            // randomized start, before declaring this slot idle. (Pure
            // random picks could miss the one loaded deque and idle a
            // worker for a whole wait period while work sits queued.)
            unsigned start = 0;
            for (unsigned probe = 0;
                 probe < 2 * num_threads_ && task == kInvalidTask;
                 ++probe) {
                if (probe % num_threads_ == 0)
                    start = static_cast<unsigned>(
                        xorshift64star(self.rng) % num_threads_);
                unsigned victim = (start + probe) % num_threads_;
                if (victim == index)
                    continue;
                counters_.steal_attempts.fetch_add(
                    1, std::memory_order_relaxed);
                task = workers_[victim]->deque.stealTop();
                if (task != kInvalidTask)
                    counters_.steals.fetch_add(
                        1, std::memory_order_relaxed);
            }
        }
    }

    if (task == kInvalidTask)
        return false;
    executeTask(scope, task);
    return true;
}

void TaskScheduler::executeTask(TaskScope &scope, TaskId task)
{
    TaskScope::Node *node = nullptr;
    bool run = false;
    {
        std::lock_guard<std::mutex> lk(scope.graph_mutex_);
        node = scope.nodes_[task].get();
        if (node->state != TaskScope::State::Ready)
            return; // stale id (already executed or discarded)
        if (scope.cancelled()) {
            // finishNode() below flips it to Discarded.
        } else {
            node->state = TaskScope::State::Running;
            run = true;
        }
    }
    if (run) {
        try {
            node->fn();
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(scope.graph_mutex_);
                if (!scope.first_error_)
                    scope.first_error_ = std::current_exception();
            }
            scope.cancel();
        }
        node->fn = nullptr; // drop the closure at completion, not at
                            // scope destruction
    }
    finishNode(scope, task, run);
}

void TaskScheduler::finishNode(TaskScope &scope, TaskId task, bool ran)
{
    std::vector<TaskId> now_ready;
    {
        std::lock_guard<std::mutex> lk(scope.graph_mutex_);
        TaskScope::Node &node = *scope.nodes_[task];
        node.state = ran ? TaskScope::State::Done
                         : TaskScope::State::Discarded;
        if (!ran)
            node.fn = nullptr;
        for (TaskId dep : node.dependents) {
            TaskScope::Node &child = *scope.nodes_[dep];
            // A discarded dependency still unblocks its dependents:
            // they flow through the ready queues and are themselves
            // discarded on sight (the scope is cancelled by then),
            // which is what drains a cancelled graph to quiescence.
            if (child.pending.fetch_sub(1, std::memory_order_acq_rel) ==
                    1 &&
                child.state == TaskScope::State::Pending) {
                child.state = TaskScope::State::Ready;
                now_ready.push_back(dep);
            }
        }
    }
    if (ran)
        counters_.tasks_run.fetch_add(1, std::memory_order_relaxed);
    else
        counters_.tasks_cancelled.fetch_add(1, std::memory_order_relaxed);
    for (TaskId id : now_ready)
        enqueueReady(scope, id);
    if (scope.unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Quiescent: wake the waiter (and idle workers, so they can
        // re-check for detachment promptly).
        std::lock_guard<std::mutex> lk(mutex_);
        work_ready_.notify_all();
        scope_done_.notify_all();
    }
}

void TaskScheduler::enqueueReady(TaskScope &scope, TaskId task)
{
    if (num_threads_ <= 1) {
        std::lock_guard<std::mutex> lk(scope.graph_mutex_);
        scope.serial_ready_.push(task);
        return;
    }
    if (tls_scheduler == this) {
        int64_t depth = workers_[tls_worker]->deque.pushBottom(task);
        noteQueueDepth(static_cast<uint64_t>(depth));
    } else {
        std::lock_guard<std::mutex> lk(mutex_);
        injector_.push_back(task);
    }
    work_ready_.notify_one();
}

void TaskScheduler::noteQueueDepth(uint64_t depth)
{
    atomicMax(counters_.max_queue_depth, depth);
}

TaskScope::TaskScope(TaskScheduler &scheduler) : scheduler_(scheduler)
{
    std::lock_guard<std::mutex> lk(scheduler_.mutex_);
    if (scheduler_.active_scope_ != nullptr)
        throw std::logic_error(
            "TaskScope: scheduler already has an active scope");
    scheduler_.active_scope_ = this;
    counters_base_.tasks_run =
        scheduler_.counters_.tasks_run.load(std::memory_order_relaxed);
    counters_base_.tasks_cancelled =
        scheduler_.counters_.tasks_cancelled.load(
            std::memory_order_relaxed);
    counters_base_.steals =
        scheduler_.counters_.steals.load(std::memory_order_relaxed);
    counters_base_.steal_attempts =
        scheduler_.counters_.steal_attempts.load(
            std::memory_order_relaxed);
    counters_base_.max_queue_depth =
        scheduler_.counters_.max_queue_depth.load(
            std::memory_order_relaxed);
    counters_base_.idle_ns =
        scheduler_.counters_.idle_ns.load(std::memory_order_relaxed);
    // The creating thread is slot 0 for the scope's lifetime, so
    // submit() routes ready tasks into slot 0's deque (it owns it).
    // Its previous slot — a worker of an enclosing scheduler when this
    // scope opens inside a task — comes back in wait().
    outer_scheduler_ = tls_scheduler;
    outer_worker_ = tls_worker;
    tls_scheduler = &scheduler_;
    tls_worker = 0;
    scheduler_.work_ready_.notify_all();
}

TaskScope::~TaskScope()
{
    try {
        wait();
    } catch (...) {
        // A task failure surfaces from an explicit wait(); the
        // destructor only guarantees quiescence.
    }
}

TaskId TaskScope::submit(std::function<void()> fn,
                         const std::vector<TaskId> &deps)
{
    TaskId id;
    bool ready = false;
    {
        std::lock_guard<std::mutex> lk(graph_mutex_);
        if (waited_)
            throw std::logic_error(
                "TaskScope::submit: scope already waited");
        id = static_cast<TaskId>(nodes_.size());
        auto node = std::make_unique<Node>();
        node->fn = std::move(fn);
        // The +1 guard count keeps the node from firing while its
        // dependents links are still being written.
        int32_t outstanding = 1;
        for (TaskId dep : deps) {
            if (dep >= id)
                throw std::logic_error(
                    "TaskScope::submit: dependency on a later task");
            Node &parent = *nodes_[dep];
            if (parent.state == State::Done ||
                parent.state == State::Discarded)
                continue; // already satisfied (or moot)
            parent.dependents.push_back(id);
            ++outstanding;
        }
        node->pending.store(outstanding, std::memory_order_relaxed);
        nodes_.push_back(std::move(node));
        unfinished_.fetch_add(1, std::memory_order_acq_rel);
        Node &placed = *nodes_[id];
        if (placed.pending.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
            placed.state = State::Ready;
            ready = true;
        }
    }
    if (ready)
        scheduler_.enqueueReady(*this, id);
    return id;
}

void TaskScope::cancel()
{
    cancel_flag_.store(true, std::memory_order_release);
    // Wake idle participants so the drain makes progress immediately.
    std::lock_guard<std::mutex> lk(scheduler_.mutex_);
    scheduler_.work_ready_.notify_all();
}

void TaskScope::wait()
{
    if (waited_)
        return;
    std::exception_ptr internal_error;
    try {
        scheduler_.runScopeTasks(*this, 0, /*is_worker=*/false);
    } catch (...) {
        // Internal failure on the caller slot (not a task exception —
        // those are captured). Cancel so workers drain, then detach.
        internal_error = std::current_exception();
        cancel();
    }
    {
        std::unique_lock<std::mutex> lk(scheduler_.mutex_);
        scheduler_.active_scope_ = nullptr;
        scheduler_.work_ready_.notify_all();
        scheduler_.scope_done_.wait(
            lk, [&] { return scheduler_.workers_in_scope_ == 0; });
        const TaskScheduler::Counters &c = scheduler_.counters_;
        stats_.tasks_run =
            c.tasks_run.load(std::memory_order_relaxed) -
            counters_base_.tasks_run;
        stats_.tasks_cancelled =
            c.tasks_cancelled.load(std::memory_order_relaxed) -
            counters_base_.tasks_cancelled;
        stats_.steals = c.steals.load(std::memory_order_relaxed) -
                        counters_base_.steals;
        stats_.steal_attempts =
            c.steal_attempts.load(std::memory_order_relaxed) -
            counters_base_.steal_attempts;
        stats_.max_queue_depth =
            c.max_queue_depth.load(std::memory_order_relaxed);
        stats_.idle_ns = c.idle_ns.load(std::memory_order_relaxed) -
                         counters_base_.idle_ns;
        scheduler_.stats_ += stats_;
    }
    {
        std::lock_guard<std::mutex> lk(graph_mutex_);
        waited_ = true;
    }
    tls_scheduler = outer_scheduler_;
    tls_worker = outer_worker_;
    if (internal_error)
        std::rethrow_exception(internal_error);
    if (first_error_) {
        std::exception_ptr err = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

} // namespace lpo
