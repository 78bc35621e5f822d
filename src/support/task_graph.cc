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

/** Base of the per-worker victim-selection streams. */
constexpr uint64_t kStealSeed = 0x9E3779B97F4A7C15ull;

/** The slot this thread occupies in the scope it is serving (the
 *  scope owner is slot 0, workers are 1..n-1). Routes a submit to the
 *  submitting thread's own deque. */
thread_local TaskScope *tls_scope = nullptr;
thread_local unsigned tls_worker = 0;

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
class TaskScope::Deque
{
  public:
    Deque()
    {
        auto initial = std::make_unique<Buffer>(kInitialCapacity);
        buffer_.store(initial.get(), std::memory_order_relaxed);
        buffers_.push_back(std::move(initial));
    }

    /** Owner only. Returns the depth after the push. */
    int64_t pushBottom(Task *task)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_acquire);
        Buffer *buf = buffer_.load(std::memory_order_relaxed);
        if (b - t > buf->capacity - 1)
            buf = grow(buf, t, b);
        buf->at(b).store(task, std::memory_order_relaxed);
        // Release: a thief that sees the new bottom also sees the slot
        // and the task it points to.
        bottom_.store(b + 1, std::memory_order_release);
        return b + 1 - t;
    }

    /** Owner only; null when empty. */
    Task *popBottom()
    {
        int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        Buffer *buf = buffer_.load(std::memory_order_relaxed);
        bottom_.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t t = top_.load(std::memory_order_relaxed);
        Task *task = nullptr;
        if (t <= b) {
            task = buf->at(b).load(std::memory_order_relaxed);
            if (t == b) {
                // Last element: race the thieves for it.
                if (!top_.compare_exchange_strong(
                        t, t + 1, std::memory_order_seq_cst,
                        std::memory_order_relaxed))
                    task = nullptr;
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
        } else {
            bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return task;
    }

    /** Any thread; null when empty or the race was lost. */
    Task *stealTop()
    {
        int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t b = bottom_.load(std::memory_order_acquire);
        if (t >= b)
            return nullptr;
        Buffer *buf = buffer_.load(std::memory_order_acquire);
        Task *task = buf->at(t).load(std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return nullptr;
        return task;
    }

  private:
    static constexpr int64_t kInitialCapacity = 64; // power of two

    struct Buffer
    {
        explicit Buffer(int64_t cap)
            : capacity(cap), slots(new std::atomic<Task *>[cap])
        {}
        std::atomic<Task *> &at(int64_t i)
        {
            return slots[i & (capacity - 1)];
        }
        int64_t capacity;
        std::unique_ptr<std::atomic<Task *>[]> slots;
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

struct TaskScope::Worker
{
    explicit Worker(uint64_t rng_seed) : rng(rng_seed) {}
    Deque deque;
    uint64_t rng;            ///< victim-selection stream
    TaskGraphStats counters; ///< this slot's share, folded by wait()
};

TaskScope::TaskScope(unsigned num_threads)
    : num_threads_(num_threads != 0 ? num_threads : hardwareThreads())
{
    workers_.reserve(num_threads_);
    for (unsigned i = 0; i < num_threads_; ++i)
        workers_.push_back(
            std::make_unique<Worker>(splitmix64(kStealSeed ^ i)));
    // The creating thread is slot 0 for the scope's lifetime, so
    // submit() routes its tasks into slot 0's deque (it owns it). Its
    // previous slot — a worker of an enclosing scope when this scope
    // opens inside a task — comes back in wait().
    outer_scope_ = tls_scope;
    outer_worker_ = tls_worker;
    tls_scope = this;
    tls_worker = 0;
    threads_.reserve(num_threads_ - 1);
    try {
        for (unsigned i = 1; i < num_threads_; ++i)
            threads_.emplace_back(&TaskScope::workerLoop, this, i);
    } catch (...) {
        // No destructor runs for a half-built scope: stop and join the
        // workers already started and hand the thread's slot back.
        wait();
        throw;
    }
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

unsigned TaskScope::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

void TaskScope::workerLoop(unsigned index)
{
    tls_scope = this;
    tls_worker = index;
    Worker &self = *workers_[index];
    for (;;) {
        if (runOneTask(index))
            continue;
        if (!idle(self, /*owner=*/false))
            return;
    }
}

bool TaskScope::idle(Worker &self, bool owner)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point idle_start = Clock::now();
    {
        std::unique_lock<std::mutex> lk(mutex_);
        if (owner ? unfinished_.load(std::memory_order_acquire) == 0
                  : stop_)
            return false;
        work_ready_.wait_for(lk, std::chrono::milliseconds(1));
    }
    self.counters.idle_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - idle_start)
            .count());
    return true;
}

bool TaskScope::runOneTask(unsigned index)
{
    Worker &self = *workers_[index];
    Task *task = nullptr;

    if (num_threads_ <= 1) {
        // One thread: take from the top of its own deque, a plain
        // FIFO, so tasks run in submission order.
        task = self.deque.stealTop();
    } else {
        task = self.deque.popBottom();
        // Steal: two full sweeps over every other slot, each from a
        // randomized start, before declaring this slot idle. (Pure
        // random picks could miss the one loaded deque and idle a
        // worker for a whole wait period while work sits queued.)
        unsigned start = 0;
        for (unsigned probe = 0; probe < 2 * num_threads_ && !task;
             ++probe) {
            if (probe % num_threads_ == 0)
                start = static_cast<unsigned>(xorshift64star(self.rng) %
                                              num_threads_);
            unsigned victim = (start + probe) % num_threads_;
            if (victim == index)
                continue;
            ++self.counters.steal_attempts;
            task = workers_[victim]->deque.stealTop();
            if (task)
                ++self.counters.steals;
        }
    }
    if (!task)
        return false;

    std::unique_ptr<Task> owned(task);
    if (cancelled()) {
        ++self.counters.tasks_cancelled;
    } else {
        try {
            (*owned)();
        } catch (...) {
            {
                std::lock_guard<std::mutex> lk(mutex_);
                if (!first_error_)
                    first_error_ = std::current_exception();
            }
            cancel();
        }
        ++self.counters.tasks_run;
    }
    owned.reset(); // drop the closure at completion, not at scope exit
    if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Quiescent: wake the owner if it is idling.
        std::lock_guard<std::mutex> lk(mutex_);
        work_ready_.notify_all();
    }
    return true;
}

void TaskScope::submit(std::function<void()> fn)
{
    if (tls_scope != this)
        throw std::logic_error("TaskScope::submit: caller is not the "
                               "scope's owner or one of its tasks");
    auto task = std::make_unique<Task>(std::move(fn));
    unfinished_.fetch_add(1, std::memory_order_acq_rel);
    Worker &self = *workers_[tls_worker];
    uint64_t depth = static_cast<uint64_t>(
        self.deque.pushBottom(task.release()));
    if (depth > self.counters.max_queue_depth)
        self.counters.max_queue_depth = depth;
    if (num_threads_ > 1)
        work_ready_.notify_one();
}

void TaskScope::cancel()
{
    cancel_flag_.store(true, std::memory_order_release);
    // Wake idle participants so the drain makes progress immediately.
    std::lock_guard<std::mutex> lk(mutex_);
    work_ready_.notify_all();
}

void TaskScope::wait()
{
    if (waited_)
        return;
    while (unfinished_.load(std::memory_order_acquire) != 0) {
        if (!runOneTask(0) && !idle(*workers_[0], /*owner=*/true))
            break;
    }
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
    for (const auto &worker : workers_)
        stats_ += worker->counters;
    waited_ = true;
    tls_scope = outer_scope_;
    tls_worker = outer_worker_;
    if (first_error_) {
        std::exception_ptr err = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

} // namespace lpo
