/**
 * @file
 * Minimal fixed-size thread pool for embarrassingly parallel
 * simulation work (trace generation, sweep cells).
 *
 * Tasks are plain std::function<void()> callbacks executed FIFO by a
 * fixed set of worker threads; wait() blocks until every submitted
 * task has completed, so a pool can be reused phase by phase. The
 * pool deliberately has no futures, task stealing or priorities —
 * sweep callers order their own work (longest-first) before
 * submitting and collect results through pre-sized output slots.
 */

#ifndef CSP_CORE_THREAD_POOL_H
#define CSP_CORE_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csp {

/** See file comment. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains outstanding work, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned
    threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueue one task. Tasks must not throw — simulation errors go
     * through fatal()/panic(), which terminate the process.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished executing. */
    void wait();

    /** Run fn(0) .. fn(n-1) across the pool and wait for completion. */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * The jobs knob every sweep entry point resolves through: the
     * CSP_JOBS environment variable when it is wholly a positive
     * integer in the unsigned range, otherwise the hardware thread
     * count (at least 1). Garbage or overflow in CSP_JOBS warns.
     */
    static unsigned defaultJobs();

    /**
     * Index of the calling pool worker thread (0-based within its
     * pool), or -1 off-pool. Worker attribution for observability
     * (sweep journal cell events); never consulted for scheduling, so
     * it cannot influence results.
     */
    static int currentWorkerId();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable all_idle_;
    std::size_t active_ = 0;
    bool stop_ = false;
};

} // namespace csp

#endif // CSP_CORE_THREAD_POOL_H
