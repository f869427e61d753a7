#include "core/thread_pool.h"

#include <cstdlib>

#include "core/logging.h"
#include "core/parse.h"

namespace csp {

namespace {
/** -1 off-pool; workerLoop entry assigns the pool-local index. */
thread_local int tls_worker_id = -1;
} // namespace

int
ThreadPool::currentWorkerId()
{
    return tls_worker_id;
}

unsigned
ThreadPool::defaultJobs()
{
    const char *env = std::getenv("CSP_JOBS");
    if (env != nullptr && *env != '\0') {
        unsigned parsed = 0;
        if (!parseUnsigned(env, parsed)) {
            warn("CSP_JOBS: '%s' is not a thread count, using the "
                 "hardware threads",
                 env);
        } else if (parsed != 0) {
            return parsed;
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultJobs();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this, i] {
            tls_worker_id = static_cast<int>(i);
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_idle_.wait(lock,
                   [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    for (std::size_t i = 0; i < n; ++i)
        submit([&fn, i] { fn(i); });
    wait();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_ready_.wait(
            lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            // stop_ set and nothing left to run.
            return;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        task();
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            all_idle_.notify_all();
    }
}

} // namespace csp
