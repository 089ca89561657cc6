#include "common/worker_pool.h"

namespace approxnoc {

namespace {

/** Spin iterations before a worker parks on the condition variable.
 * Sized so back-to-back batches (a few microseconds apart) never pay
 * a futex round trip, while a pool idle between sweeps sleeps within
 * ~a hundred microseconds. */
constexpr unsigned kSpinIters = 1u << 14;

/** Within a spin window, hand the core over every so often: when the
 * machine is oversubscribed (fewer cores than pool threads — notably
 * the 1-core CI container) the thread being waited on may need this
 * very core to make progress. */
constexpr unsigned kYieldEvery = 1u << 10;

constexpr std::uint64_t kIdxMask = 0xffffffffull;
constexpr std::uint64_t kGenMask = ~kIdxMask;
constexpr std::uint64_t kGenOne = kIdxMask + 1; // +1 in the gen field

inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

WorkerPool::WorkerPool(unsigned threads)
{
    if (threads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw ? hw : 1;
    }
    n_threads_ = threads;
    workers_.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
WorkerPool::runTasks()
{
    std::uint64_t v = cursor_.load(std::memory_order_acquire);
    const std::uint64_t gen = v & kGenMask;
    for (;;) {
        if ((v & kGenMask) != gen)
            return; // a later batch took over; our claims are done
        std::uint64_t idx = v & kIdxMask;
        if (idx >= n_.load(std::memory_order_acquire))
            return; // batch exhausted (n_ is stable while gen matches)
        // The CAS both claims the index and revalidates the
        // generation: a claimant holding a stale view fails here and
        // re-reads, so it can neither consume nor re-run an index of
        // a batch it didn't synchronize with.
        if (cursor_.compare_exchange_weak(v, v + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            (*fn_)(static_cast<std::size_t>(idx));
            left_.fetch_sub(1, std::memory_order_release);
            v = cursor_.load(std::memory_order_acquire);
        }
        // CAS failure reloaded v; loop re-checks gen and bound.
    }
}

void
WorkerPool::workerLoop()
{
    std::uint64_t seen = epoch_.load(std::memory_order_acquire);
    for (;;) {
        unsigned spins = 0;
        while (epoch_.load(std::memory_order_acquire) == seen) {
            if (stop_.load(std::memory_order_acquire))
                return;
            if (++spins < kSpinIters) {
                if (spins % kYieldEvery == 0)
                    std::this_thread::yield();
                else
                    cpu_relax();
                continue;
            }
            std::unique_lock<std::mutex> lock(mtx_);
            cv_.wait(lock, [&] {
                return stop_.load(std::memory_order_acquire) ||
                       epoch_.load(std::memory_order_acquire) != seen;
            });
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = epoch_.load(std::memory_order_acquire);
        runTasks();
    }
}

void
WorkerPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (n_threads_ <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Publish in three steps: (1) close the cursor under the new
    // generation so no straggler from the previous batch can be
    // mid-claim while fields change, (2) write the batch fields,
    // (3) open the cursor at index 0 (release) and bump the wake
    // epoch. A worker that claims successfully has, via the CAS,
    // synchronized with the open store and therefore sees fn_/n_ of
    // exactly this batch.
    std::uint64_t gen =
        ((cursor_.load(std::memory_order_relaxed) & kGenMask) + kGenOne) &
        kGenMask;
    cursor_.store(gen | kIdxMask, std::memory_order_release);
    fn_ = &fn;
    n_.store(n, std::memory_order_relaxed);
    left_.store(n, std::memory_order_relaxed);
    cursor_.store(gen, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    {
        // The lock pairs with cv_.wait's predicate check: without it a
        // worker could test the predicate, lose the race with this
        // notify, and sleep through the batch.
        std::lock_guard<std::mutex> lock(mtx_);
    }
    cv_.notify_all();

    runTasks(); // the caller is a lane too

    // The join barrier: all tasks done, with their writes visible.
    unsigned spins = 0;
    while (left_.load(std::memory_order_acquire) != 0) {
        if (++spins % kYieldEvery == 0)
            std::this_thread::yield();
        else
            cpu_relax();
    }
}

} // namespace approxnoc
