/**
 * @file
 * A persistent work-stealing thread pool: the ExperimentRunner
 * (src/harness/runner.*) runs the independent points of a sweep on it
 * (`--jobs`), one whole simulation per task. Each simulation steps
 * serially; the pool parallelizes only across points. Workers spin
 * briefly on the batch epoch before sleeping on a condition variable,
 * so back-to-back batches dispatch in microseconds while an idle pool
 * still parks its threads.
 */
#ifndef APPROXNOC_COMMON_WORKER_POOL_H
#define APPROXNOC_COMMON_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace approxnoc {

/**
 * Fixed-size pool executing batches of independent tasks. The calling
 * thread participates in every batch (a pool of `threads == n` runs
 * `n - 1` workers), and `parallelFor` returns only after every task of
 * the batch has completed.
 *
 * Tasks are claimed work-stealing-style from a shared cursor, so an
 * imbalanced batch (one saturated sweep point) never idles the other
 * lanes while unclaimed work remains. The cursor is
 * generation-tagged and claims go through compare-and-swap, so a
 * worker delayed across a batch boundary can never steal or replay an
 * index of a later batch.
 *
 * Contract: tasks must not throw (wrap and capture in the closure if
 * failure is expected — see ExperimentRunner), and `parallelFor` must
 * not be re-entered from inside a task.
 */
class WorkerPool
{
  public:
    /** @param threads total parallelism including the caller;
     *  0 resolves to the hardware concurrency. */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Total parallelism including the calling thread. */
    unsigned threads() const { return n_threads_; }

    /**
     * Run fn(i) for every i in [0, n), stealing indices over the pool
     * plus the calling thread; returns when all n tasks are done
     * (acts as a full barrier with acquire/release ordering, so state
     * written by any task is visible to the caller afterwards).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    void runTasks();

    unsigned n_threads_;
    std::vector<std::thread> workers_;

    std::mutex mtx_;
    std::condition_variable cv_;
    std::atomic<bool> stop_{false};

    /** Wake signal: bumped once per published batch. */
    std::atomic<std::uint64_t> epoch_{0};

    /**
     * The claim cursor: batch generation in the high 32 bits, next
     * unclaimed index in the low 32. Claims CAS the index up, so a
     * claim succeeds only against the generation the claimant read —
     * stale claimants fail the CAS and bow out instead of consuming
     * (or double-running) an index of a newer batch.
     */
    std::atomic<std::uint64_t> cursor_{0};
    std::atomic<std::size_t> n_{0};
    std::atomic<std::size_t> left_{0};
    const std::function<void(std::size_t)> *fn_ = nullptr;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_WORKER_POOL_H
