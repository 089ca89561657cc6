#include "noc/qos_loop.h"

namespace approxnoc {

ErrorControlLoop::ErrorControlLoop(Network &net, QosController controller,
                                   Cycle interval)
    : Clocked("qos-loop"), net_(net), controller_(std::move(controller)),
      interval_(interval), next_(interval)
{
    // Start from the controller's threshold so loop and codec agree.
    net_.codec().setErrorThreshold(controller_.threshold());
}

void
ErrorControlLoop::evaluate(Cycle)
{
}

void
ErrorControlLoop::advance(Cycle now)
{
    if (now < next_)
        return;
    next_ = now + interval_;

    const NetworkStats &stats = net_.stats();
    if (stats.resets != last_resets_) {
        // The stats restarted since the last window: this window
        // starts at the reset, so only the blocks since then count.
        last_resets_ = stats.resets;
        last_blocks_ = 0;
        last_error_sum_ = 0.0;
    }
    const QualityTracker &q = stats.quality;
    std::uint64_t blocks = q.blocks();
    double error_sum = q.errorSum();
    if (blocks == last_blocks_)
        return; // nothing delivered this window

    double window_error_pct = 100.0 * (error_sum - last_error_sum_) /
                              static_cast<double>(blocks - last_blocks_);
    last_blocks_ = blocks;
    last_error_sum_ = error_sum;
    window_error_accum_ += window_error_pct;
    ++windows_;

    double before = controller_.threshold();
    double after = controller_.update(window_error_pct);
    if (after != before && net_.codec().setErrorThreshold(after))
        ++adjustments_;
}

double
ErrorControlLoop::meanWindowErrorPct() const
{
    return windows_ ? window_error_accum_ / static_cast<double>(windows_)
                    : 0.0;
}

} // namespace approxnoc
