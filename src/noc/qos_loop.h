/**
 * @file
 * The network side of online error control: every interval the loop
 * measures the data error incurred by blocks delivered in that window
 * (from the network's QualityTracker) and retunes the codec's error
 * threshold through a QosController.
 */
#ifndef APPROXNOC_NOC_QOS_LOOP_H
#define APPROXNOC_NOC_QOS_LOOP_H

#include "core/error_control.h"
#include "noc/network.h"
#include "sim/clocked.h"

namespace approxnoc {

/** Closed-loop threshold adaptation over a running Network. */
class ErrorControlLoop : public Clocked
{
  public:
    ErrorControlLoop(Network &net, QosController controller,
                     Cycle interval = 2000);

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    const QosController &controller() const { return controller_; }
    /** Number of threshold changes applied to the codec. */
    std::uint64_t adjustments() const { return adjustments_; }
    /** Mean data error measured over all completed windows (%). */
    double meanWindowErrorPct() const;

  private:
    Network &net_;
    QosController controller_;
    Cycle interval_;
    Cycle next_;
    /** Cumulative ledger sums at the last window's end, and the
     * NetworkStats::resets count they were read under. */
    std::uint64_t last_resets_ = 0;
    std::uint64_t last_blocks_ = 0;
    double last_error_sum_ = 0.0;
    std::uint64_t adjustments_ = 0;
    double window_error_accum_ = 0.0;
    std::uint64_t windows_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_QOS_LOOP_H
