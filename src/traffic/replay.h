/**
 * @file
 * Trace replay: injects a CommTrace into a Network, optionally scaling
 * timestamps (to vary load density) and overriding the approximable
 * packet ratio (paper Sec. 5.3.2's knob).
 */
#ifndef APPROXNOC_TRAFFIC_REPLAY_H
#define APPROXNOC_TRAFFIC_REPLAY_H

#include "noc/network.h"
#include "sim/clocked.h"
#include "traffic/trace.h"

namespace approxnoc {

/** Replays a trace through a network. */
class TraceReplay : public Clocked
{
  public:
    /**
     * A record whose source or destination is not a node of @p net is
     * a fatal error, raised here, before the run.
     *
     * @param net the target network.
     * @param trace the trace to replay (borrowed; outlive the replay).
     * @param time_scale multiply record timestamps by this (> 0; < 1
     *        densifies traffic).
     * @param approx_ratio fraction of annotated-approximable data
     *        packets that keep the annotation (default 0.75 per Table 1).
     * @param records replay only the first this many records (default:
     *        the whole trace).
     */
    TraceReplay(Network &net, const CommTrace &trace, double time_scale = 1.0,
                double approx_ratio = 0.75,
                std::size_t records = CommTrace::kWholeTrace);

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    /** True when every record to replay has been injected. */
    bool done() const { return cursor_ >= end_; }

    std::uint64_t injected() const { return injected_; }

  private:
    /** Cycle record @p i is injected at: its timestamp, scaled. */
    Cycle injectionCycle(std::size_t i) const;

    Network &net_;
    const CommTrace &trace_;
    double time_scale_;
    double approx_ratio_;
    std::size_t end_; ///< records replayed: [0, end_)
    std::size_t cursor_ = 0;
    /** injectionCycle(cursor_), while cursor_ < end_. */
    Cycle next_at_ = 0;
    std::uint64_t injected_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_TRAFFIC_REPLAY_H
