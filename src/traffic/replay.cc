#include "traffic/replay.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/log.h"

namespace approxnoc {

namespace {
/** Deterministic per-record hash for the approximable-ratio draw. */
std::uint32_t
mix(std::uint32_t x)
{
    x ^= x >> 16;
    x *= 0x7FEB352Du;
    x ^= x >> 15;
    x *= 0x846CA68Bu;
    x ^= x >> 16;
    return x;
}
} // namespace

TraceReplay::TraceReplay(Network &net, const CommTrace &trace,
                         double time_scale, double approx_ratio,
                         std::size_t records)
    : Clocked("trace-replay"), net_(net), trace_(trace),
      time_scale_(time_scale), approx_ratio_(approx_ratio),
      end_(std::min(records, trace.size()))
{
    ANOC_ASSERT(time_scale > 0.0, "time scale must be positive");
    const unsigned n_nodes = net_.config().nodes();
    const std::string &name =
        trace.origin().empty() ? std::string("trace") : trace.origin();
    for (std::size_t i = 0; i < end_; ++i) {
        const TraceRecord &r = trace.records()[i];
        if (r.src >= n_nodes || r.dst >= n_nodes)
            ANOC_FATAL(name, ": record ", i, " (t=", r.t, ") sends ", r.src,
                       " -> ", r.dst, ", outside the ", n_nodes,
                       "-node network");
    }
    if (end_ > 0)
        next_at_ = injectionCycle(0);
}

Cycle
TraceReplay::injectionCycle(std::size_t i) const
{
    return static_cast<Cycle>(std::llround(
        static_cast<double>(trace_.records()[i].t) * time_scale_));
}

void
TraceReplay::evaluate(Cycle)
{
}

void
TraceReplay::advance(Cycle now)
{
    while (cursor_ < end_ && next_at_ <= now) {
        const TraceRecord &r = trace_.records()[cursor_];
        const NodeId src = r.src;
        const NodeId dst = r.dst;
        if (src != dst) {
            PacketPtr p;
            if (r.isData()) {
                // The packet's one copy of the block's words.
                DataBlock b = trace_.block(r.block).copy();
                if (b.approximable()) {
                    bool keep = (mix(static_cast<std::uint32_t>(cursor_)) %
                                 10000) < approx_ratio_ * 10000.0;
                    b.setApproximable(keep);
                }
                p = net_.makeDataPacket(src, dst, std::move(b));
            } else {
                p = net_.makeControlPacket(src, dst);
            }
            net_.inject(p, now);
            ++injected_;
        }
        if (++cursor_ < end_)
            next_at_ = injectionCycle(cursor_);
    }
}

} // namespace approxnoc
