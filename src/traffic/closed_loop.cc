#include "traffic/closed_loop.h"

#include <algorithm>

#include "common/log.h"

namespace approxnoc {

ClosedLoopTraffic::ClosedLoopTraffic(Network &net,
                                     const ClosedLoopConfig &cfg,
                                     DataProvider &provider)
    : Clocked("closed-loop"), net_(net), cfg_(cfg), provider_(provider),
      rng_(cfg.seed)
{
    for (NodeId n = 0; n < net.config().nodes(); ++n)
        (n % 2 == 0 ? cores_ : homes_).push_back(n);
    ANOC_ASSERT(!cores_.empty() && !homes_.empty(),
                "closed loop needs both cores and homes");
    state_.resize(cores_.size());
    net_.setDeliveryCallback(
        [this](const PacketPtr &p, Cycle now) { onDelivery(p, now); });
}

void
ClosedLoopTraffic::evaluate(Cycle)
{
}

void
ClosedLoopTraffic::advance(Cycle now)
{
    if (!enabled_)
        return;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        CoreState &s = state_[i];
        while (s.outstanding < cfg_.window && s.next_issue <= now) {
            NodeId home = homes_[rng_.next(homes_.size())];
            auto req = net_.makeControlPacket(cores_[i], home);
            pending_[req->id] = {cores_[i], now};
            net_.inject(req, now);
            ++s.outstanding;
            ++requests_;
        }
    }
}

void
ClosedLoopTraffic::onDelivery(const PacketPtr &pkt, Cycle now)
{
    auto it = pending_.find(pkt->id);
    if (it == pending_.end())
        return; // not ours (e.g. dictionary notification)

    auto [core, issued] = it->second;
    pending_.erase(it);

    if (pkt->cls == PacketClass::Control) {
        // Request arrived at the home: send the data reply, carrying
        // the original issue time forward under the reply's id.
        DataBlock b = provider_.next(pkt->dst);
        if (b.approximable())
            b.setApproximable(rng_.chance(cfg_.approx_ratio));
        auto reply = net_.makeDataPacket(pkt->dst, core, std::move(b));
        pending_[reply->id] = {core, issued};
        net_.inject(reply, now);
        return;
    }

    // Reply arrived back at the core.
    round_trip_.add(static_cast<double>(pkt->decode_done - issued));
    ++replies_;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (cores_[i] == core) {
            ANOC_ASSERT(state_[i].outstanding > 0,
                        "reply without outstanding request");
            --state_[i].outstanding;
            // A think time past the last cycle parks the core; the
            // sum must not wrap round to a cycle already gone.
            state_[i].next_issue =
                now + std::min(cfg_.think_time, kNeverCycle - now);
            break;
        }
    }
}

bool
ClosedLoopTraffic::quiesced() const
{
    return pending_.empty();
}

} // namespace approxnoc
