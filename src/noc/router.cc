#include "noc/router.h"

#include <bit>

#include "common/log.h"
#include "noc/network_interface.h"

namespace approxnoc {

namespace {

/**
 * @p mask, a set over indices [0, width), rotated right by @p start:
 * bit b of the result stands for index start + b, wrapped at @p width.
 * Walking the result from bit 0 up visits the set indices in
 * round-robin order from @p start. Requires start < width <= 32.
 */
std::uint64_t
rotated(std::uint32_t mask, unsigned start, unsigned width)
{
    const std::uint64_t m = mask;
    return ((m >> start) | (m << (width - start))) &
           ((std::uint64_t{1} << width) - 1);
}

/** The index the lowest set bit of rotated(..., start, width) stands for. */
unsigned
lowestIndex(std::uint64_t rot, unsigned start, unsigned width)
{
    const unsigned i = start + static_cast<unsigned>(std::countr_zero(rot));
    return i >= width ? i - width : i;
}

/** @p i + 1, wrapped at @p n. */
unsigned
nextWrapped(unsigned i, unsigned n)
{
    return i + 1 == n ? 0 : i + 1;
}

} // namespace

Router::Router(RouterId id, const NocConfig &cfg, const RouteFn &route)
    : Clocked("router" + std::to_string(id)), id_(id), cfg_(cfg),
      n_ports_(kLocalBase + cfg.concentration)
{
    ANOC_ASSERT(n_ports_ <= kMaxPorts && cfg_.vcs >= 1 &&
                    cfg_.vcs <= kMaxVcs,
                "router ", id_, ": ", n_ports_, " ports x ", cfg_.vcs,
                " VCs do not fit its ", kMaxPorts, " x ", kMaxVcs,
                " state masks");

    routes_.resize(cfg_.nodes());
    for (NodeId dst = 0; dst < cfg_.nodes(); ++dst) {
        const std::vector<unsigned> cands = route(id_, dst);
        ANOC_ASSERT(!cands.empty() && cands.size() <= kMaxRouteCandidates,
                    "router ", id_, " has ", cands.size(),
                    " route candidates for node ", dst);
        Route &r = routes_[dst];
        for (unsigned port : cands) {
            ANOC_ASSERT(port < n_ports_, "router ", id_, " routes node ",
                        dst, " to port ", port, " of ", n_ports_);
            r.port[r.n++] = static_cast<std::uint8_t>(port);
        }
    }

    slots_.resize(std::size_t{n_ports_} * cfg_.vcs * cfg_.vc_depth);
    in_.resize(n_ports_);
    out_.resize(n_ports_);
    grants_.resize(n_ports_);
    rr_vc_.resize(n_ports_, 0);
    Flit *ring = slots_.data();
    for (auto &ip : in_) {
        ip.vcs.resize(cfg_.vcs);
        for (auto &vb : ip.vcs) {
            vb.ring = ring;
            ring += cfg_.vc_depth;
        }
    }
    for (auto &op : out_)
        op.credits.assign(cfg_.vcs, cfg_.vc_depth);
}

void
Router::connectOutput(unsigned out_port, Router *peer, unsigned peer_in_port)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    out_[out_port].peer = peer;
    out_[out_port].peer_port = peer_in_port;
    peer->connectInput(peer_in_port, this, out_port);
}

void
Router::connectEjection(unsigned out_port, NetworkInterface *ni)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    out_[out_port].ni = ni;
}

void
Router::connectInput(unsigned in_port, FlitSource *up, unsigned up_port)
{
    ANOC_ASSERT(in_port < n_ports_, "input port out of range");
    in_[in_port].up = up;
    in_[in_port].up_port = up_port;
}

void
Router::setLinkInfo(unsigned out_port, unsigned dim, bool wrap)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    ANOC_ASSERT(cfg_.vcs % 2 == 0,
                "dateline VC classes need an even VC count");
    OutPort &op = out_[out_port];
    op.dim = dim;
    op.wrap = wrap;
    class_aware_ = true;
    if (op.peer) {
        op.peer->in_[op.peer_port].dim = dim;
        op.peer->class_aware_ = true;
    }
}

int
Router::allowedVcClass(const InPort &in, unsigned in_vc,
                       const OutPort &out) const
{
    if (!class_aware_ || out.isEjection())
        return -1; // unrestricted
    unsigned half = cfg_.vcs / 2;
    unsigned in_class = in_vc / half;
    if (out.wrap)
        return 1; // crossing the dateline
    if (out.dim != in.dim)
        return 0; // entering a new ring (or injected locally)
    return static_cast<int>(in_class);
}

unsigned
Router::selectRoute(NodeId dst) const
{
    ANOC_ASSERT(dst < routes_.size(), "router ", id_, ": destination ",
                dst, " out of range");
    const Route &r = routes_[dst];
    if (r.n == 1)
        return r.port[0];
    // Congestion-aware selection: the candidate whose downstream
    // buffers have the most free credits wins; ties keep preference
    // order.
    auto free_credits = [this](unsigned port) {
        unsigned n = 0;
        for (unsigned c : out_[port].credits)
            n += c;
        return n;
    };
    unsigned best = r.port[0];
    unsigned best_credits = free_credits(best);
    for (unsigned i = 1; i < r.n; ++i) {
        const unsigned credits = free_credits(r.port[i]);
        if (credits > best_credits) {
            best = r.port[i];
            best_credits = credits;
        }
    }
    return best;
}

void
Router::acceptFlit(unsigned in_port, unsigned vc, Flit f)
{
    ANOC_ASSERT(in_port < n_ports_ && vc < cfg_.vcs,
                "acceptFlit port/vc out of range");
    InPort &port = in_[in_port];
    VcBuf &buf = port.vcs[vc];
    ANOC_ASSERT(buf.size < cfg_.vc_depth,
                "buffer overflow at router ", id_, " port ", in_port,
                " vc ", vc, " — credit protocol violated");
    unsigned slot = buf.head + buf.size;
    if (slot >= cfg_.vc_depth)
        slot -= cfg_.vc_depth;
    buf.ring[slot] = std::move(f);
    ++buf.size;
    port.nonempty |= 1u << vc;
    busy_in_ |= 1u << in_port;
    ++buffered_;
    ++buffer_writes_;
    wake();
}

Flit
Router::popFlit(unsigned in_port, unsigned vc)
{
    InPort &port = in_[in_port];
    VcBuf &buf = port.vcs[vc];
    ANOC_ASSERT(buf.size > 0, "granted VC drained unexpectedly");
    Flit f = std::move(buf.ring[buf.head]);
    buf.head = nextWrapped(buf.head, cfg_.vc_depth);
    if (--buf.size == 0) {
        port.nonempty &= ~(1u << vc);
        if (port.nonempty == 0)
            busy_in_ &= ~(1u << in_port);
    }
    --buffered_;
    return f;
}

void
Router::creditReturn(unsigned out_port, unsigned vc)
{
    ANOC_ASSERT(out_port < n_ports_ && vc < cfg_.vcs,
                "creditReturn port/vc out of range");
    auto &c = out_[out_port].credits[vc];
    ANOC_ASSERT(c < cfg_.vc_depth, "credit overflow at router ", id_,
                " port ", out_port, " vc ", vc);
    ++c;
}

void
Router::evaluate(Cycle now)
{
    granted_ = 0;
    if (buffered_ == 0)
        return;

    const Cycle pipe = cfg_.router_stages - 1;
    const auto rr_in = static_cast<unsigned>(now % n_ports_);

    // Non-empty input ports in round-robin order from rr_in, and in
    // each the non-empty VCs from rr_vc_: the order a full ports x VCs
    // scan would meet them in, minus the empty buffers it skips.
    for (std::uint64_t ports = rotated(busy_in_, rr_in, n_ports_); ports;
         ports &= ports - 1) {
        const unsigned ip = lowestIndex(ports, rr_in, n_ports_);
        InPort &port = in_[ip];
        const unsigned vc0 = rr_vc_[ip];
        for (std::uint64_t vcs = rotated(port.nonempty, vc0, cfg_.vcs); vcs;
             vcs &= vcs - 1) {
            const unsigned vc = lowestIndex(vcs, vc0, cfg_.vcs);
            VcBuf &buf = port.vcs[vc];
            Flit &f = buf.ring[buf.head];
            if (f.arrival + pipe > now)
                continue; // still in BW/RC/VA stages

            if (f.isHead() && buf.route < 0)
                buf.route = static_cast<int>(selectRoute(f.pkt->dst));
            const unsigned op_idx = static_cast<unsigned>(buf.route);
            OutPort &op = out_[op_idx];
            ANOC_ASSERT(op.connected(), "route to unconnected port ", op_idx,
                        " at router ", id_);
            const std::uint32_t op_bit = 1u << op_idx;
            if (granted_ & op_bit)
                continue; // output already claimed this cycle

            if (op.isEjection()) {
                grants_[op_idx] = Grant{ip, vc};
                granted_ |= op_bit;
                break; // one flit per input port per cycle
            }

            if (f.isHead() && buf.out_vc < 0) {
                // VC allocation: claim a free downstream VC within the
                // class the dateline discipline permits.
                unsigned lo = 0, hi = cfg_.vcs;
                int cls = allowedVcClass(port, vc, op);
                if (cls >= 0) {
                    unsigned half = cfg_.vcs / 2;
                    lo = static_cast<unsigned>(cls) * half;
                    hi = lo + half;
                }
                for (unsigned dvc = lo; dvc < hi; ++dvc) {
                    if (!(op.vc_busy & (1u << dvc)) && op.credits[dvc] > 0) {
                        op.vc_busy |= 1u << dvc;
                        buf.out_vc = static_cast<int>(dvc);
                        ++vc_allocs_;
                        if (tracer_)
                            tracer_->instant(
                                telemetry::PacketTracer::routerTrack(id_),
                                "vc_alloc", now,
                                "{\"pkt\": " + std::to_string(f.pkt->id) +
                                    ", \"vc\": " + std::to_string(dvc) + "}");
                        break;
                    }
                }
                if (buf.out_vc < 0) {
                    ++vc_stalls_;
                    continue; // no VC available; try another VC/input
                }
            }
            if (buf.out_vc >= 0 &&
                op.credits[static_cast<unsigned>(buf.out_vc)] > 0) {
                grants_[op_idx] = Grant{ip, vc};
                granted_ |= op_bit;
                break;
            }
        }
    }
}

void
Router::advance(Cycle now)
{
    for (std::uint32_t pending = granted_; pending; pending &= pending - 1) {
        const unsigned op_idx =
            static_cast<unsigned>(std::countr_zero(pending));
        const Grant g = grants_[op_idx];
        InPort &port = in_[g.in_port];
        VcBuf &buf = port.vcs[g.vc];
        Flit f = popFlit(g.in_port, g.vc);
        ++flits_forwarded_;

        // Return the freed buffer slot upstream.
        if (port.up)
            port.up->creditReturn(port.up_port, g.vc);

        OutPort &op = out_[op_idx];
        const bool tail = f.is_tail;
        if (op.isEjection()) {
            op.ni->acceptEjectedFlit(std::move(f), now);
        } else {
            unsigned dvc = static_cast<unsigned>(buf.out_vc);
            ANOC_ASSERT(op.credits[dvc] > 0, "forwarding without credit");
            --op.credits[dvc];
            f.arrival = now + 1;
            bool head = f.isHead();
            std::uint64_t pkt_id = f.pkt->id;
            op.peer->acceptFlit(op.peer_port, dvc, std::move(f));
            ++link_traversals_;
            if (tracer_ && head)
                tracer_->instant(telemetry::PacketTracer::routerTrack(id_),
                                 "hop", now,
                                 "{\"pkt\": " + std::to_string(pkt_id) +
                                     ", \"to\": " +
                                     std::to_string(op.peer->id()) + "}");
            if (tail)
                op.vc_busy &= ~(1u << dvc);
        }
        if (tail) {
            buf.route = -1;
            buf.out_vc = -1;
        }
        rr_vc_[g.in_port] = nextWrapped(g.vc, cfg_.vcs);
    }
    if (buffered_ == 0)
        sleep(); // until acceptFlit() wakes it
}

} // namespace approxnoc
