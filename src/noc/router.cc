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

Router::Router(RouterId id, const NocConfig &cfg, const RouteFn &route,
               RouterCounts *counts)
    : Clocked("router" + std::to_string(id)), id_(id), cfg_(cfg),
      n_ports_(kLocalBase + cfg.concentration),
      pipe_(cfg.router_stages - Cycle{1}), counts_(counts)
{
    ANOC_ASSERT(n_ports_ <= kMaxPorts && cfg_.vcs >= 1 &&
                    cfg_.vcs <= kMaxVcs,
                "router ", id_, ": ", n_ports_, " ports x ", cfg_.vcs,
                " VCs do not fit its ", kMaxPorts, " x ", kMaxVcs,
                " state masks");
    ANOC_ASSERT(cfg_.vc_depth >= 1 && cfg_.vc_depth <= kMaxVcDepth,
                "router ", id_, ": VC depth ", cfg_.vc_depth,
                " outside [1, ", kMaxVcDepth, "]");
    ANOC_ASSERT(cfg_.router_stages >= 1 && cfg_.router_stages <= kMaxStages,
                "router ", id_, ": ", cfg_.router_stages,
                " pipeline stages outside [1, ", kMaxStages, "]");

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

    const std::size_t n_vcs = std::size_t{n_ports_} * cfg_.vcs;
    ring_.resize(n_vcs * cfg_.vc_depth);
    vc_.resize(n_vcs);
    credits_.assign(n_vcs, static_cast<std::uint8_t>(cfg_.vc_depth));
    nonempty_.resize(n_ports_);
    rr_vc_.resize(n_ports_);
    in_.resize(n_ports_);
    out_.resize(n_ports_);
    grants_.resize(n_ports_);
}

void
Router::connectOutput(unsigned out_port, Router *peer, unsigned peer_in_port)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    out_[out_port].peer = peer;
    out_[out_port].peer_port = peer_in_port;
    connected_ |= 1u << out_port;
    peer->connectInput(peer_in_port, this, out_port);
}

void
Router::connectEjection(unsigned out_port, NetworkInterface *ni)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    out_[out_port].ni = ni;
    connected_ |= 1u << out_port;
    ejection_ |= 1u << out_port;
}

void
Router::connectInput(unsigned in_port, Router *up, unsigned up_port)
{
    ANOC_ASSERT(in_port < n_ports_, "input port out of range");
    in_[in_port].up = up;
    in_[in_port].up_port = up_port;
}

void
Router::connectInput(unsigned in_port, NetworkInterface *ni)
{
    ANOC_ASSERT(in_port < n_ports_, "input port out of range");
    in_[in_port].up_ni = ni;
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
    if (!class_aware_)
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
        for (unsigned v = 0; v < cfg_.vcs; ++v)
            n += credits_[port * cfg_.vcs + v];
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
Router::acceptFlit(unsigned in_port, unsigned vc, const Flit &f)
{
    ANOC_ASSERT(in_port < n_ports_ && vc < cfg_.vcs,
                "acceptFlit port/vc out of range");
    const unsigned vi = in_port * cfg_.vcs + vc;
    VcState &s = vc_[vi];
    ANOC_ASSERT(s.size < cfg_.vc_depth,
                "buffer overflow at router ", id_, " port ", in_port,
                " vc ", vc, " — credit protocol violated");
    unsigned slot = s.head + s.size;
    if (slot >= cfg_.vc_depth)
        slot -= cfg_.vc_depth;
    ring_[std::size_t{vi} * cfg_.vc_depth + slot] = f;
    if (s.size++ == 0)
        s.ready = f.arrival + pipe_;
    nonempty_[in_port] |= 1u << vc;
    busy_in_ |= 1u << in_port;
    ++counts_->buffer_writes;
    if (buffered_++ == 0)
        wake(); // a router holding flits never sleeps
}

Flit
Router::popFlit(unsigned in_port, unsigned vc)
{
    const unsigned vi = in_port * cfg_.vcs + vc;
    VcState &s = vc_[vi];
    ANOC_ASSERT(s.size > 0, "granted VC drained unexpectedly");
    const Flit *ring = &ring_[std::size_t{vi} * cfg_.vc_depth];
    const Flit f = ring[s.head];
    s.head = static_cast<std::uint8_t>(nextWrapped(s.head, cfg_.vc_depth));
    if (--s.size == 0) {
        nonempty_[in_port] &= ~(1u << vc);
        if (nonempty_[in_port] == 0)
            busy_in_ &= ~(1u << in_port);
    } else {
        s.ready = ring[s.head].arrival + pipe_;
    }
    --buffered_;
    return f;
}

void
Router::creditReturn(unsigned out_port, unsigned vc)
{
    ANOC_ASSERT(out_port < n_ports_ && vc < cfg_.vcs,
                "creditReturn port/vc out of range");
    std::uint8_t &c = credits_[out_port * cfg_.vcs + vc];
    ANOC_ASSERT(c < cfg_.vc_depth, "credit overflow at router ", id_,
                " port ", out_port, " vc ", vc);
    ++c;
}

void
Router::trace(const char *what, Cycle now, std::uint64_t pkt,
              const char *key, unsigned value) const
{
    tracer_->instant(telemetry::PacketTracer::routerTrack(id_), what, now,
                     "{\"pkt\": " + std::to_string(pkt) + ", \"" + key +
                         "\": " + std::to_string(value) + "}");
}

bool
Router::allocateVc(unsigned in_port, unsigned vc, unsigned op_idx, Cycle now)
{
    // Claim a free downstream VC within the class the dateline
    // discipline permits.
    OutPort &op = out_[op_idx];
    const unsigned vi = in_port * cfg_.vcs + vc;
    unsigned lo = 0, hi = cfg_.vcs;
    const int cls = allowedVcClass(in_[in_port], vc, op);
    if (cls >= 0) {
        const unsigned half = cfg_.vcs / 2;
        lo = static_cast<unsigned>(cls) * half;
        hi = lo + half;
    }
    const std::uint8_t *credits = &credits_[op_idx * cfg_.vcs];
    for (unsigned dvc = lo; dvc < hi; ++dvc) {
        if (!(op.vc_busy & (1u << dvc)) && credits[dvc] > 0) {
            op.vc_busy |= 1u << dvc;
            vc_[vi].out_vc = static_cast<std::int8_t>(dvc);
            ++counts_->vc_allocs;
            if (tracer_)
                trace("vc_alloc", now,
                      ring_[std::size_t{vi} * cfg_.vc_depth + vc_[vi].head]
                          .pkt->id,
                      "vc", dvc);
            return true;
        }
    }
    return false;
}

void
Router::evaluate(Cycle now)
{
    granted_ = 0;
    if (buffered_ == 0)
        return;

    const unsigned n_vcs = cfg_.vcs;
    const auto rr_in = static_cast<unsigned>(now % n_ports_);

    // Non-empty input ports in round-robin order from rr_in, and in
    // each the non-empty VCs from rr_vc_: the order a full ports x VCs
    // scan would meet them in, minus the empty buffers it skips.
    for (std::uint64_t ports = rotated(busy_in_, rr_in, n_ports_); ports;
         ports &= ports - 1) {
        const unsigned ip = lowestIndex(ports, rr_in, n_ports_);
        const unsigned vc0 = rr_vc_[ip];
        const unsigned base = ip * n_vcs;
        for (std::uint64_t vcs = rotated(nonempty_[ip], vc0, n_vcs); vcs;
             vcs &= vcs - 1) {
            const unsigned vc = lowestIndex(vcs, vc0, n_vcs);
            const unsigned vi = base + vc;
            VcState &s = vc_[vi];
            if (s.ready > now)
                continue; // still in BW/RC/VA stages

            // No route means a head flit is at the front.
            if (s.route < 0)
                s.route = static_cast<std::int8_t>(selectRoute(
                    ring_[std::size_t{vi} * cfg_.vc_depth + s.head]
                        .pkt->dst));
            const auto op_idx = static_cast<unsigned>(s.route);
            const std::uint32_t op_bit = 1u << op_idx;
            ANOC_ASSERT(connected_ & op_bit, "route to unconnected port ",
                        op_idx, " at router ", id_);
            if (granted_ & op_bit)
                continue; // output already claimed this cycle

            if (ejection_ & op_bit) {
                grants_[op_idx] = Grant{ip, vc};
                granted_ |= op_bit;
                break; // one flit per input port per cycle
            }

            // No downstream VC means a head flit is at the front.
            if (s.out_vc < 0 && !allocateVc(ip, vc, op_idx, now)) {
                ++counts_->vc_stalls;
                continue; // no VC available; try another VC/input
            }
            if (credits_[op_idx * n_vcs +
                         static_cast<unsigned>(s.out_vc)] > 0) {
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
        Flit f = popFlit(g.in_port, g.vc);
        ++counts_->flits_forwarded;

        // Return the freed buffer slot upstream.
        const InPort &in = in_[g.in_port];
        if (in.up)
            in.up->creditReturn(in.up_port, g.vc);
        else if (in.up_ni)
            in.up_ni->creditReturn(g.vc);

        OutPort &op = out_[op_idx];
        VcState &s = vc_[g.in_port * cfg_.vcs + g.vc];
        const bool tail = f.is_tail;
        if (ejection_ & (1u << op_idx)) {
            // The NI may release the packet: f.pkt is not read after.
            op.ni->acceptEjectedFlit(f, now);
        } else {
            const auto dvc = static_cast<unsigned>(s.out_vc);
            std::uint8_t &c = credits_[op_idx * cfg_.vcs + dvc];
            ANOC_ASSERT(c > 0, "forwarding without credit");
            --c;
            f.arrival = now + 1;
            op.peer->acceptFlit(op.peer_port, dvc, f);
            ++counts_->link_traversals;
            if (tracer_ && f.isHead())
                trace("hop", now, f.pkt->id, "to", op.peer->id());
            if (tail)
                op.vc_busy &= ~(1u << dvc);
        }
        if (tail) {
            s.route = -1;
            s.out_vc = -1;
        }
        rr_vc_[g.in_port] = nextWrapped(g.vc, cfg_.vcs);
    }
    if (buffered_ == 0)
        sleep(); // until acceptFlit() wakes it
}

} // namespace approxnoc
