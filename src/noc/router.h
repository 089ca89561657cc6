/**
 * @file
 * Input-buffered virtual-channel wormhole router with a three-stage
 * pipeline (paper Table 1). Flits become eligible for switch traversal
 * (router_stages - 1) cycles after buffer write, modelling BW/RC and
 * VA/SA; ST+LT moves them to the next hop in one cycle, so the
 * zero-load per-hop latency is router_stages cycles.
 *
 * Credit-based flow control: the upstream side of every link owns the
 * credit counters and the VC allocation state of the downstream input
 * buffer, which is the conventional arrangement.
 *
 * A cycle costs what is buffered, not ports x VCs: the router counts
 * its flits and keeps a mask of non-empty VCs per input port, so an
 * occupied router visits only its non-empty VCs, in round-robin order.
 * An empty router leaves the Simulator's active set until acceptFlit()
 * wakes it. The input-port scan starts at port `now % ports`, so
 * arbitration depends on the cycle number alone, however long the
 * router slept.
 *
 * Its state is flat: every VC's ring position, route, downstream VC
 * and front-flit ready cycle sit in one array, every credit in
 * another, and the ejection and wired output ports in two masks. So a
 * visit to a VC reads a flit only to compute a route (and the packet
 * ids the tracer prints), and an output port's links only to allocate
 * a VC or to send.
 */
#ifndef APPROXNOC_NOC_ROUTER_H
#define APPROXNOC_NOC_ROUTER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "noc/noc_config.h"
#include "noc/packet.h"
#include "sim/clocked.h"
#include "telemetry/packet_tracer.h"

namespace approxnoc {

class NetworkInterface;

/** One router's activity counts (power model, watchdog, telemetry), in
 *  a slot its Network owns and restarts with each measurement window. */
struct RouterCounts {
    std::uint64_t buffer_writes = 0;   ///< flits written into an input VC
    std::uint64_t vc_allocs = 0;
    /** Cycles a head flit wanted a downstream VC and none was free. */
    std::uint64_t vc_stalls = 0;
    std::uint64_t flits_forwarded = 0; ///< switch traversals
    std::uint64_t link_traversals = 0; ///< to a router, not an NI
};

/** The router proper. */
class Router : public Clocked
{
  public:
    /**
     * Computes the allowed output ports at router @p at towards
     * endpoint @p dst, in preference order. Deterministic algorithms
     * return one entry; partially adaptive ones return up to
     * kMaxRouteCandidates and the router picks the least congested
     * (most downstream credits) at route-compute time. Called only
     * while the router is built, once per endpoint, to fill its route
     * table.
     */
    using RouteFn = std::function<std::vector<unsigned>(RouterId at,
                                                        NodeId dst)>;

    /** Route candidates the table keeps per destination. */
    static constexpr unsigned kMaxRouteCandidates = 2;
    /** Ports, and VCs per port, are tracked in 32-bit masks. */
    static constexpr unsigned kMaxPorts = 32;
    static constexpr unsigned kMaxVcs = 32;
    /** Ring positions and credits are 8-bit counts. */
    static constexpr unsigned kMaxVcDepth = 255;
    /** A flit waits router_stages - 1 cycles per hop; this keeps that
     *  wait far inside the network's 50k-cycle deadlock window. */
    static constexpr unsigned kMaxStages = 1024;

    /** Panics unless @p cfg fits the limits above, with at least one
     *  VC, one buffer slot and one pipeline stage, and @p route gives
     *  every endpoint 1 to kMaxRouteCandidates in-range output ports.
     *  The router counts into @p counts, which must outlive it. */
    Router(RouterId id, const NocConfig &cfg, const RouteFn &route,
           RouterCounts *counts);

    RouterId id() const { return id_; }

    /** @name Wiring (done once by the Network builder) */
    ///@{
    /** Connect output @p out_port to @p peer's input @p peer_in_port. */
    void connectOutput(unsigned out_port, Router *peer, unsigned peer_in_port);
    /** Make output @p out_port an ejection port into @p ni. */
    void connectEjection(unsigned out_port, NetworkInterface *ni);
    /** Record who feeds input @p in_port (for credit returns): output
     *  @p up_port of router @p up, or the injection link of @p ni. */
    void connectInput(unsigned in_port, Router *up, unsigned up_port);
    void connectInput(unsigned in_port, NetworkInterface *ni);

    /**
     * Tag a link for dateline VC management (torus): @p out_port
     * travels dimension @p dim (0 = X, 1 = Y) and @p wrap marks the
     * wrap-around link; the matching downstream input is tagged too.
     * Enables class-aware VC allocation on this router.
     */
    void setLinkInfo(unsigned out_port, unsigned dim, bool wrap);
    ///@}

    /** @name Link interface (called by the upstream's advance phase) */
    ///@{
    /** Deposit a flit into input buffer (in_port, vc) and wake the
     *  router. Must have space. */
    void acceptFlit(unsigned in_port, unsigned vc, const Flit &f);
    /** Downstream returns one credit for (our output port, vc). */
    void creditReturn(unsigned out_port, unsigned vc);
    ///@}

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    /** Total buffered flits (drain detection); O(1). */
    std::size_t occupancy() const { return buffered_; }

    /** @name Counts of the current window (see RouterCounts) */
    ///@{
    std::uint64_t flitsForwarded() const { return counts_->flits_forwarded; }
    std::uint64_t vcStalls() const { return counts_->vc_stalls; }
    ///@}

    /**
     * Attach a lifecycle tracer (null detaches). The router emits
     * per-head-flit "vc_alloc" and "hop" instants on its own track;
     * when detached the hooks cost one null check each.
     */
    void bindTracer(telemetry::PacketTracer *t) { tracer_ = t; }

  private:
    /** One input VC, indexed in_port * vcs + vc. Its flits sit in
     *  ring_[index * vc_depth, (index + 1) * vc_depth). */
    struct VcState {
        Cycle ready = 0;          ///< front flit may leave from this cycle
        std::uint8_t head = 0;    ///< ring slot of the front flit
        std::uint8_t size = 0;    ///< flits buffered
        std::int8_t route = -1;   ///< output port of the packet at the front
        std::int8_t out_vc = -1;  ///< downstream VC allocated to that packet
    };
    /** Dimension tag for local/injection ports. */
    static constexpr unsigned kDimLocal = 0xFF;

    /** Who feeds an input: a router's output port, or an NI. */
    struct InPort {
        Router *up = nullptr;
        NetworkInterface *up_ni = nullptr;
        unsigned up_port = 0;
        unsigned dim = kDimLocal;
    };
    struct OutPort {
        Router *peer = nullptr;
        unsigned peer_port = 0;
        NetworkInterface *ni = nullptr;
        std::uint32_t vc_busy = 0; ///< bit v: downstream VC v allocated
        unsigned dim = kDimLocal;
        bool wrap = false;
    };
    struct Grant {
        unsigned in_port = 0;
        unsigned vc = 0;
    };
    /** Output ports towards one endpoint, in preference order. */
    struct Route {
        std::uint8_t n = 0;
        std::uint8_t port[kMaxRouteCandidates] = {};
    };

    RouterId id_;
    NocConfig cfg_;
    unsigned n_ports_;
    Cycle pipe_; ///< cycles a flit spends in BW/RC/VA before ST
    /** Route candidates per destination endpoint, built once. */
    std::vector<Route> routes_;

    std::vector<Flit> ring_;      ///< every VC's ring; never resized
    std::vector<VcState> vc_;     ///< per input VC
    std::vector<std::uint8_t> credits_; ///< per output port * vcs + VC
    std::vector<std::uint32_t> nonempty_; ///< per input port: bit v: VC v holds a flit
    std::vector<unsigned> rr_vc_; ///< per-input round-robin over VCs
    std::vector<InPort> in_;
    std::vector<OutPort> out_;
    std::vector<Grant> grants_; ///< per output port
    std::uint32_t granted_ = 0;   ///< bit p: grants_[p] is this cycle's
    std::uint32_t busy_in_ = 0;   ///< bit p: input p holds a flit
    std::uint32_t ejection_ = 0;  ///< bit p: output p feeds an NI
    std::uint32_t connected_ = 0; ///< bit p: output p is wired
    std::size_t buffered_ = 0;    ///< flits in all input buffers

    /** Downstream VC class a flit may allocate (dateline discipline). */
    int allowedVcClass(const InPort &in, unsigned in_vc,
                       const OutPort &out) const;

    /** Resolve the route candidates towards @p dst to one output port. */
    unsigned selectRoute(NodeId dst) const;

    /** Claim a free downstream VC of output @p op for the head flit at
     *  the front of input buffer (in_port, vc); false when none is
     *  free. */
    bool allocateVc(unsigned in_port, unsigned vc, unsigned op, Cycle now);

    /** Remove and return the front flit of input buffer (in_port, vc). */
    Flit popFlit(unsigned in_port, unsigned vc);

    /** Emit instant @p what with args {"pkt": pkt, "<key>": value} on
     *  this router's track; kept out of the hop path. */
    void trace(const char *what, Cycle now, std::uint64_t pkt,
               const char *key, unsigned value) const;

    bool class_aware_ = false; ///< any link tagged => dateline VCs on

    RouterCounts *counts_; ///< the network's slot for this router
    telemetry::PacketTracer *tracer_ = nullptr;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_ROUTER_H
