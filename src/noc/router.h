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

/** Anything that owns an output link and its credits (router or NI). */
class FlitSource
{
  public:
    virtual ~FlitSource() = default;
    /** Downstream returns one credit for (our output port, vc). */
    virtual void creditReturn(unsigned out_port, unsigned vc) = 0;
};

/** The router proper. */
class Router : public Clocked, public FlitSource
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

    /** Panics unless @p route gives every endpoint 1 to
     *  kMaxRouteCandidates in-range output ports. */
    Router(RouterId id, const NocConfig &cfg, const RouteFn &route);

    RouterId id() const { return id_; }
    unsigned numPorts() const { return n_ports_; }

    /** @name Wiring (done once by the Network builder) */
    ///@{
    /** Connect output @p out_port to @p peer's input @p peer_in_port. */
    void connectOutput(unsigned out_port, Router *peer, unsigned peer_in_port);
    /** Make output @p out_port an ejection port into @p ni. */
    void connectEjection(unsigned out_port, NetworkInterface *ni);
    /** Record who feeds input @p in_port (for credit returns). */
    void connectInput(unsigned in_port, FlitSource *up, unsigned up_port);

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
    void acceptFlit(unsigned in_port, unsigned vc, Flit f);
    void creditReturn(unsigned out_port, unsigned vc) override;
    ///@}

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    /** Total buffered flits (drain detection); O(1). */
    std::size_t occupancy() const { return buffered_; }

    /** @name Activity counters (power model / watchdog) */
    ///@{
    std::uint64_t flitsForwarded() const { return flits_forwarded_; }
    std::uint64_t bufferWrites() const { return buffer_writes_; }
    std::uint64_t vcAllocations() const { return vc_allocs_; }
    std::uint64_t linkTraversals() const { return link_traversals_; }
    /** Cycles a head flit wanted a downstream VC and none was free. */
    std::uint64_t vcStalls() const { return vc_stalls_; }
    ///@}

    /**
     * Attach a lifecycle tracer (null detaches). The router emits
     * per-head-flit "vc_alloc" and "hop" instants on its own track;
     * when detached the hooks cost one null check each.
     */
    void bindTracer(telemetry::PacketTracer *t) { tracer_ = t; }

  private:
    /** One VC's input buffer: a fixed ring of vc_depth slots. */
    struct VcBuf {
        Flit *ring = nullptr; ///< vc_depth slots inside slots_
        unsigned head = 0;    ///< slot of the front flit
        unsigned size = 0;    ///< flits buffered
        int route = -1;  ///< output port of the packet at the head
        int out_vc = -1; ///< downstream VC allocated to that packet
    };
    /** Dimension tag for local/injection ports. */
    static constexpr unsigned kDimLocal = 0xFF;

    struct InPort {
        std::vector<VcBuf> vcs;
        std::uint32_t nonempty = 0; ///< bit v: vcs[v] holds a flit
        FlitSource *up = nullptr;
        unsigned up_port = 0;
        unsigned dim = kDimLocal;
    };
    struct OutPort {
        Router *peer = nullptr;
        unsigned peer_port = 0;
        NetworkInterface *ni = nullptr;
        std::uint32_t vc_busy = 0; ///< bit v: downstream VC v allocated
        std::vector<unsigned> credits;
        unsigned dim = kDimLocal;
        bool wrap = false;

        bool isEjection() const { return ni != nullptr; }
        bool connected() const { return peer != nullptr || ni != nullptr; }
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
    /** Route candidates per destination endpoint, built once. */
    std::vector<Route> routes_;

    std::vector<Flit> slots_; ///< every VC ring; never resized
    std::vector<InPort> in_;
    std::vector<OutPort> out_;
    std::vector<Grant> grants_; ///< per output port
    std::uint32_t granted_ = 0; ///< bit p: grants_[p] is this cycle's
    std::uint32_t busy_in_ = 0; ///< bit p: in_[p] holds a flit
    std::size_t buffered_ = 0;  ///< flits in all input buffers

    /** Downstream VC class a flit may allocate (dateline discipline). */
    int allowedVcClass(const InPort &in, unsigned in_vc,
                       const OutPort &out) const;

    /** Resolve the route candidates towards @p dst to one output port. */
    unsigned selectRoute(NodeId dst) const;

    /** Remove and return the front flit of input buffer (in_port, vc). */
    Flit popFlit(unsigned in_port, unsigned vc);

    std::vector<unsigned> rr_vc_; ///< per-input round-robin over VCs
    bool class_aware_ = false; ///< any link tagged => dateline VCs on

    std::uint64_t flits_forwarded_ = 0;
    std::uint64_t buffer_writes_ = 0;
    std::uint64_t vc_allocs_ = 0;
    std::uint64_t link_traversals_ = 0;
    std::uint64_t vc_stalls_ = 0;

    telemetry::PacketTracer *tracer_ = nullptr;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_ROUTER_H
