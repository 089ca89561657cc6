/**
 * @file
 * The network interface (paper Fig. 1): packetization, the VAXX +
 * compression encoder on the injection path, flit-by-flit injection
 * under credit flow control, and reassembly + decompression on the
 * ejection path.
 *
 * Compression latency overlaps NI queueing: a packet becomes eligible
 * for injection compressionLatency() cycles after enqueue, so the
 * overhead is hidden whenever packets are already waiting (paper
 * Sec. 4.3's optimization).
 */
#ifndef APPROXNOC_NOC_NETWORK_INTERFACE_H
#define APPROXNOC_NOC_NETWORK_INTERFACE_H

#include <deque>
#include <functional>

#include "common/types.h"
#include "compression/codec.h"
#include "noc/noc_config.h"
#include "noc/packet.h"
#include "noc/router.h"
#include "sim/clocked.h"
#include "telemetry/packet_tracer.h"

namespace approxnoc {

/** One node's NI. */
class NetworkInterface : public Clocked, public FlitSource
{
  public:
    using DeliveryFn = std::function<void(const PacketPtr &, Cycle)>;

    NetworkInterface(NodeId id, const NocConfig &cfg, CodecSystem *codec);

    NodeId nodeId() const { return id_; }

    /** Wire the injection link into @p r's input @p router_in_port. */
    void connectInjection(Router *r, unsigned router_in_port);

    /** Invoked (once per packet) when the tail ejects and decode ends. */
    void setDeliveryCallback(DeliveryFn fn) { on_delivery_ = std::move(fn); }

    /**
     * Hand a packet to the NI and wake it. Data packets are encoded
     * immediately (approximation + compression) which fixes their flit
     * count; the packet becomes injectable after the compression
     * latency.
     */
    void enqueue(const PacketPtr &pkt, Cycle now);

    /** Ejection-side link interface, called by the router's advance;
     *  the flit and its packet reference are moved in. */
    void acceptEjectedFlit(Flit f, Cycle now);

    void creditReturn(unsigned out_port, unsigned vc) override;

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    /** True when nothing is queued or in flight at this NI. An idle NI
     *  leaves the Simulator's active set until enqueue() wakes it. */
    bool idle() const;

    /** Packets waiting in the injection queue. */
    std::size_t queueDepth() const { return inj_q_.size(); }

    /**
     * Attach a lifecycle tracer (null detaches). The NI emits "inject"
     * and "eject" instants on its endpoint track; when detached the
     * hooks cost one null check each.
     */
    void bindTracer(telemetry::PacketTracer *t) { tracer_ = t; }

    /**
     * Attach the self-profiler (null detaches): the codec calls on
     * the injection ("ni.encode") and ejection ("ni.decode") paths
     * are timed. Disabled, each site costs one null check.
     */
    void bindProfiler(telemetry::PhaseProfiler *p);

    /** @name Activity counters */
    ///@{
    std::uint64_t flitsInjected() const { return flits_injected_; }
    std::uint64_t dataFlitsInjected() const { return data_flits_injected_; }
    std::uint64_t packetsInjected() const { return packets_injected_; }
    std::uint64_t packetsDelivered() const { return packets_delivered_; }
    ///@}

  private:
    struct QueuedPacket {
        PacketPtr pkt;
        Cycle ready; ///< earliest injection cycle (compression done)
    };

    /** Inject the next flit of current_; advance() calls it when
     *  evaluate() decided to send this cycle. */
    void sendFlit(Cycle now);

    NodeId id_;
    NocConfig cfg_;
    CodecSystem *codec_; ///< shared by every NI of the network
    Router *router_ = nullptr;
    unsigned router_port_ = 0;

    std::deque<QueuedPacket> inj_q_;
    PacketPtr current_;       ///< packet mid-injection
    unsigned next_seq_ = 0;   ///< next flit of current_
    int alloc_vc_ = -1;       ///< VC allocated for current_
    std::uint32_t vc_busy_ = 0; ///< bit v: VC v carries current_
    std::vector<unsigned> credits_;
    bool send_this_cycle_ = false; ///< evaluate() decision

    DeliveryFn on_delivery_;
    telemetry::PacketTracer *tracer_ = nullptr;
    telemetry::PhaseProfiler *profiler_ = nullptr;
    std::size_t ph_encode_ = 0;
    std::size_t ph_decode_ = 0;

    std::uint64_t flits_injected_ = 0;
    std::uint64_t data_flits_injected_ = 0;
    std::uint64_t packets_injected_ = 0;
    std::uint64_t packets_delivered_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_NETWORK_INTERFACE_H
