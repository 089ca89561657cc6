/**
 * @file
 * The assembled NoC: a (concentrated) 2D mesh of routers with one NI
 * per endpoint, XY routing, the codec plugged into every NI, and
 * network-wide statistics (latency breakdown, flit counts, quality).
 */
#ifndef APPROXNOC_NOC_NETWORK_H
#define APPROXNOC_NOC_NETWORK_H

#include <memory>
#include <ostream>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "compression/codec.h"
#include "core/quality.h"
#include "noc/network_interface.h"
#include "noc/noc_config.h"
#include "noc/packet.h"
#include "noc/router.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace approxnoc {

/** Aggregated end-to-end statistics for one simulation. */
struct NetworkStats {
    RunningStat queue_lat;  ///< NI enqueue -> head injection
    RunningStat net_lat;    ///< head injection -> tail ejection
    RunningStat decode_lat; ///< ejection -> decompression done
    RunningStat total_lat;  ///< the paper's average packet latency
    RunningStat hops;       ///< routers traversed per packet
    Histogram total_lat_hist{4.0, 128}; ///< 4-cycle buckets to 512+
    Counter packets_delivered;
    Counter data_packets_delivered;
    Counter notification_packets;
    QualityTracker quality;
    /** reset() calls so far (never cleared): lets a reader that
     * differences the cumulative sums across cycles see a restart. */
    std::uint64_t resets = 0;

    /** Latency below which 99% of packets completed. */
    double p99Latency() const { return total_lat_hist.percentile(0.99); }

    /** Clear these series and counters only; Network::startWindow
     * restarts every count a run reports. */
    void reset();
};

/** The per-block codec counts (`codec.<scheme>.*`): each data block
 *  an NI encodes, tallied off its EncodedBlock at Network::inject.
 *  Its decodes are NetworkStats::data_packets_delivered. */
struct CodecBlockCounts {
    std::uint64_t blocks_encoded = 0;
    std::uint64_t hit_exact = 0;  ///< words compressed exactly
    std::uint64_t hit_approx = 0; ///< words changed by approximation
    std::uint64_t miss_raw = 0;   ///< words emitted uncompressed
    std::uint64_t bits_out = 0;   ///< total NR bits emitted
};

/** The network. Owns routers and NIs; the codec is borrowed. */
class Network : public Clocked
{
  public:
    /**
     * Every dictionary update notification travels as a 1-flit
     * control packet, so the network charges its cost.
     *
     * @param cfg topology and router parameters.
     * @param codec the compression/approximation system all NIs share.
     */
    Network(const NocConfig &cfg, CodecSystem *codec);

    /** Register every component with @p sim. Call once. */
    void attach(Simulator &sim);

    const NocConfig &config() const { return cfg_; }
    CodecSystem &codec() { return *codec_; }
    const CodecSystem &codec() const { return *codec_; }

    /**
     * Open a measurement window at cycle @p now: restart every count
     * the network reports (router and NI slots, NetworkStats, the
     * codec block counts, `net.approx_error`, the codec activity and
     * the bound ErrorProfile's samples). Fault counts
     * (consistencyMismatches(), ErrorProfile::violations()) keep
     * covering the whole run. A network starts with a window at 0.
     */
    void startWindow(Cycle now);
    Cycle windowStart() const { return window_start_; }

    /** The codec's hardware activity in the window (power model). */
    CodecActivity codecActivity() const;

    NetworkInterface &ni(NodeId n) { return *nis_[n]; }
    Router &router(RouterId r) { return *routers_[r]; }

    /** Build a 1-flit control packet. */
    PacketPtr makeControlPacket(NodeId src, NodeId dst);
    /** Build a data packet carrying @p block (encoded at enqueue). */
    PacketPtr makeDataPacket(NodeId src, NodeId dst, DataBlock block);

    /** Enqueue at the source NI, which encodes a data packet's block
     * there, and count that block (CodecBlockCounts). */
    void inject(const PacketPtr &pkt, Cycle now);

    /**
     * Additional per-delivery hook for traffic layers (stats are
     * recorded regardless).
     */
    void setDeliveryCallback(NetworkInterface::DeliveryFn fn);

    NetworkStats &stats() { return stats_; }
    const NetworkStats &stats() const { return stats_; }

    /** Total flits injected by all NIs. */
    std::uint64_t flitsInjected() const;
    /** Data-packet flits injected by all NIs (Fig. 11 metric). */
    std::uint64_t dataFlitsInjected() const;
    /** Sum of router buffered flits. */
    std::size_t routerOccupancy() const;
    /** Aggregate router activity in the window, for the power model. */
    std::uint64_t routerBufferWrites() const;
    std::uint64_t routerLinkTraversals() const;
    std::uint64_t routerFlitsForwarded() const;

    /** True when no packet is queued, in flight or unreassembled. */
    bool drained() const;

    /**
     * Full report of the window that ends at @p now: end-to-end
     * latencies (with p50/p99), per-router activity, per-NI injection
     * counts, codec activity and quality — the gem5-style end-of-run
     * stats dump.
     */
    void dumpStats(std::ostream &os, Cycle now) const;

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    /**
     * Attach a telemetry bundle: routers and NIs get the tracer, and
     * (when sampling) the network's occupancy/utilization/codec probes
     * are registered. Call before the run; everything stays null/off
     * otherwise. Every count is kept with or without it.
     */
    void bindTelemetry(telemetry::PointTelemetry &pt);

    /**
     * Attach the QoR error profile to the error ledger
     * (NetworkStats::quality), which records one signed relative error
     * per delivered word that differs from its precise word, on the
     * packet's src -> dst flow, at delivery. Survives startWindow(),
     * which clears its samples.
     * Call before bindTelemetry so the sampler (when enabled) also gets
     * live `qor.*` probes. Null detaches.
     */
    void bindErrorProfile(telemetry::ErrorProfile *qor);

    /**
     * Attach the self-profiler: forwarded to the codec
     * ("codec.apply_pending") and every NI ("ni.encode"/"ni.decode").
     * The Simulator's own bindProfiler covers the `sim.*` phases.
     */
    void bindProfiler(telemetry::PhaseProfiler *prof);

    /**
     * Export the window's counts into @p reg: per-router and per-NI
     * activity, latency stats, codec counts and activity, and quality.
     */
    void collectTelemetry(telemetry::MetricRegistry &reg) const;

  private:
    std::vector<unsigned> routeFor(RouterId at, NodeId dst) const;
    void onDelivery(const PacketPtr &pkt, Cycle now);
    /** Inject the notifications of the decoders listed in decoded_. */
    void drainDecoded(Cycle now);
    /** One deadlock-watchdog sample of the progress counters. */
    void checkProgress(Cycle now);

    NocConfig cfg_;
    CodecSystem *codec_;

    /** Owns each packet whose tail flit is in the network; declared
     *  before the routers and NIs, so it outlives their flits. */
    InFlightTable in_flight_;
    /** The slot each router and NI counts into; never resized, and
     *  declared before the components that point at them. */
    std::vector<RouterCounts> router_counts_;
    std::vector<NiCounts> ni_counts_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;

    /** The window's other counts; startWindow() restarts them all,
     *  with the slots. */
    NetworkStats stats_;
    CodecBlockCounts codec_counts_;
    Histogram approx_error_{0.001, 64}; ///< per-block mean |error|
    CodecActivity activity_base_; ///< codec_->activity() at window start
    Cycle window_start_ = 0;

    NetworkInterface::DeliveryFn user_delivery_;
    telemetry::PacketTracer *tracer_ = nullptr; ///< null unless bound

    std::uint64_t next_packet_id_ = 1;

    /** Destinations whose NI decoded a block since the last drain, in
     *  delivery order, repeats allowed. Notifications come only from
     *  decodes, so these are the only decoders that can hold any. */
    std::vector<NodeId> decoded_;

    /** Deadlock watchdog, sampled every kWatchdogPeriod cycles. */
    std::uint64_t last_progress_count_ = 0;
    Cycle last_progress_cycle_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_NETWORK_H
