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
    RunningStat data_total_lat; ///< data packets only
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

    /** Clear every series/counter: starts a fresh measurement window
     * (BookSim-style warmup/measure methodology). */
    void reset();
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

    /** The codec's hardware activity counters (power model input). */
    CodecActivity codecActivity() const { return codec_->activity(); }

    NetworkInterface &ni(NodeId n) { return *nis_[n]; }
    Router &router(RouterId r) { return *routers_[r]; }

    /** Build a 1-flit control packet. */
    PacketPtr makeControlPacket(NodeId src, NodeId dst);
    /** Build a data packet carrying @p block (encoded at enqueue). */
    PacketPtr makeDataPacket(NodeId src, NodeId dst, DataBlock block);

    /** Enqueue at the source NI (convenience). */
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
    /** Aggregate router activity, for the power model. */
    std::uint64_t routerBufferWrites() const;
    std::uint64_t routerLinkTraversals() const;
    std::uint64_t routerFlitsForwarded() const;

    /** True when no packet is queued, in flight or unreassembled. */
    bool drained() const;

    /**
     * Full simulation report: end-to-end latencies (with p50/p99),
     * per-router activity, per-NI injection counts, codec activity and
     * quality — the gem5-style end-of-run stats dump.
     */
    void dumpStats(std::ostream &os, Cycle elapsed) const;

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;

    /**
     * Attach a telemetry bundle: routers and NIs get the tracer, the
     * codec gets its counters, the delivery path records the
     * approximation-error distribution, and (when sampling) the
     * network's occupancy/utilization/codec probes are registered.
     * Call before the run; everything stays null/off otherwise.
     */
    void bindTelemetry(telemetry::PointTelemetry &pt);

    /**
     * Attach the QoR error profile to the error ledger
     * (NetworkStats::quality), which records one signed relative error
     * per delivered word that differs from its precise word, on the
     * packet's src -> dst flow, at delivery. Survives stats().reset().
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
     * Export end-of-run state into @p reg: per-router and per-NI
     * activity counters, latency stats, codec activity and quality.
     * Pure pull — costs nothing during the run.
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

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;

    NetworkStats stats_;
    NetworkInterface::DeliveryFn user_delivery_;

    /** Lifecycle tracer + error histogram, null unless bound. */
    telemetry::PacketTracer *tracer_ = nullptr;
    Histogram *err_hist_ = nullptr;

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
