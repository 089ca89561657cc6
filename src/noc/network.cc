#include "noc/network.h"

#include <algorithm>

#include "common/log.h"
#include "telemetry/error_profile.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

namespace {
/** Cycles between deadlock-watchdog samples; a power of two. */
constexpr Cycle kWatchdogPeriod = 1024;
/** Cycles without any flit movement (while loaded) before we panic. A
 *  whole number of sample periods, so the panic comes within one
 *  period of the window closing. */
constexpr Cycle kDeadlockWindow = 49 * kWatchdogPeriod;

/** Field @p f summed over every slot of @p slots. */
template <typename Slot>
std::uint64_t
total(const std::vector<Slot> &slots, std::uint64_t Slot::*f)
{
    std::uint64_t n = 0;
    for (const Slot &s : slots)
        n += s.*f;
    return n;
}
} // namespace

void
NetworkStats::reset()
{
    queue_lat.reset();
    net_lat.reset();
    decode_lat.reset();
    total_lat.reset();
    hops.reset();
    total_lat_hist.reset();
    packets_delivered.reset();
    data_packets_delivered.reset();
    notification_packets.reset();
    quality.reset();
    ++resets;
}

Network::Network(const NocConfig &cfg, CodecSystem *codec)
    : Clocked("network"), cfg_(cfg), codec_(codec),
      router_counts_(cfg.routers()), ni_counts_(cfg.nodes())
{
    ANOC_ASSERT(codec != nullptr, "Network requires a codec");
    ANOC_ASSERT(cfg_.routing != RoutingAlgo::WestFirst ||
                    cfg_.topology == Topology::Mesh,
                "west-first turn-model routing is only valid on a mesh");

    const Router::RouteFn route = [this](RouterId at, NodeId dst) {
        return routeFor(at, dst);
    };

    routers_.reserve(cfg_.routers());
    for (RouterId r = 0; r < cfg_.routers(); ++r)
        routers_.push_back(
            std::make_unique<Router>(r, cfg_, route, &router_counts_[r]));

    // Mesh links: both directions of every edge.
    for (RouterId r = 0; r < cfg_.routers(); ++r) {
        unsigned row = cfg_.rowOf(r), col = cfg_.colOf(r);
        if (col + 1 < cfg_.cols) {
            RouterId e = r + 1;
            routers_[r]->connectOutput(kEast, routers_[e].get(), kWest);
            routers_[e]->connectOutput(kWest, routers_[r].get(), kEast);
        }
        if (row + 1 < cfg_.rows) {
            RouterId s = r + cfg_.cols;
            routers_[r]->connectOutput(kSouth, routers_[s].get(), kNorth);
            routers_[s]->connectOutput(kNorth, routers_[r].get(), kSouth);
        }
    }

    if (cfg_.topology == Topology::Torus) {
        ANOC_ASSERT(cfg_.vcs % 2 == 0,
                    "torus dateline VCs need an even VC count");
        // Wrap-around links closing every row and column ring.
        for (unsigned row = 0; row < cfg_.rows; ++row) {
            if (cfg_.cols < 2)
                break;
            RouterId first = row * cfg_.cols;
            RouterId last = first + cfg_.cols - 1;
            routers_[last]->connectOutput(kEast, routers_[first].get(),
                                          kWest);
            routers_[first]->connectOutput(kWest, routers_[last].get(),
                                           kEast);
        }
        for (unsigned col = 0; col < cfg_.cols; ++col) {
            if (cfg_.rows < 2)
                break;
            RouterId first = col;
            RouterId last = (cfg_.rows - 1) * cfg_.cols + col;
            routers_[last]->connectOutput(kSouth, routers_[first].get(),
                                          kNorth);
            routers_[first]->connectOutput(kNorth, routers_[last].get(),
                                           kSouth);
        }
        // Tag every link with its dimension; the wrap links are the
        // datelines of their rings.
        for (RouterId r = 0; r < cfg_.routers(); ++r) {
            unsigned row = cfg_.rowOf(r), col = cfg_.colOf(r);
            routers_[r]->setLinkInfo(kEast, 0, col + 1 == cfg_.cols);
            routers_[r]->setLinkInfo(kWest, 0, col == 0);
            routers_[r]->setLinkInfo(kSouth, 1, row + 1 == cfg_.rows);
            routers_[r]->setLinkInfo(kNorth, 1, row == 0);
        }
    }

    // NIs: one per endpoint, on its router's local port.
    nis_.reserve(cfg_.nodes());
    for (NodeId n = 0; n < cfg_.nodes(); ++n) {
        auto ni = std::make_unique<NetworkInterface>(
            n, cfg_, codec_, &in_flight_, &ni_counts_[n]);
        RouterId r = cfg_.routerOf(n);
        unsigned port = kLocalBase + cfg_.localPortOf(n);
        ni->connectInjection(routers_[r].get(), port);
        routers_[r]->connectEjection(port, ni.get());
        ni->setDeliveryCallback([this](const PacketPtr &p, Cycle now) {
            onDelivery(p, now);
        });
        nis_.push_back(std::move(ni));
    }
}

void
Network::attach(Simulator &sim)
{
    for (auto &ni : nis_)
        sim.add(ni.get());
    for (auto &r : routers_)
        sim.add(r.get());
    sim.add(this);
}

std::vector<unsigned>
Network::routeFor(RouterId at, NodeId dst) const
{
    RouterId dest = cfg_.routerOf(dst);
    if (at == dest)
        return {kLocalBase + cfg_.localPortOf(dst)};
    unsigned ac = cfg_.colOf(at), dc = cfg_.colOf(dest);
    unsigned ar = cfg_.rowOf(at), dr = cfg_.rowOf(dest);

    // Per-dimension direction choice: on the torus the shorter way
    // around the ring, on the mesh the only way.
    auto col_dir = [&]() -> unsigned {
        if (cfg_.topology == Topology::Torus) {
            unsigned fwd = (dc + cfg_.cols - ac) % cfg_.cols;
            return fwd <= cfg_.cols - fwd ? kEast : kWest;
        }
        return dc > ac ? kEast : kWest;
    };
    auto row_dir = [&]() -> unsigned {
        if (cfg_.topology == Topology::Torus) {
            unsigned fwd = (dr + cfg_.rows - ar) % cfg_.rows;
            return fwd <= cfg_.rows - fwd ? kSouth : kNorth;
        }
        return dr > ar ? kSouth : kNorth;
    };

    switch (cfg_.routing) {
      case RoutingAlgo::YX:
        if (dr != ar)
            return {row_dir()};
        return {col_dir()};
      case RoutingAlgo::WestFirst:
        // Turn model: any westward component is resolved first and
        // exclusively; afterwards east/north/south combine adaptively.
        if (dc < ac)
            return {kWest};
        if (dc > ac && dr != ar)
            return {kEast, dr > ar ? kSouth : kNorth};
        if (dc > ac)
            return {kEast};
        return {row_dir()};
      case RoutingAlgo::XY:
        break;
    }
    // XY (Table 1 default): resolve the column first.
    if (dc != ac)
        return {col_dir()};
    return {row_dir()};
}

PacketPtr
Network::makeControlPacket(NodeId src, NodeId dst)
{
    auto p = std::make_shared<Packet>();
    p->id = next_packet_id_++;
    p->src = src;
    p->dst = dst;
    p->cls = PacketClass::Control;
    return p;
}

PacketPtr
Network::makeDataPacket(NodeId src, NodeId dst, DataBlock block)
{
    auto p = std::make_shared<Packet>();
    p->id = next_packet_id_++;
    p->src = src;
    p->dst = dst;
    p->cls = PacketClass::Data;
    p->precise = std::move(block);
    return p;
}

void
Network::inject(const PacketPtr &pkt, Cycle now)
{
    ANOC_ASSERT(pkt->src < cfg_.nodes() && pkt->dst < cfg_.nodes(),
                "packet endpoints out of range");
    ANOC_ASSERT(pkt->src != pkt->dst,
                "self-addressed packets never enter the network");
    nis_[pkt->src]->enqueue(pkt, now);
    if (pkt->cls == PacketClass::Data) {
        const EncodedBlock &enc = pkt->enc;
        ++codec_counts_.blocks_encoded;
        codec_counts_.hit_exact += enc.exactCompressedWords();
        codec_counts_.hit_approx += enc.approximatedWords();
        codec_counts_.miss_raw += enc.uncompressedWords();
        codec_counts_.bits_out += enc.bits();
    }
}

void
Network::startWindow(Cycle now)
{
    std::fill(router_counts_.begin(), router_counts_.end(), RouterCounts{});
    std::fill(ni_counts_.begin(), ni_counts_.end(), NiCounts{});
    stats_.reset();
    codec_counts_ = {};
    approx_error_.reset();
    activity_base_ = codec_->activity();
    window_start_ = now;
    if (telemetry::ErrorProfile *q = stats_.quality.errorProfile())
        q->clearSamples();
}

CodecActivity
Network::codecActivity() const
{
    CodecActivity a = codec_->activity();
    const CodecActivity &b = activity_base_;
    a.words_encoded -= b.words_encoded;
    a.words_decoded -= b.words_decoded;
    a.cam_searches -= b.cam_searches;
    a.cam_writes -= b.cam_writes;
    a.tcam_searches -= b.tcam_searches;
    a.tcam_writes -= b.tcam_writes;
    a.avcl_ops -= b.avcl_ops;
    return a;
}

void
Network::setDeliveryCallback(NetworkInterface::DeliveryFn fn)
{
    user_delivery_ = std::move(fn);
}

void
Network::onDelivery(const PacketPtr &pkt, Cycle now)
{
    if (pkt->cls == PacketClass::Data)
        decoded_.push_back(pkt->dst);
    stats_.queue_lat.add(static_cast<double>(pkt->queueLatency()));
    stats_.net_lat.add(static_cast<double>(pkt->netLatency()));
    stats_.decode_lat.add(static_cast<double>(pkt->decodeLatency()));
    stats_.total_lat.add(static_cast<double>(pkt->totalLatency()));
    stats_.total_lat_hist.add(static_cast<double>(pkt->totalLatency()));
    {
        // Router hops on the dimension-ordered path, plus one for the
        // ejection router (torus: the shorter way around each ring).
        RouterId s = cfg_.routerOf(pkt->src), d = cfg_.routerOf(pkt->dst);
        unsigned dx = cfg_.colOf(s) > cfg_.colOf(d)
                          ? cfg_.colOf(s) - cfg_.colOf(d)
                          : cfg_.colOf(d) - cfg_.colOf(s);
        unsigned dy = cfg_.rowOf(s) > cfg_.rowOf(d)
                          ? cfg_.rowOf(s) - cfg_.rowOf(d)
                          : cfg_.rowOf(d) - cfg_.rowOf(s);
        if (cfg_.topology == Topology::Torus) {
            dx = std::min(dx, cfg_.cols - dx);
            dy = std::min(dy, cfg_.rows - dy);
        }
        stats_.hops.add(static_cast<double>(dx + dy + 1));
    }
    stats_.packets_delivered.inc();
    if (pkt->cls == PacketClass::Data) {
        stats_.data_packets_delivered.inc();
        approx_error_.add(stats_.quality.record(
            pkt->precise, pkt->enc, pkt->delivered, pkt->src, pkt->dst));
    }
    if (tracer_) {
        // Reconstruct the packet's lifecycle spans from its timestamps:
        // queue+encode at the source, decode at the destination. The
        // trace writer re-sorts per track, so recording at delivery
        // time still yields monotonic tracks.
        const std::string args = "{\"pkt\": " + std::to_string(pkt->id) +
                                 ", \"src\": " + std::to_string(pkt->src) +
                                 ", \"dst\": " + std::to_string(pkt->dst) +
                                 "}";
        using telemetry::PacketTracer;
        tracer_->span(PacketTracer::nodeTrack(pkt->src), "queue+encode",
                      pkt->created, pkt->queueLatency(), args);
        tracer_->span(PacketTracer::nodeTrack(pkt->dst), "network",
                      pkt->inject_start, pkt->netLatency(), args);
        if (pkt->decode_done > pkt->eject_done)
            tracer_->span(PacketTracer::nodeTrack(pkt->dst), "decode",
                          pkt->eject_done, pkt->decodeLatency(), args);
    }
    if (user_delivery_)
        user_delivery_(pkt, now);
}

void
Network::bindTelemetry(telemetry::PointTelemetry &pt)
{
    if (telemetry::PacketTracer *t = pt.tracer()) {
        tracer_ = t;
        for (auto &r : routers_) {
            r->bindTracer(t);
            t->setThreadName(telemetry::PacketTracer::routerTrack(r->id()),
                             "router " + std::to_string(r->id()));
        }
        for (auto &ni : nis_) {
            ni->bindTracer(t);
            t->setThreadName(
                telemetry::PacketTracer::nodeTrack(ni->nodeId()),
                "node " + std::to_string(ni->nodeId()));
        }
    }

    if (telemetry::Sampler *s = pt.sampler()) {
        s->addProbe("net.router_occupancy",
                    [this] { return static_cast<double>(routerOccupancy()); });
        s->addProbe("net.link_traversals", [this] {
            return static_cast<double>(routerLinkTraversals());
        });
        s->addProbe("net.flits_injected", [this] {
            return static_cast<double>(flitsInjected());
        });
        s->addProbe("net.packets_delivered", [this] {
            return static_cast<double>(stats_.packets_delivered.value());
        });
        s->addProbe("net.mean_total_latency",
                    [this] { return stats_.total_lat.mean(); });
        s->addProbe("codec.words_encoded", [this] {
            return static_cast<double>(codecActivity().words_encoded);
        });
        s->addProbe("codec.hit_exact", [this] {
            return static_cast<double>(codec_counts_.hit_exact);
        });
        s->addProbe("codec.hit_approx", [this] {
            return static_cast<double>(codec_counts_.hit_approx);
        });
        s->addProbe("codec.miss_raw", [this] {
            return static_cast<double>(codec_counts_.miss_raw);
        });
        s->addProbe("quality.mean_rel_error",
                    [this] { return stats_.quality.meanRelativeError(); });
        if (telemetry::ErrorProfile *q = stats_.quality.errorProfile()) {
            s->addProbe("qor.samples", [q] {
                return static_cast<double>(q->samples());
            });
            s->addProbe("qor.mean_abs_rel_err",
                        [q] { return q->meanAbs(); });
            s->addProbe("qor.max_abs_rel_err", [q] { return q->maxAbs(); });
        }
        if (tracer_) {
            s->bindTracer(tracer_,
                          telemetry::PacketTracer::counterTrack());
            tracer_->setThreadName(telemetry::PacketTracer::counterTrack(),
                                   "counters");
        }
    }
}

void
Network::bindErrorProfile(telemetry::ErrorProfile *qor)
{
    stats_.quality.bindErrorProfile(qor);
}

void
Network::bindProfiler(telemetry::PhaseProfiler *prof)
{
    codec_->bindProfiler(prof);
    for (auto &ni : nis_)
        ni->bindProfiler(prof);
}

void
Network::collectTelemetry(telemetry::MetricRegistry &reg) const
{
    for (RouterId r = 0; r < router_counts_.size(); ++r) {
        const RouterCounts &c = router_counts_[r];
        telemetry::MetricScope rs = reg.scope("router." + std::to_string(r));
        rs.counter("buffer_writes").inc(c.buffer_writes);
        rs.counter("vc_allocs").inc(c.vc_allocs);
        rs.counter("vc_stalls").inc(c.vc_stalls);
        rs.counter("flits_forwarded").inc(c.flits_forwarded);
        rs.counter("link_traversals").inc(c.link_traversals);
    }
    for (NodeId n = 0; n < ni_counts_.size(); ++n) {
        const NiCounts &c = ni_counts_[n];
        telemetry::MetricScope ns = reg.scope("ni." + std::to_string(n));
        ns.counter("packets_injected").inc(c.packets_injected);
        ns.counter("packets_delivered").inc(c.packets_delivered);
        ns.counter("flits_injected").inc(c.flits_injected);
        ns.counter("data_flits_injected").inc(c.data_flits_injected);
    }

    telemetry::MetricScope net = reg.scope("net");
    net.counter("packets_delivered").inc(stats_.packets_delivered.value());
    net.counter("data_packets_delivered")
        .inc(stats_.data_packets_delivered.value());
    net.counter("notification_packets")
        .inc(stats_.notification_packets.value());
    net.stat("total_latency").merge(stats_.total_lat);
    net.stat("queue_latency").merge(stats_.queue_lat);
    net.stat("net_latency").merge(stats_.net_lat);
    net.stat("decode_latency").merge(stats_.decode_lat);
    net.stat("hops").merge(stats_.hops);
    reg.histogram("net.total_latency_hist", 4.0, 128)
        .merge(stats_.total_lat_hist);
    reg.histogram("net.approx_error", 0.001, 64).merge(approx_error_);

    const std::string scheme =
        telemetry::sanitize_component(to_string(codec_->scheme()));
    telemetry::MetricScope cs = reg.scope("codec." + scheme);
    cs.counter("blocks_encoded").inc(codec_counts_.blocks_encoded);
    cs.counter("blocks_decoded").inc(stats_.data_packets_delivered.value());
    cs.counter("hit_exact").inc(codec_counts_.hit_exact);
    cs.counter("hit_approx").inc(codec_counts_.hit_approx);
    cs.counter("miss_raw").inc(codec_counts_.miss_raw);
    cs.counter("bits_out").inc(codec_counts_.bits_out);
    const CodecActivity a = codecActivity();
    cs.counter("words_encoded").inc(a.words_encoded);
    cs.counter("words_decoded").inc(a.words_decoded);
    cs.counter("cam_searches").inc(a.cam_searches);
    cs.counter("cam_writes").inc(a.cam_writes);
    cs.counter("tcam_searches").inc(a.tcam_searches);
    cs.counter("tcam_writes").inc(a.tcam_writes);
    cs.counter("avcl_ops").inc(a.avcl_ops);
    cs.counter("mismatches").inc(codec_->consistencyMismatches());

    telemetry::MetricScope qs = reg.scope("quality");
    qs.stat("data_quality").add(stats_.quality.dataQuality());
    qs.stat("compression_ratio").add(stats_.quality.compressionRatio());
    qs.stat("exact_fraction").add(stats_.quality.exactEncodedFraction());
    qs.stat("approx_fraction").add(stats_.quality.approxEncodedFraction());
}

std::uint64_t
Network::flitsInjected() const
{
    return total(ni_counts_, &NiCounts::flits_injected);
}

std::uint64_t
Network::dataFlitsInjected() const
{
    return total(ni_counts_, &NiCounts::data_flits_injected);
}

std::size_t
Network::routerOccupancy() const
{
    std::size_t n = 0;
    for (const auto &r : routers_)
        n += r->occupancy();
    return n;
}

std::uint64_t
Network::routerBufferWrites() const
{
    return total(router_counts_, &RouterCounts::buffer_writes);
}

std::uint64_t
Network::routerLinkTraversals() const
{
    return total(router_counts_, &RouterCounts::link_traversals);
}

std::uint64_t
Network::routerFlitsForwarded() const
{
    return total(router_counts_, &RouterCounts::flits_forwarded);
}

void
Network::dumpStats(std::ostream &os, Cycle now) const
{
    const NetworkStats &s = stats_;
    const Cycle elapsed = now - window_start_;
    os << "---------- network stats (" << elapsed << " cycles) ----------\n";
    os << "packets.delivered        " << s.packets_delivered.value() << "\n";
    os << "packets.data             " << s.data_packets_delivered.value()
       << "\n";
    os << "packets.notifications    " << s.notification_packets.value()
       << "\n";
    os << "latency.total.mean       " << s.total_lat.mean() << "\n";
    os << "latency.total.p50        " << s.total_lat_hist.percentile(0.5)
       << "\n";
    os << "latency.total.p99        " << s.p99Latency() << "\n";
    os << "latency.queue.mean       " << s.queue_lat.mean() << "\n";
    os << "latency.network.mean     " << s.net_lat.mean() << "\n";
    os << "latency.decode.mean      " << s.decode_lat.mean() << "\n";
    os << "hops.mean                " << s.hops.mean() << "\n";
    os << "flits.injected           " << flitsInjected() << "\n";
    os << "flits.data               " << dataFlitsInjected() << "\n";
    if (elapsed > 0) {
        os << "throughput.flits_per_cycle_node "
           << static_cast<double>(flitsInjected()) /
                  (static_cast<double>(elapsed) * cfg_.nodes())
           << "\n";
    }
    os << "quality.data             " << s.quality.dataQuality() << "\n";
    os << "quality.compr_ratio      " << s.quality.compressionRatio()
       << "\n";
    os << "quality.exact_fraction   " << s.quality.exactEncodedFraction()
       << "\n";
    os << "quality.approx_fraction  " << s.quality.approxEncodedFraction()
       << "\n";
    os << "codec.mismatches         " << codec_->consistencyMismatches()
       << "\n";

    const CodecActivity a = codecActivity();
    os << "codec.words_encoded      " << a.words_encoded << "\n";
    os << "codec.cam_searches       " << a.cam_searches << "\n";
    os << "codec.tcam_searches      " << a.tcam_searches << "\n";
    os << "codec.avcl_ops           " << a.avcl_ops << "\n";

    os << "--- per router (buffer writes / switch traversals / links) ---\n";
    for (RouterId r = 0; r < router_counts_.size(); ++r) {
        const RouterCounts &c = router_counts_[r];
        os << "router" << r << "  " << c.buffer_writes << " / "
           << c.flits_forwarded << " / " << c.link_traversals << "\n";
    }
    os << "--- per NI (packets injected / delivered / queue depth) ---\n";
    for (const auto &ni : nis_) {
        os << "ni" << ni->nodeId() << "  " << ni->packetsInjected() << " / "
           << ni->packetsDelivered() << " / " << ni->queueDepth() << "\n";
    }
}

bool
Network::drained() const
{
    if (routerOccupancy() != 0)
        return false;
    for (const auto &ni : nis_)
        if (!ni->idle())
            return false;
    return true;
}

void
Network::evaluate(Cycle)
{
}

void
Network::advance(Cycle now)
{
    if (!decoded_.empty())
        drainDecoded(now);
    if (now % kWatchdogPeriod == 0)
        checkProgress(now);
}

void
Network::drainDecoded(Cycle now)
{
    // Inject dictionary update notifications as control packets, one
    // decoder endpoint at a time in ascending node order (the
    // per-destination drain API; each stream arrives in seq order, so
    // the injection order at any one NI matches the order its decoder
    // emitted). A decoder notifies only while decoding, so the
    // endpoints that decoded since the last drain hold every queued
    // notification: the same packets, in the same order, as draining
    // every endpoint every cycle.
    std::sort(decoded_.begin(), decoded_.end());
    decoded_.erase(std::unique(decoded_.begin(), decoded_.end()),
                   decoded_.end());
    for (NodeId d : decoded_) {
        for (const auto &n : codec_->drainNotifications(d)) {
            if (n.from == n.to)
                continue;
            auto p = makeControlPacket(n.from, n.to);
            stats_.notification_packets.inc();
            nis_[n.from]->enqueue(p, now);
        }
    }
    decoded_.clear();
}

void
Network::checkProgress(Cycle now)
{
    // Deadlock watchdog: flits buffered but nothing moved for a while.
    // Movement is seen at the first sample after it, so the panic comes
    // between kDeadlockWindow and kDeadlockWindow + kWatchdogPeriod
    // cycles after the last flit moved.
    const std::uint64_t progress = routerFlitsForwarded() + flitsInjected();
    if (progress != last_progress_count_) {
        last_progress_count_ = progress;
        last_progress_cycle_ = now;
    } else if (now - last_progress_cycle_ >= kDeadlockWindow &&
               routerOccupancy() > 0) {
        ANOC_PANIC("network deadlock: no flit movement for ",
                   now - last_progress_cycle_, " cycles with ",
                   routerOccupancy(), " flits buffered");
    }
}

} // namespace approxnoc
