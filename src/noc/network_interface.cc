#include "noc/network_interface.h"

#include "common/log.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

NetworkInterface::NetworkInterface(NodeId id, const NocConfig &cfg,
                                   CodecSystem *codec,
                                   InFlightTable *in_flight, NiCounts *counts)
    : Clocked("ni" + std::to_string(id)), id_(id), cfg_(cfg), codec_(codec),
      in_flight_(in_flight), credits_(cfg.vcs, cfg.vc_depth), counts_(counts)
{
    ANOC_ASSERT(codec != nullptr, "NI requires a codec (use BaselineCodec)");
    ANOC_ASSERT(in_flight != nullptr, "NI requires an in-flight table");
    ANOC_ASSERT(cfg_.vcs <= Router::kMaxVcs, "NI ", id_, ": ", cfg_.vcs,
                " VCs do not fit its VC mask");
}

void
NetworkInterface::connectInjection(Router *r, unsigned router_in_port)
{
    router_ = r;
    router_port_ = router_in_port;
    r->connectInput(router_in_port, this);
}

void
NetworkInterface::enqueue(const PacketPtr &pkt, Cycle now)
{
    pkt->created = now;
    Cycle ready = now;
    if (pkt->cls == PacketClass::Data) {
        // Encoder state is keyed by the source endpoint
        // (compression/codec.h): this NI encodes only as its own.
        ANOC_ASSERT(pkt->src == id_,
                    "NI must encode only as its own source endpoint");
        telemetry::PhaseProfiler::Scope prof(profiler_,
                                             telemetry::Phase::NiEncode);
        pkt->enc = codec_->encode(pkt->precise, pkt->src, pkt->dst, now);
        pkt->n_flits =
            1 + payload_flits(pkt->enc.bits(), cfg_.flit_bits);
        ready = now + codec_->compressionLatency();
    } else {
        pkt->n_flits = 1;
    }
    inj_q_.push_back(QueuedPacket{pkt, ready});
    wake();
}

void
NetworkInterface::creditReturn(unsigned vc)
{
    ANOC_ASSERT(vc < cfg_.vcs, "credit return vc out of range");
    ANOC_ASSERT(credits_[vc] < cfg_.vc_depth, "NI credit overflow");
    ++credits_[vc];
}

void
NetworkInterface::evaluate(Cycle now)
{
    send_this_cycle_ = false;
    if (!current_) {
        if (inj_q_.empty() || inj_q_.front().ready > now)
            return;
        current_ = std::move(inj_q_.front().pkt);
        inj_q_.pop_front();
        next_seq_ = 0;
        alloc_vc_ = -1;
    }
    if (next_seq_ == 0 && alloc_vc_ < 0) {
        for (unsigned vc = 0; vc < cfg_.vcs; ++vc) {
            if (!(vc_busy_ & (1u << vc)) && credits_[vc] > 0) {
                alloc_vc_ = static_cast<int>(vc);
                vc_busy_ |= 1u << vc;
                break;
            }
        }
    }
    if (alloc_vc_ >= 0 && credits_[static_cast<unsigned>(alloc_vc_)] > 0)
        send_this_cycle_ = true;
}

void
NetworkInterface::advance(Cycle now)
{
    if (send_this_cycle_)
        sendFlit(now);
    if (idle())
        sleep(); // until enqueue() wakes it
}

void
NetworkInterface::sendFlit(Cycle now)
{
    ANOC_ASSERT(current_ && router_, "NI advance without packet or router");
    const unsigned vc = static_cast<unsigned>(alloc_vc_);
    const bool tail = next_seq_ + 1 == current_->n_flits;

    ++counts_->flits_injected;
    if (current_->cls == PacketClass::Data)
        ++counts_->data_flits_injected;
    if (next_seq_ == 0) {
        current_->inject_start = now;
        ++counts_->packets_injected;
        if (tracer_)
            tracer_->instant(telemetry::PacketTracer::nodeTrack(id_),
                             "inject", now,
                             "{\"pkt\": " + std::to_string(current_->id) +
                                 ", \"dst\": " +
                                 std::to_string(current_->dst) + "}");
    }

    Flit f;
    f.pkt = current_.get();
    f.seq = next_seq_;
    f.is_tail = tail;
    f.arrival = now + 1;
    if (tail)
        in_flight_->adopt(std::move(current_));
    --credits_[vc];
    router_->acceptFlit(router_port_, vc, f);

    if (tail) {
        vc_busy_ &= ~(1u << vc);
        next_seq_ = 0;
        alloc_vc_ = -1;
    } else {
        ++next_seq_;
    }
}

void
NetworkInterface::acceptEjectedFlit(const Flit &f, Cycle now)
{
    ANOC_ASSERT(f.pkt->ejected_flits < f.pkt->n_flits,
                "packet over-ejected: duplicate flits");
    if (++f.pkt->ejected_flits < f.pkt->n_flits)
        return;

    ANOC_ASSERT(f.is_tail, "packet ", f.pkt->id,
                " reassembled before its tail flit ejected");
    const PacketPtr pkt = in_flight_->release(*f.pkt);
    pkt->eject_done = now;
    if (tracer_)
        tracer_->instant(telemetry::PacketTracer::nodeTrack(id_), "eject",
                         now,
                         "{\"pkt\": " + std::to_string(pkt->id) +
                             ", \"src\": " + std::to_string(pkt->src) + "}");
    if (pkt->cls == PacketClass::Data) {
        // Decoder state is keyed by the destination endpoint: this NI
        // decodes only as its own.
        ANOC_ASSERT(pkt->dst == id_,
                    "NI must decode only as its own destination endpoint");
        telemetry::PhaseProfiler::Scope prof(profiler_,
                                             telemetry::Phase::NiDecode);
        pkt->delivered = codec_->decode(pkt->enc, pkt->src, pkt->dst, now);
        pkt->decode_done = now + codec_->decompressionLatency();
    } else {
        pkt->decode_done = now;
    }
    ++counts_->packets_delivered;
    if (on_delivery_)
        on_delivery_(pkt, now);
}

bool
NetworkInterface::idle() const
{
    return inj_q_.empty() && !current_;
}

} // namespace approxnoc
