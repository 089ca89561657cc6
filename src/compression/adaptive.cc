#include "compression/adaptive.h"

#include "common/log.h"

namespace approxnoc {

AdaptiveCodec::AdaptiveCodec(std::unique_ptr<CodecSystem> inner,
                             AdaptiveConfig cfg)
    : inner_(std::move(inner)), cfg_(cfg), senders_(cfg.n_nodes)
{
    ANOC_ASSERT(inner_ != nullptr, "adaptive wrapper needs an inner codec");
    ANOC_ASSERT(cfg.window_blocks > 0 && cfg.probe_blocks > 0,
                "adaptive windows must be non-empty");
}

void
AdaptiveCodec::evaluateWindow(SenderState &s)
{
    double ratio = s.window_enc_bits > 0
                       ? static_cast<double>(s.window_raw_bits) /
                             static_cast<double>(s.window_enc_bits)
                       : 1.0;
    bool effective = ratio >= cfg_.min_ratio;
    if (s.mode == Mode::On && !effective) {
        s.mode = Mode::Off;
        s.off_count = 0;
    } else if (s.mode == Mode::Probe) {
        s.mode = effective ? Mode::On : Mode::Off;
        s.off_count = 0;
    }
    s.window_raw_bits = 0;
    s.window_enc_bits = 0;
    s.window_count = 0;
}

EncodedBlock
AdaptiveCodec::encode(const DataBlock &block, NodeId src, NodeId dst,
                      Cycle now)
{
    ANOC_ASSERT(src < senders_.size(), "sender out of range");
    SenderState &s = senders_[src];

    if (s.mode == Mode::Off) {
        if (++s.off_count >= cfg_.off_blocks) {
            s.mode = Mode::Probe;
            s.window_raw_bits = 0;
            s.window_enc_bits = 0;
            s.window_count = 0;
        } else {
            ++bypassed_;
            // Raw-block flag rides in the head flit, hence 32 bits/word.
            EncodedBlock raw = raw_encoded_block(block, inner_->rawKind());
            noteBlockEncoded(raw);
            return raw;
        }
    }

    EncodedBlock enc = inner_->encode(block, src, dst, now);
    s.window_raw_bits += block.sizeBits();
    s.window_enc_bits += enc.bits();
    ++s.window_count;
    std::uint32_t window =
        s.mode == Mode::Probe ? cfg_.probe_blocks : cfg_.window_blocks;
    if (s.window_count >= window)
        evaluateWindow(s);
    return enc;
}

void
AdaptiveCodec::bindProfiler(telemetry::PhaseProfiler *prof)
{
    CodecSystem::bindProfiler(prof);
    inner_->bindProfiler(prof);
}

bool
AdaptiveCodec::compressionEnabled(NodeId src) const
{
    return senders_[src].mode != Mode::Off;
}

} // namespace approxnoc
