/**
 * @file
 * Adaptive compression on/off, after Jin et al. [17]: a wrapper codec
 * that monitors per-sender compression efficacy over a sliding window
 * and bypasses the inner encoder (sending raw blocks, saving the
 * matching energy and latency) while compression is not paying off,
 * probing periodically to re-enable it when the data changes.
 */
#ifndef APPROXNOC_COMPRESSION_ADAPTIVE_H
#define APPROXNOC_COMPRESSION_ADAPTIVE_H

#include <memory>
#include <vector>

#include "compression/codec.h"

namespace approxnoc {

/** Tunables for the adaptive wrapper. */
struct AdaptiveConfig {
    std::size_t n_nodes = 32;
    /** Blocks per efficacy-evaluation window. */
    std::uint32_t window_blocks = 32;
    /** Keep compressing only while raw/enc bit ratio >= this. */
    double min_ratio = 1.05;
    /** Blocks to stay off before probing again. */
    std::uint32_t off_blocks = 256;
    /** Blocks compressed during a probe. */
    std::uint32_t probe_blocks = 8;
};

/** The wrapper. Owns the inner codec. */
class AdaptiveCodec : public CodecSystem
{
  public:
    AdaptiveCodec(std::unique_ptr<CodecSystem> inner, AdaptiveConfig cfg);

    Scheme scheme() const override { return inner_->scheme(); }
    std::uint8_t rawKind() const override { return inner_->rawKind(); }

    /** Bypass while compression is off for @p src; otherwise forward
     * to the inner codec's encode() and score the window. */
    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    /** The wrapper adds no decode-side state, so this forwards to the
     * inner codec's decode(); raw-bypassed blocks decode there as
     * all-uncompressed words. */
    DataBlock
    decode(const EncodedBlock &enc, NodeId src, NodeId dst,
           Cycle now) override
    {
        return inner_->decode(enc, src, dst, now);
    }

    Cycle
    compressionLatency() const override
    {
        return inner_->compressionLatency();
    }
    Cycle
    decompressionLatency() const override
    {
        return inner_->decompressionLatency();
    }
    std::vector<Notification>
    drainNotifications(NodeId dst) override
    {
        return inner_->drainNotifications(dst);
    }
    CodecActivity activity() const override { return inner_->activity(); }
    std::uint64_t
    consistencyMismatches() const override
    {
        return inner_->consistencyMismatches();
    }
    bool
    setErrorThreshold(double pct) override
    {
        return inner_->setErrorThreshold(pct);
    }

    /** Bind both layers: bypassed raw blocks record here, the rest in
     * the inner codec. A delegated block is recorded exactly once. */
    void
    bindCounters(const CodecCounters &c) override
    {
        CodecSystem::bindCounters(c);
        inner_->bindCounters(c);
    }

    /** Both layers: the inner codec owns the apply-pending phase. */
    void bindProfiler(telemetry::PhaseProfiler *prof) override;

    CodecSystem &inner() { return *inner_; }

    /** True when sender @p src currently compresses (tests/stats). */
    bool compressionEnabled(NodeId src) const;

    /** Blocks that bypassed the inner encoder entirely. */
    std::uint64_t bypassedBlocks() const { return bypassed_; }

  private:
    enum class Mode : std::uint8_t { On, Off, Probe };

    struct SenderState {
        Mode mode = Mode::On;
        std::uint64_t window_raw_bits = 0;
        std::uint64_t window_enc_bits = 0;
        std::uint32_t window_count = 0;
        std::uint32_t off_count = 0;
    };

    void evaluateWindow(SenderState &s);

    std::unique_ptr<CodecSystem> inner_;
    AdaptiveConfig cfg_;
    /** Mode windows are per sender: encoder state keyed by src, as
     * CodecSystem documents. */
    std::vector<SenderState> senders_;
    /** The only cross-sender encode-side state. */
    std::uint64_t bypassed_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_COMPRESSION_ADAPTIVE_H
