/**
 * @file
 * FP-VAXX (paper Sec. 4.1.1, Fig. 6): frequent-pattern compression with
 * approximate matching. The AVCL computes the per-word don't-care bits;
 * the remaining (shaded) bits must match a static pattern exactly.
 */
#ifndef APPROXNOC_APPROX_FP_VAXX_H
#define APPROXNOC_APPROX_FP_VAXX_H

#include "approx/avcl.h"
#include "compression/fpc.h"

namespace approxnoc {

/**
 * Which match wins when both an approximate high-priority pattern and
 * an exact lower-priority pattern exist. The paper's hardware always
 * takes the highest-priority pattern (PreferApprox), which it notes
 * costs accuracy at large thresholds without latency benefit
 * (Sec. 5.3.1); PreferExact is the ablation.
 */
enum class FpcPriorityMode : std::uint8_t {
    PreferApprox, ///< paper behaviour: priority order with don't-cares
    PreferExact,  ///< try exact table first, approximate only on miss
};

/** The FP-VAXX codec: stateless, shared by all nodes. */
class FpVaxxCodec : public CodecSystem
{
  public:
    explicit FpVaxxCodec(const ErrorModel &model,
                         FpcPriorityMode mode = FpcPriorityMode::PreferApprox)
        : avcl_(model), mode_(mode)
    {}

    Scheme scheme() const override { return Scheme::FpVaxx; }

    std::uint8_t
    rawKind() const override
    {
        return static_cast<std::uint8_t>(FpcPattern::Uncompressed);
    }

    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    /** Batched path: the per-word AVCL analysis is hoisted into one
     * precomputed don't-care array, so the zero-run extension inside
     * fpc_encode_block never re-analyzes a word at a run boundary.
     * Emits the same NR bits as encode(). */
    EncodedBlock encodeBlock(const DataBlock &block, NodeId src, NodeId dst,
                             Cycle now) override;
    EncodedBlock encodeSpan(const DataBlock &block, NodeId src, NodeId dst,
                            Cycle now, Arena &arena) override;
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;
    DecodedSpan decodeSpan(const EncodedBlock &enc, NodeId src, NodeId dst,
                           Cycle now, Arena &arena) override;

    const Avcl &avcl() const { return avcl_; }
    FpcPriorityMode priorityMode() const { return mode_; }

    bool
    setErrorThreshold(double pct) override
    {
        avcl_.setErrorModel(ErrorModel(pct, avcl_.errorModel().mode()));
        return true;
    }

    CodecActivity
    activity() const override
    {
        CodecActivity a = CodecSystem::activity();
        a.avcl_ops = avcl_.activations();
        // The static pattern table is matched once per encoded word.
        a.cam_searches = a.words_encoded;
        return a;
    }

  private:
    /** The one batched encode body behind encodeBlock()/encodeSpan():
     * hoisted AVCL analysis, NR storage on @p mr (null = heap). */
    EncodedBlock encodeImpl(const DataBlock &block, NodeId src, NodeId dst,
                            std::pmr::memory_resource *mr);

    /** Analysis logic shared by every encoder node. */
    Avcl avcl_;
    FpcPriorityMode mode_;
};

} // namespace approxnoc

#endif // APPROXNOC_APPROX_FP_VAXX_H
