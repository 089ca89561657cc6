/**
 * @file
 * Window-based VAXX — the paper's stated future work (Sec. 7): instead
 * of bounding every word's error by the threshold, a *cumulative*
 * error budget is maintained over a window of words (here: the cache
 * block), so words that matched exactly donate their unused budget to
 * words that need a wider mask. Targeted at image/video data where a
 * per-frame error bound is the natural quality contract.
 *
 * The per-word allowance is capped at `per_word_cap` times the base
 * threshold so a single word can never absorb the whole window budget.
 */
#ifndef APPROXNOC_APPROX_WINDOW_VAXX_H
#define APPROXNOC_APPROX_WINDOW_VAXX_H

#include "approx/avcl.h"
#include "approx/fp_vaxx.h"
#include "compression/fpc.h"

namespace approxnoc {

/** FP-VAXX with a per-block cumulative error budget. */
class WindowVaxxCodec : public CodecSystem
{
  public:
    /**
     * @param model base error model; the window budget is
     *        model.thresholdPct() * words-per-block percent-words.
     * @param per_word_cap max per-word allowance as a multiple of the
     *        base threshold (>= 1).
     */
    explicit WindowVaxxCodec(const ErrorModel &model,
                             double per_word_cap = 4.0)
        : model_(model), per_word_cap_(per_word_cap)
    {}

    Scheme scheme() const override { return Scheme::FpVaxx; }

    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    EncodedBlock encodeSpan(const DataBlock &block, NodeId src, NodeId dst,
                            Cycle now, Arena &arena) override;
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;
    DecodedSpan decodeSpan(const EncodedBlock &enc, NodeId src, NodeId dst,
                           Cycle now, Arena &arena) override;

    const ErrorModel &errorModel() const { return model_; }
    double perWordCap() const { return per_word_cap_; }

    /** Cumulative relative error actually spent, per encoded block. */
    double lastBlockErrorSpent() const { return last_spent_; }

    bool
    setErrorThreshold(double pct) override
    {
        model_ = ErrorModel(pct, model_.mode());
        return true;
    }

  private:
    /** The one encode body behind encode()/encodeSpan(): budget walk
     * then fpc_encode_block with NR storage on @p mr (null = heap). */
    EncodedBlock encodeImpl(const DataBlock &block, NodeId src, NodeId dst,
                            std::pmr::memory_resource *mr);

    ErrorModel model_;
    double per_word_cap_;
    /** Diagnostic: the budget the last encode spent, whatever its src.
     * Read only by tests; not part of any artifact. */
    double last_spent_ = 0.0;
};

} // namespace approxnoc

#endif // APPROXNOC_APPROX_WINDOW_VAXX_H
