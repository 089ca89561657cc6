/**
 * @file
 * The Approximate Value Compute Logic (paper Fig. 4): the data-type
 * aware datapath that turns a 32-bit word into a set of low-order
 * don't-care bits under the error threshold.
 *
 * Integers use their magnitude directly. Floats route only the mantissa
 * through the integer logic: the 23-bit mantissa is concatenated with
 * the implied leading 1 to form the significand, which scales out the
 * exponent; don't-care bits therefore only ever cover mantissa bits.
 * Words whose exponent is all zeros or all ones (zero, denormals,
 * infinities, NaNs) bypass approximation, as do non-approximable words.
 */
#ifndef APPROXNOC_APPROX_AVCL_H
#define APPROXNOC_APPROX_AVCL_H

#include <cstdint>

#include "common/types.h"

#include "approx/error_model.h"
#include "tcam/tcam.h"

namespace approxnoc {

/** Outcome of analyzing one word. */
struct ApproxDecision {
    /** True when the word must not be approximated at all. */
    bool bypass = true;
    /** Number of low-order word bits that are don't cares (0..23/31). */
    unsigned dont_care_bits = 0;
};

/**
 * The pure AVCL datapath: don't-care bits of @p w under @p model.
 * Free function so policies that vary the model per word (e.g. the
 * window-budget extension) can reuse it without an Avcl instance.
 */
ApproxDecision avcl_analyze(const ErrorModel &model, Word w, DataType t);

/**
 * Relative error of substituting @p candidate for @p w (integers by
 * magnitude, floats by significand; 0 when bits are equal).
 */
double avcl_relative_error(Word w, Word candidate, DataType t);

/** The AVCL datapath plus activity counters for the power model. */
class Avcl
{
  public:
    explicit Avcl(const ErrorModel &model) : model_(model) {}

    const ErrorModel &errorModel() const { return model_; }

    /**
     * Swap the error model at run time (the paper: the threshold "can
     * be dynamically adjusted at run time"). Takes effect on the next
     * analysis; DI-VAXX patterns already recorded keep their masks.
     */
    void setErrorModel(const ErrorModel &m) { model_ = m; }

    /**
     * Analyze @p w of type @p t: how many low bits may change?
     * Counts one AVCL activation.
     */
    ApproxDecision analyze(Word w, DataType t);

    /**
     * The APCL operation (paper Fig. 8): the ternary approximate
     * pattern of a reference word — its don't-care bits masked out —
     * used when recording a pattern in the DI-VAXX encoder TCAM.
     */
    TernaryPattern patternFor(Word w, DataType t);

    /** Total activations (power model input). */
    std::uint64_t activations() const { return activations_; }

  private:
    ErrorModel model_;
    /** One Avcl instance serves every encoder node of a codec; this
     * count is its only mutable state — the datapath itself is pure. */
    std::uint64_t activations_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_APPROX_AVCL_H
