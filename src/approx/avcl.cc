#include "approx/avcl.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/bits.h"
#include "common/relative_error.h"

namespace approxnoc {

ApproxDecision
avcl_analyze(const ErrorModel &model, Word w, DataType t)
{
    ApproxDecision d;
    if (!model.enabled())
        return d;

    switch (t) {
      case DataType::Int32: {
        std::int64_t v = static_cast<std::int32_t>(w);
        std::uint64_t magnitude = static_cast<std::uint64_t>(v < 0 ? -v : v);
        unsigned k = model.dontCareBits(magnitude);
        if (k > 31)
            k = 31;
        d.bypass = k == 0;
        d.dont_care_bits = k;
        return d;
      }
      case DataType::Float32: {
        if (Float32Fields::isSpecial(w))
            return d; // zero / denormal / inf / NaN: bypass
        // Significand = 1.mantissa scaled to an integer: the exponent
        // is scaled out, so the same integer logic applies.
        std::uint64_t significand =
            (1ull << Float32Fields::kMantissaBits) | Float32Fields::mantissa(w);
        unsigned k = model.dontCareBits(significand);
        if (k > Float32Fields::kMantissaBits)
            k = Float32Fields::kMantissaBits;
        d.bypass = k == 0;
        d.dont_care_bits = k;
        return d;
      }
      case DataType::Raw:
        return d;
    }
    return d;
}

double
avcl_relative_error(Word w, Word candidate, DataType t)
{
    // The admission check only cares about the magnitude (IEEE
    // division computes sign and magnitude independently, so this is
    // exactly the magnitude the error ledger measures).
    return std::fabs(signed_relative_error(w, candidate, t));
}

ApproxDecision
Avcl::analyze(Word w, DataType t)
{
    ++activations_;
    return avcl_analyze(model_, w, t);
}

TernaryPattern
Avcl::patternFor(Word w, DataType t)
{
    ApproxDecision d = analyze(w, t);
    Word mask = d.bypass ? 0 : low_mask32(d.dont_care_bits);
    return TernaryPattern{w, mask}.canonical();
}

} // namespace approxnoc
