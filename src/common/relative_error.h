/**
 * @file
 * Signed per-word relative error between a precise word and an
 * approximation candidate. This is the single definition of "relative
 * error": the AVCL admission checks use its magnitude
 * (`avcl_relative_error`), and the error ledger
 * (QualityTracker::record) measures every delivered word with it,
 * keeping the sign so over- and under-approximation are
 * distinguishable in the QoR profile.
 */
#ifndef APPROXNOC_COMMON_RELATIVE_ERROR_H
#define APPROXNOC_COMMON_RELATIVE_ERROR_H

#include "common/types.h"

namespace approxnoc {

/**
 * Relative error of @p candidate w.r.t. the precise word @p w under
 * data type @p t, signed: positive when the candidate overshoots the
 * precise value, negative when it undershoots.
 *
 * Conventions:
 * - equal bits are error 0;
 * - Int32: (c - w) / |w|; a zero precise word yields ±1 by direction;
 * - Float32: specials (zero/denormal/inf/NaN) must never be
 *   substituted and count as +1; same exponent+sign compares scaled
 *   significands, otherwise the actual float values are compared;
 * - Raw data has no value semantics: any flip counts as +1.
 */
double signed_relative_error(Word w, Word candidate, DataType t);

} // namespace approxnoc

#endif // APPROXNOC_COMMON_RELATIVE_ERROR_H
