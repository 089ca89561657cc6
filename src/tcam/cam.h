/**
 * @file
 * Behavioural model of a content-addressable memory: exact-match
 * search, LRU/LFU replacement and activity counters for the power
 * model. Decoder PMTs and the FP-COMP pattern table use it.
 *
 * A CAM is a TCAM whose entries have no don't-care bits, so Cam is a
 * Tcam (tcam/tcam.h) that stores every key with an empty mask: the same
 * match engine, replacement bookkeeping and counters. RefCam
 * (tcam/reference.h) is its naive specification.
 */
#ifndef APPROXNOC_TCAM_CAM_H
#define APPROXNOC_TCAM_CAM_H

#include "tcam/tcam.h"

namespace approxnoc {

/**
 * Exact-match CAM over 32-bit keys. Slots are stable: payloads are kept
 * by the caller in arrays parallel to the slot index. search() counts
 * towards searches(); peek, and the lookup inside victimFor/insert,
 * count towards peeks(), as in Tcam.
 */
class Cam : private Tcam
{
  public:
    using Tcam::Tcam;
    using Tcam::capacity, Tcam::clear, Tcam::erase, Tcam::frequency,
        Tcam::peek, Tcam::peeks, Tcam::search, Tcam::searches, Tcam::touch,
        Tcam::valid, Tcam::validCount, Tcam::writes;

    /** Insert @p key, reusing the slot that holds it or replacing a
     * victim. Counts one write. @return the slot now holding @p key. */
    std::size_t insert(Word key) { return Tcam::insert({key, 0}); }

    /** The slot insert() would (re)use for @p key, without writing. */
    std::size_t victimFor(Word key) const { return Tcam::victimFor({key, 0}); }

    Word key(std::size_t slot) const { return pattern(slot).value; }
};

} // namespace approxnoc

#endif // APPROXNOC_TCAM_CAM_H
