/**
 * @file
 * Behavioural model of a ternary CAM: each entry stores a value and a
 * don't-care mask; a search key matches when it agrees with the value
 * on every *care* bit. The DI-VAXX encoder PMT stores approximate
 * patterns here (paper Sec. 4.2.1, after the Agrawal & Sherwood TCAM
 * model [1]).
 *
 * The match engine is bit-sliced, the standard software-TCAM technique
 * from the packet-classification literature: for every one of the 32
 * key-bit positions it keeps two occupancy bitmaps ("entries that match
 * a key whose bit is 0" / "... is 1"; a don't-care entry appears in
 * both). A search is then 32 ANDs over 64-entry bitmap chunks plus a
 * count-trailing-zeros, instead of one masked compare per entry, while
 * the per-slot LRU/LFU metadata is only touched on the hit slot. The
 * bitmaps are maintained incrementally on insert/erase/clear.
 *
 * The pre-bit-slicing naive implementation is retained as RefTcam
 * (tcam/reference.h) and serves as the executable specification in the
 * randomized differential tests.
 */
#ifndef APPROXNOC_TCAM_TCAM_H
#define APPROXNOC_TCAM_TCAM_H

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

#include "tcam/cam.h"
#include "tcam/match_kernel.h"

namespace approxnoc {

/** A ternary pattern: @c mask bits set are "x" (don't care). */
struct TernaryPattern {
    Word value = 0;
    Word mask = 0;

    /** True when @p key matches this pattern on all care bits. */
    bool
    matches(Word key) const
    {
        return ((key ^ value) & ~mask) == 0;
    }

    /** Canonical form: value bits under the mask forced to zero. */
    TernaryPattern
    canonical() const
    {
        return TernaryPattern{static_cast<Word>(value & ~mask), mask};
    }

    bool
    operator==(const TernaryPattern &o) const
    {
        return (value & ~mask) == (o.value & ~o.mask) && mask == o.mask;
    }

    /** Render as a bit string with 'x' for don't-care bits. */
    std::string toString(unsigned width = 32) const;
};

/**
 * Fixed-size TCAM with LRU/LFU replacement and activity counters.
 * Slot indices are stable so callers can keep parallel payload arrays.
 *
 * Counter semantics: search()/searchVisit() count towards searches()
 * (the power model's probe count); the side-effect-free probes — peek,
 * searchAll, findPattern, and the findPattern that victimFor/insert
 * perform internally — count towards peeks() instead, so read-only
 * diagnostics no longer inflate (or vanish from) the energy accounting.
 */
class Tcam
{
  public:
    Tcam(std::size_t n_entries, ReplacementPolicy policy = ReplacementPolicy::Lfu);

    std::size_t capacity() const { return capacity_; }

    /**
     * Search for the highest-priority (lowest-index) entry matching
     * @p key. Counts one search; touches only the hit slot's metadata.
     */
    std::optional<std::size_t>
    search(Word key)
    {
        return searchVisit(key, [](std::size_t) { return true; });
    }

    /**
     * Counted search that additionally visits *every* matching slot in
     * priority (ascending index) order: @p visit returns true to stop
     * early. The match bitmap is computed once, so a caller that needs
     * the full match set (DI-VAXX scanning for a per-destination
     * mapping) pays one probe, not two.
     *
     * Stats and LRU/LFU effects are identical to search(): one search
     * is counted and the lowest matching slot is touched, regardless of
     * where @p visit stops.
     *
     * @return the highest-priority matching slot, or nullopt on miss.
     */
    template <typename Fn>
    std::optional<std::size_t>
    searchVisit(Word key, Fn &&visit)
    {
        ++searches_;
        ++tick_;
        std::optional<std::size_t> hit;
        for (std::size_t c = 0; c < chunks_; ++c) {
            std::uint64_t m = matchChunk(key, c);
            if (!m)
                continue;
            if (!hit) {
                std::size_t first =
                    c * 64 + static_cast<std::size_t>(std::countr_zero(m));
                last_use_[first] = tick_;
                ++freq_[first];
                hit = first;
            }
            while (m) {
                std::size_t s =
                    c * 64 + static_cast<std::size_t>(std::countr_zero(m));
                m &= m - 1;
                if (visit(s))
                    return hit;
            }
        }
        return hit;
    }

    /** All matching slots, lowest index first (multi-match diagnostics).
     * Counts one peek. */
    std::vector<std::size_t> searchAll(Word key) const;

    /** Search without side effects. Counts one peek. */
    std::optional<std::size_t> peek(Word key) const;

    /** Find a slot storing exactly this ternary pattern. Counts one peek. */
    std::optional<std::size_t> findPattern(const TernaryPattern &p) const;

    /**
     * Insert @p p, reusing a slot holding the identical pattern or
     * replacing a victim. Counts one write (plus the internal
     * findPattern peek).
     */
    std::size_t insert(const TernaryPattern &p);

    /** Slot insert() would (re)use for @p p, without writing. */
    std::size_t victimFor(const TernaryPattern &p) const;

    void erase(std::size_t slot);
    void clear();

    bool
    valid(std::size_t slot) const
    {
        return (valid_bits_[slot >> 6] >> (slot & 63)) & 1u;
    }
    const TernaryPattern &pattern(std::size_t slot) const { return entries_[slot]; }
    void touch(std::size_t slot);

    /** Number of valid entries; O(1), maintained by insert/erase/clear. */
    std::size_t validCount() const { return valid_count_; }

    std::uint64_t searches() const { return searches_; }
    /** Read-only probes (peek/searchAll/findPattern), counted apart
     * from searches() so diagnostics don't skew power accounting. */
    std::uint64_t peeks() const { return peeks_; }
    std::uint64_t writes() const { return writes_; }

  private:
    /**
     * Victim when no invalid slot is free: the minimum-score entry
     * (LRU: oldest use tick; LFU: lowest frequency). Ties break
     * deterministically towards the lowest slot index.
     */
    std::size_t pickVictim() const;

    /** 64-entry match bitmap for chunk @p c: AND of the 32 key-bit
     * planes over the valid mask, zero as soon as no entry survives.
     * The chunk's planes are contiguous (see planes_), so the kernel
     * gets one base pointer and does no per-bit stride arithmetic;
     * which kernel runs (scalar x4 / AVX2) was resolved once in the
     * constructor and is bit-identical either way. */
    std::uint64_t
    matchChunk(Word key, std::size_t c) const
    {
        return match_fn_(planes_.data() + (c << 6), valid_bits_[c], key);
    }

    /** Rewrite slot @p slot's bits in all 64 planes; null @p p clears. */
    void writeSlotPlanes(std::size_t slot, const TernaryPattern *p);

    std::size_t capacity_;
    std::size_t chunks_; ///< ceil(capacity / 64) bitmap words
    std::vector<TernaryPattern> entries_;
    /** Bit-slice planes: plane (b, v) holds, for every slot, whether the
     * entry matches a key whose bit b equals v. Chunk-major so one
     * chunk's 64 planes are contiguous for the match kernels:
     * planes_[(chunk << 6) + (v << 5) + b] — a chunk's 32 zero-planes
     * first, then its 32 one-planes. */
    std::vector<std::uint64_t> planes_;
    std::vector<std::uint64_t> valid_bits_;
    std::vector<std::uint64_t> last_use_;
    std::vector<std::uint64_t> freq_;
    ReplacementPolicy policy_;
    std::size_t valid_count_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t searches_ = 0;
    /** Bumped by the const read-only probes (peek, searchAll,
     * findPattern). */
    mutable std::uint64_t peeks_ = 0;
    std::uint64_t writes_ = 0;
    /** Match kernel resolved once at construction (common/simd.h
     * request clamped by host capability); cached per instance so the
     * hot loop is one indirect call with no dispatch re-check. */
    simd::MatchFn match_fn_;
};

} // namespace approxnoc

#endif // APPROXNOC_TCAM_TCAM_H
