/**
 * @file
 * Behavioural model of a ternary CAM (paper Sec. 4.2.1, after the
 * Agrawal & Sherwood TCAM model [1]): an entry stores a value and a
 * don't-care mask, and a key matches when it agrees with the value on
 * every care bit. The DI-VAXX encoder PMT stores approximate patterns
 * here; the exact-match CAM (tcam/cam.h) is a Tcam without don't-cares.
 *
 * The match engine is a flat scan over contiguous value and care words,
 * padded to groups of 32 entries (see groupMask()). RefTcam
 * (tcam/reference.h) is the naive specification that the differential
 * tests hold it to.
 */
#ifndef APPROXNOC_TCAM_TCAM_H
#define APPROXNOC_TCAM_TCAM_H

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace approxnoc {

/** Victim selection policy for a full CAM/TCAM. */
enum class ReplacementPolicy : std::uint8_t {
    Lru, ///< least recently used
    Lfu, ///< least frequently used (paper's frequency counters)
};

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
     * early. A caller that needs the full match set (DI-VAXX scanning
     * for a per-destination mapping) pays one probe, not two.
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
        for (std::size_t g = 0; g < valid_.size(); ++g) {
            std::uint32_t m = matchGroup(g, key);
            if (m && !hit) {
                hit = lowest(g, m);
                last_use_[*hit] = tick_;
                ++freq_[*hit];
            }
            for (; m; m &= m - 1)
                if (visit(lowest(g, m)))
                    return hit;
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
        return (valid_[slot / kGroup] >> (slot % kGroup)) & 1u;
    }
    TernaryPattern
    pattern(std::size_t slot) const
    {
        return TernaryPattern{value_[slot], static_cast<Word>(~care_[slot])};
    }
    std::uint64_t frequency(std::size_t slot) const { return freq_[slot]; }
    void touch(std::size_t slot);

    /** Number of valid entries; O(1), maintained by insert/erase/clear. */
    std::size_t validCount() const { return valid_count_; }

    std::uint64_t searches() const { return searches_; }
    /** Read-only probes (peek/searchAll/findPattern), counted apart
     * from searches() so diagnostics don't skew power accounting. */
    std::uint64_t peeks() const { return peeks_; }
    std::uint64_t writes() const { return writes_; }

  private:
    static constexpr std::size_t kGroup = 32;
    static constexpr std::array<std::uint32_t, kGroup> kBit = [] {
        std::array<std::uint32_t, kGroup> b{};
        for (std::size_t i = 0; i < kGroup; ++i)
            b[i] = 1u << i;
        return b;
    }();

    static std::size_t
    lowest(std::size_t g, std::uint32_t m)
    {
        return g * kGroup + static_cast<std::size_t>(std::countr_zero(m));
    }

    /**
     * Mask of group @p g's valid entries for which @p hit(value, care)
     * holds; bit i is slot g * 32 + i. Written as an OR of table bits
     * under all-ones/all-zeros lane masks so the compiler vectorizes
     * it (GCC 12 does with SSE2 at -O2): the obvious
     * `m |= uint32_t(hit) << i` stays scalar, because SSE2 has no
     * per-lane variable shift.
     */
    template <typename Hit>
    std::uint32_t
    groupMask(std::size_t g, Hit hit) const
    {
        const Word *v = value_.data() + g * kGroup;
        const Word *c = care_.data() + g * kGroup;
        std::uint32_t m = 0;
        for (std::size_t i = 0; i < kGroup; ++i)
            m |= kBit[i] & -static_cast<std::uint32_t>(hit(v[i], c[i]));
        return m & valid_[g];
    }

    std::uint32_t
    matchGroup(std::size_t g, Word key) const
    {
        return groupMask(g, [key](Word v, Word c) {
            return ((key ^ v) & c) == 0;
        });
    }

    /**
     * Victim when no invalid slot is free: the minimum-score entry
     * (LRU: oldest use tick; LFU: lowest frequency). Ties break
     * deterministically towards the lowest slot index.
     */
    std::size_t pickVictim() const;

    std::size_t capacity_;
    /** Canonical value (don't-care bits zero) and care mask (~mask) per
     * slot, padded to whole groups. */
    std::vector<Word> value_;
    std::vector<Word> care_;
    /** One valid mask per group; padding lanes are never valid. */
    std::vector<std::uint32_t> valid_;
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
};

} // namespace approxnoc

#endif // APPROXNOC_TCAM_TCAM_H
