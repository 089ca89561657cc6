/**
 * @file
 * Behavioural model of a content-addressable memory: fixed entry count,
 * exact-match search, LRU/LFU replacement, activity counters for the
 * power model. Decoder PMTs and the FP-COMP pattern table use this.
 *
 * The match engine is hash-indexed: an open-addressed key -> slot map
 * shadows the entry array, so exact-match search is O(1) expected
 * instead of one compare per entry. The map is maintained incrementally
 * on insert/erase/clear and never influences replacement decisions —
 * victim selection stays a deterministic scan over slot order.
 *
 * The pre-hashing naive implementation is retained as RefCam
 * (tcam/reference.h) and serves as the executable specification in the
 * randomized differential tests.
 */
#ifndef APPROXNOC_TCAM_CAM_H
#define APPROXNOC_TCAM_CAM_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace approxnoc {

/** Victim selection policy for a full CAM/TCAM. */
enum class ReplacementPolicy : std::uint8_t {
    Lru, ///< least recently used
    Lfu, ///< least frequently used (paper's frequency counters)
};

/**
 * Exact-match CAM over 32-bit keys. Slots are stable: payloads are kept
 * by the caller in arrays parallel to the slot index.
 *
 * Counter semantics: search() counts towards searches() (the power
 * model's probe count); the side-effect-free probes — peek and the peek
 * that victimFor performs internally — count towards peeks() instead,
 * so read-only diagnostics neither inflate nor vanish from the energy
 * accounting.
 */
class Cam
{
  public:
    Cam(std::size_t n_entries, ReplacementPolicy policy = ReplacementPolicy::Lfu);

    std::size_t capacity() const { return entries_.size(); }

    /**
     * Search for @p key. Counts one search access; touches only the
     * hit slot's recency/frequency metadata.
     * @return matching slot, or nullopt on miss.
     */
    std::optional<std::size_t> search(Word key);

    /** Search without touching recency/frequency. Counts one peek. */
    std::optional<std::size_t> peek(Word key) const;

    /**
     * Insert @p key, reusing an existing matching slot or replacing a
     * victim. Counts one write access (plus the internal lookup peek).
     * @return the slot now holding @p key.
     */
    std::size_t insert(Word key);

    /** Pick the slot insert() would (re)use for @p key without writing.
     * Counts one peek. */
    std::size_t victimFor(Word key) const;

    /** Invalidate one slot. */
    void erase(std::size_t slot);
    /** Invalidate everything. */
    void clear();

    bool valid(std::size_t slot) const { return entries_[slot].valid; }
    Word key(std::size_t slot) const { return entries_[slot].key; }
    std::uint64_t frequency(std::size_t slot) const { return entries_[slot].freq; }

    /** Bump the frequency counter of a slot (dictionary training). */
    void touch(std::size_t slot);

    /** Number of valid entries; O(1), maintained by insert/erase/clear. */
    std::size_t validCount() const { return valid_count_; }

    /** Activity counters for the energy model. */
    std::uint64_t searches() const { return searches_; }
    /** Read-only probes (peek/victimFor), counted apart from searches()
     * so diagnostics don't skew power accounting. */
    std::uint64_t peeks() const { return peeks_; }
    std::uint64_t writes() const { return writes_; }

  private:
    struct Entry {
        bool valid = false;
        Word key = 0;
        std::uint64_t last_use = 0;
        std::uint64_t freq = 0;
    };

    static constexpr std::int32_t kEmpty = -1;
    static constexpr std::int32_t kTombstone = -2;
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    /**
     * Victim when no invalid slot is free: the minimum-score entry
     * (LRU: oldest use tick; LFU: lowest frequency). Ties break
     * deterministically towards the lowest slot index.
     */
    std::size_t pickVictim() const;

    /** Fibonacci-style 32-bit mix so clustered keys probe uniformly. */
    static std::uint32_t
    hashKey(Word k)
    {
        k ^= k >> 16;
        k *= 0x7feb352du;
        k ^= k >> 15;
        k *= 0x846ca68bu;
        k ^= k >> 16;
        return k;
    }

    /** Hash-probe for @p key; kNoSlot on miss. */
    std::size_t findSlot(Word key) const;
    /** Add key -> slot to the index (key must not be present). */
    void indexInsert(Word key, std::size_t slot);
    /** Drop key -> slot from the index (must be present). */
    void indexErase(Word key, std::size_t slot);
    /** Rebuild the index from the entry array (tombstone pressure). */
    void rebuildIndex();

    std::vector<Entry> entries_;
    /** Open-addressed buckets holding a slot index, kEmpty or
     * kTombstone; sized to a power of two >= 2x capacity. */
    std::vector<std::int32_t> index_;
    std::size_t index_mask_;
    std::size_t tombstones_ = 0;
    std::size_t valid_count_ = 0;
    ReplacementPolicy policy_;
    std::uint64_t tick_ = 0;
    std::uint64_t searches_ = 0;
    /** Bumped by the const read-only probes. */
    mutable std::uint64_t peeks_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_TCAM_CAM_H
