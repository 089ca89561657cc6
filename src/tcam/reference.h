/**
 * @file
 * Naive reference implementations of the Tcam and Cam match engines:
 * the pre-optimization one-compare-per-entry code, kept as the
 * executable specification for the bit-sliced / hash-indexed engines.
 * The randomized differential tests drive both side by side and assert
 * identical hit slots, victim choices and activity counters.
 *
 * Counter semantics deliberately mirror tcam.h / cam.h: search() and
 * searchVisit() count searches; peek/searchAll/findPattern/victimFor
 * count peeks. Everything here is intentionally O(entries) per probe —
 * do not "fix" that; simplicity is the point.
 */
#ifndef APPROXNOC_TCAM_REFERENCE_H
#define APPROXNOC_TCAM_REFERENCE_H

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/log.h"
#include "common/types.h"

#include "tcam/tcam.h"

namespace approxnoc {

/** Reference TCAM: linear scan over every entry on each probe. */
class RefTcam
{
  public:
    explicit RefTcam(std::size_t n_entries,
                     ReplacementPolicy policy = ReplacementPolicy::Lfu)
        : entries_(n_entries), valids_(n_entries, false),
          last_use_(n_entries, 0), freq_(n_entries, 0), policy_(policy)
    {
        ANOC_ASSERT(n_entries > 0, "TCAM must have at least one entry");
    }

    std::size_t capacity() const { return entries_.size(); }

    std::optional<std::size_t>
    search(Word key)
    {
        return searchVisit(key, [](std::size_t) { return true; });
    }

    template <typename Fn>
    std::optional<std::size_t>
    searchVisit(Word key, Fn &&visit)
    {
        ++searches_;
        ++tick_;
        std::optional<std::size_t> hit;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (!valids_[i] || !entries_[i].matches(key))
                continue;
            if (!hit) {
                last_use_[i] = tick_;
                ++freq_[i];
                hit = i;
            }
            if (visit(i))
                return hit;
        }
        return hit;
    }

    std::vector<std::size_t>
    searchAll(Word key) const
    {
        ++peeks_;
        std::vector<std::size_t> hits;
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (valids_[i] && entries_[i].matches(key))
                hits.push_back(i);
        return hits;
    }

    std::optional<std::size_t>
    peek(Word key) const
    {
        ++peeks_;
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (valids_[i] && entries_[i].matches(key))
                return i;
        return std::nullopt;
    }

    std::optional<std::size_t>
    findPattern(const TernaryPattern &p) const
    {
        ++peeks_;
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (valids_[i] && entries_[i] == p)
                return i;
        return std::nullopt;
    }

    std::size_t
    insert(const TernaryPattern &p)
    {
        ++writes_;
        ++tick_;
        std::size_t slot;
        if (auto existing = findPattern(p)) {
            slot = *existing;
            ++freq_[slot];
        } else {
            slot = pickVictim();
            freq_[slot] = 1;
        }
        if (!valids_[slot]) {
            valids_[slot] = true;
            ++valid_count_;
        }
        entries_[slot] = p.canonical();
        last_use_[slot] = tick_;
        return slot;
    }

    std::size_t
    victimFor(const TernaryPattern &p) const
    {
        if (auto existing = findPattern(p))
            return *existing;
        return pickVictim();
    }

    void
    erase(std::size_t slot)
    {
        ANOC_ASSERT(slot < entries_.size(), "TCAM slot out of range");
        if (valids_[slot]) {
            valids_[slot] = false;
            --valid_count_;
        }
        entries_[slot] = TernaryPattern{};
        last_use_[slot] = 0;
        freq_[slot] = 0;
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            erase(i);
    }

    void
    touch(std::size_t slot)
    {
        ANOC_ASSERT(slot < entries_.size(), "TCAM slot out of range");
        ++tick_;
        last_use_[slot] = tick_;
        ++freq_[slot];
    }

    bool valid(std::size_t slot) const { return valids_[slot]; }
    const TernaryPattern &pattern(std::size_t slot) const { return entries_[slot]; }
    std::size_t validCount() const { return valid_count_; }
    std::uint64_t searches() const { return searches_; }
    std::uint64_t peeks() const { return peeks_; }
    std::uint64_t writes() const { return writes_; }

  private:
    std::size_t
    pickVictim() const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (!valids_[i])
                return i;
        std::size_t victim = 0;
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::uint64_t score =
                policy_ == ReplacementPolicy::Lru ? last_use_[i] : freq_[i];
            if (score < best) {
                best = score;
                victim = i;
            }
        }
        return victim;
    }

    std::vector<TernaryPattern> entries_;
    std::vector<bool> valids_;
    std::vector<std::uint64_t> last_use_;
    std::vector<std::uint64_t> freq_;
    ReplacementPolicy policy_;
    std::size_t valid_count_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t searches_ = 0;
    /** Bumped by the const read-only probes, as in the optimized
     * engines. */
    mutable std::uint64_t peeks_ = 0;
    std::uint64_t writes_ = 0;
};

/** Reference CAM: linear scan over every entry on each probe. */
class RefCam
{
  public:
    explicit RefCam(std::size_t n_entries,
                    ReplacementPolicy policy = ReplacementPolicy::Lfu)
        : entries_(n_entries), policy_(policy)
    {
        ANOC_ASSERT(n_entries > 0, "CAM must have at least one entry");
    }

    std::size_t capacity() const { return entries_.size(); }

    std::optional<std::size_t>
    search(Word key)
    {
        ++searches_;
        ++tick_;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.valid && e.key == key) {
                e.last_use = tick_;
                ++e.freq;
                return i;
            }
        }
        return std::nullopt;
    }

    std::optional<std::size_t>
    peek(Word key) const
    {
        ++peeks_;
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].valid && entries_[i].key == key)
                return i;
        return std::nullopt;
    }

    std::size_t
    victimFor(Word key) const
    {
        if (auto hit = peek(key))
            return *hit;
        return pickVictim();
    }

    std::size_t
    insert(Word key)
    {
        ++writes_;
        ++tick_;
        std::size_t slot = victimFor(key);
        Entry &e = entries_[slot];
        bool rehit = e.valid && e.key == key;
        if (!rehit && !e.valid)
            ++valid_count_;
        e.valid = true;
        e.key = key;
        e.last_use = tick_;
        e.freq = rehit ? e.freq + 1 : 1;
        return slot;
    }

    void
    erase(std::size_t slot)
    {
        ANOC_ASSERT(slot < entries_.size(), "CAM slot out of range");
        if (entries_[slot].valid)
            --valid_count_;
        entries_[slot] = Entry{};
    }

    void
    clear()
    {
        for (auto &e : entries_)
            e = Entry{};
        valid_count_ = 0;
    }

    void
    touch(std::size_t slot)
    {
        ANOC_ASSERT(slot < entries_.size(), "CAM slot out of range");
        ++tick_;
        entries_[slot].last_use = tick_;
        ++entries_[slot].freq;
    }

    bool valid(std::size_t slot) const { return entries_[slot].valid; }
    Word key(std::size_t slot) const { return entries_[slot].key; }
    std::uint64_t frequency(std::size_t slot) const { return entries_[slot].freq; }
    std::size_t validCount() const { return valid_count_; }
    std::uint64_t searches() const { return searches_; }
    std::uint64_t peeks() const { return peeks_; }
    std::uint64_t writes() const { return writes_; }

  private:
    struct Entry {
        bool valid = false;
        Word key = 0;
        std::uint64_t last_use = 0;
        std::uint64_t freq = 0;
    };

    std::size_t
    pickVictim() const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (!entries_[i].valid)
                return i;
        std::size_t victim = 0;
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::uint64_t score = policy_ == ReplacementPolicy::Lru
                                      ? entries_[i].last_use
                                      : entries_[i].freq;
            if (score < best) {
                best = score;
                victim = i;
            }
        }
        return victim;
    }

    std::vector<Entry> entries_;
    ReplacementPolicy policy_;
    std::size_t valid_count_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t searches_ = 0;
    /** Bumped by the const read-only probes, as in the optimized
     * engines. */
    mutable std::uint64_t peeks_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_TCAM_REFERENCE_H
