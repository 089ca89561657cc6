#include "tcam/tcam.h"

#include <limits>

#include "common/log.h"

namespace approxnoc {

std::string
TernaryPattern::toString(unsigned width) const
{
    std::string s;
    for (unsigned b = width; b-- > 0;) {
        Word bit = 1u << b;
        if (mask & bit)
            s += 'x';
        else
            s += (value & bit) ? '1' : '0';
    }
    return s;
}

Tcam::Tcam(std::size_t n_entries, ReplacementPolicy policy)
    : capacity_(n_entries),
      value_((n_entries + kGroup - 1) / kGroup * kGroup, 0),
      care_(value_.size(), ~Word{0}), valid_(value_.size() / kGroup, 0),
      last_use_(n_entries, 0), freq_(n_entries, 0), policy_(policy)
{
    ANOC_ASSERT(n_entries > 0, "TCAM must have at least one entry");
}

std::vector<std::size_t>
Tcam::searchAll(Word key) const
{
    ++peeks_;
    std::vector<std::size_t> hits;
    for (std::size_t g = 0; g < valid_.size(); ++g)
        for (std::uint32_t m = matchGroup(g, key); m; m &= m - 1)
            hits.push_back(lowest(g, m));
    return hits;
}

std::optional<std::size_t>
Tcam::peek(Word key) const
{
    ++peeks_;
    for (std::size_t g = 0; g < valid_.size(); ++g)
        if (std::uint32_t m = matchGroup(g, key))
            return lowest(g, m);
    return std::nullopt;
}

std::optional<std::size_t>
Tcam::findPattern(const TernaryPattern &p) const
{
    ++peeks_;
    const Word care = ~p.mask;
    const Word value = p.value & care;
    for (std::size_t g = 0; g < valid_.size(); ++g)
        if (std::uint32_t m = groupMask(g, [=](Word v, Word c) {
                return ((v ^ value) | (c ^ care)) == 0;
            }))
            return lowest(g, m);
    return std::nullopt;
}

std::size_t
Tcam::pickVictim() const
{
    // Prefer the lowest-index invalid slot.
    if (valid_count_ < capacity_)
        for (std::size_t i = 0; i < capacity_; ++i)
            if (!valid(i))
                return i;

    // All valid: minimum replacement score; strict '<' makes ties break
    // deterministically towards the lowest slot index.
    std::size_t victim = 0;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < capacity_; ++i) {
        std::uint64_t score =
            policy_ == ReplacementPolicy::Lru ? last_use_[i] : freq_[i];
        if (score < best) {
            best = score;
            victim = i;
        }
    }
    return victim;
}

std::size_t
Tcam::victimFor(const TernaryPattern &p) const
{
    if (auto existing = findPattern(p))
        return *existing;
    return pickVictim();
}

std::size_t
Tcam::insert(const TernaryPattern &p)
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
    if (!valid(slot)) {
        valid_[slot / kGroup] |= kBit[slot % kGroup];
        ++valid_count_;
    }
    care_[slot] = ~p.mask;
    value_[slot] = p.value & care_[slot];
    last_use_[slot] = tick_;
    return slot;
}

void
Tcam::erase(std::size_t slot)
{
    ANOC_ASSERT(slot < capacity_, "TCAM slot out of range");
    if (valid(slot)) {
        valid_[slot / kGroup] &= ~kBit[slot % kGroup];
        --valid_count_;
    }
    value_[slot] = 0;
    care_[slot] = ~Word{0};
    last_use_[slot] = 0;
    freq_[slot] = 0;
}

void
Tcam::clear()
{
    for (std::size_t i = 0; i < capacity_; ++i)
        erase(i);
}

void
Tcam::touch(std::size_t slot)
{
    ANOC_ASSERT(slot < capacity_, "TCAM slot out of range");
    ++tick_;
    last_use_[slot] = tick_;
    ++freq_[slot];
}

} // namespace approxnoc
