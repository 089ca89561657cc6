/** CAM and TCAM behavioural tests. */
#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "tcam/cam.h"
#include "tcam/tcam.h"

using namespace approxnoc;

TEST(Cam, InsertAndSearch)
{
    Cam cam(4);
    EXPECT_FALSE(cam.search(42));
    std::size_t s = cam.insert(42);
    auto hit = cam.search(42);
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, s);
    EXPECT_EQ(cam.key(s), 42u);
    EXPECT_EQ(cam.validCount(), 1u);
}

TEST(Cam, ReinsertSameKeyKeepsSlot)
{
    Cam cam(4);
    std::size_t a = cam.insert(7);
    std::size_t b = cam.insert(7);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cam.validCount(), 1u);
    EXPECT_EQ(cam.frequency(a), 2u);
}

TEST(Cam, LfuReplacementEvictsColdest)
{
    Cam cam(2, ReplacementPolicy::Lfu);
    cam.insert(1);
    cam.insert(2);
    // Heat up key 1.
    cam.search(1);
    cam.search(1);
    std::size_t victim_slot = cam.victimFor(3);
    EXPECT_EQ(cam.key(victim_slot), 2u);
    cam.insert(3);
    EXPECT_TRUE(cam.peek(1));
    EXPECT_FALSE(cam.peek(2));
    EXPECT_TRUE(cam.peek(3));
}

TEST(Cam, LruReplacementEvictsOldest)
{
    Cam cam(2, ReplacementPolicy::Lru);
    cam.insert(1);
    cam.insert(2);
    cam.search(1); // 2 now oldest
    cam.insert(3);
    EXPECT_TRUE(cam.peek(1));
    EXPECT_FALSE(cam.peek(2));
}

TEST(Cam, EraseAndClear)
{
    Cam cam(4);
    std::size_t s = cam.insert(5);
    cam.erase(s);
    EXPECT_FALSE(cam.peek(5));
    cam.insert(6);
    cam.insert(7);
    cam.clear();
    EXPECT_EQ(cam.validCount(), 0u);
}

TEST(Cam, ActivityCounters)
{
    Cam cam(4);
    cam.insert(1);
    cam.search(1);
    cam.search(2);
    EXPECT_EQ(cam.writes(), 1u);
    EXPECT_EQ(cam.searches(), 2u);
}

TEST(Cam, PeekHasNoSideEffects)
{
    Cam cam(2, ReplacementPolicy::Lfu);
    cam.insert(1);
    for (int i = 0; i < 10; ++i)
        cam.peek(1);
    EXPECT_EQ(cam.frequency(*cam.peek(1)), 1u);
    EXPECT_EQ(cam.searches(), 0u);
}

TEST(TernaryPattern, Matching)
{
    // Paper Sec. 4.2.1: 10xx matches 1000, 1001, 1010, 1011.
    TernaryPattern p{0b1001, 0b0011};
    EXPECT_TRUE(p.matches(0b1000));
    EXPECT_TRUE(p.matches(0b1001));
    EXPECT_TRUE(p.matches(0b1010));
    EXPECT_TRUE(p.matches(0b1011));
    EXPECT_FALSE(p.matches(0b0101));
    EXPECT_FALSE(p.matches(0b1100));
}

TEST(TernaryPattern, ToStringShowsDontCares)
{
    TernaryPattern p{0b1001, 0b0011};
    EXPECT_EQ(p.toString(4), "10xx");
}

TEST(TernaryPattern, CanonicalEquality)
{
    TernaryPattern a{0b1001, 0b0011};
    TernaryPattern b{0b1010, 0b0011};
    EXPECT_TRUE(a == b) << "patterns differing only in masked bits are equal";
    TernaryPattern c{0b1001, 0b0001};
    EXPECT_FALSE(a == c);
}

TEST(Tcam, SearchFindsMatchingEntry)
{
    Tcam t(4);
    t.insert(TernaryPattern{0x100, 0xF});
    auto hit = t.search(0x105);
    ASSERT_TRUE(hit);
    EXPECT_TRUE(t.pattern(*hit).matches(0x105));
    EXPECT_FALSE(t.search(0x200));
}

TEST(Tcam, PriorityIsLowestIndex)
{
    Tcam t(4);
    std::size_t a = t.insert(TernaryPattern{0x100, 0xFF});
    std::size_t b = t.insert(TernaryPattern{0x100, 0xF});
    ASSERT_LT(a, b);
    auto hit = t.search(0x100);
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, a);
    auto all = t.searchAll(0x100);
    EXPECT_EQ(all.size(), 2u);
}

TEST(Tcam, InsertIdenticalPatternReusesSlot)
{
    Tcam t(4);
    std::size_t a = t.insert(TernaryPattern{0b1001, 0b0011});
    std::size_t b = t.insert(TernaryPattern{0b1011, 0b0011}); // same canonical
    EXPECT_EQ(a, b);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(Tcam, ReplacementWhenFull)
{
    Tcam t(2, ReplacementPolicy::Lfu);
    t.insert(TernaryPattern{0x10, 0});
    t.insert(TernaryPattern{0x20, 0});
    t.search(0x10);
    t.search(0x10);
    t.insert(TernaryPattern{0x30, 0});
    EXPECT_TRUE(t.peek(0x10));
    EXPECT_FALSE(t.peek(0x20));
    EXPECT_TRUE(t.peek(0x30));
}

TEST(Tcam, EraseFreesSlot)
{
    Tcam t(2);
    std::size_t a = t.insert(TernaryPattern{0x10, 0});
    t.erase(a);
    EXPECT_EQ(t.validCount(), 1u - 1u);
    EXPECT_FALSE(t.search(0x10));
}

// Counter contract of the fused probe (DI-VAXX encode drives
// searchVisit directly): every searchVisit() call is exactly one
// search() for power accounting — never a peek — no matter how many
// slots the visitor inspects or whether it accepts any.
TEST(Tcam, SearchVisitCountsOneSearchNoPeeks)
{
    Tcam t(8);
    // Three patterns matching key 0x100, in priority order. insert()
    // probes for an existing canonical pattern internally; those count
    // as peeks, so take the baseline after the inserts.
    std::size_t s0 = t.insert(TernaryPattern{0x100, 0xFF});
    t.insert(TernaryPattern{0x100, 0xF});
    t.insert(TernaryPattern{0x100, 0x0});
    const std::uint64_t base_peeks = t.peeks();

    // Visitor rejects everything: all matches visited, one search, no
    // peeks; the highest-priority hit is still reported.
    std::size_t visited = 0;
    auto r = t.searchVisit(0x100, [&](std::size_t) {
        ++visited;
        return false;
    });
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, s0);
    EXPECT_EQ(visited, 3u);
    EXPECT_EQ(t.searches(), 1u);
    EXPECT_EQ(t.peeks(), base_peeks);

    // Visitor accepts the second candidate: early exit, still 1 search.
    visited = 0;
    r = t.searchVisit(0x100, [&](std::size_t) { return ++visited == 2; });
    ASSERT_TRUE(r);
    EXPECT_EQ(visited, 2u);
    EXPECT_EQ(t.searches(), 2u);
    EXPECT_EQ(t.peeks(), base_peeks);

    // Miss (no pattern matches): 1 search, visitor never called.
    r = t.searchVisit(0xDEAD0000, [](std::size_t) { return true; });
    EXPECT_FALSE(r);
    EXPECT_EQ(t.searches(), 3u);
    EXPECT_EQ(t.peeks(), base_peeks);

    // Diagnostic probes stay on the peek side of the ledger.
    t.peek(0x100);
    EXPECT_EQ(t.searches(), 3u);
    EXPECT_EQ(t.peeks(), base_peeks + 1);
}

TEST(Tcam, RandomizedMatchSemantics)
{
    Rng rng(31);
    Tcam t(8);
    std::vector<TernaryPattern> inserted;
    for (int i = 0; i < 8; ++i) {
        TernaryPattern p{static_cast<Word>(rng.bits()),
                         low_mask32(static_cast<unsigned>(rng.next(12)))};
        t.insert(p);
        inserted.push_back(p.canonical());
    }
    for (int i = 0; i < 5000; ++i) {
        Word key = static_cast<Word>(rng.bits());
        bool any = false;
        for (const auto &p : inserted)
            any = any || p.matches(key);
        EXPECT_EQ(t.peek(key).has_value(), any);
    }
}

namespace {

Word
pool_key(Rng &rng, unsigned pool_bits)
{
    return static_cast<Word>(rng.next(1u << pool_bits));
}

TernaryPattern
random_pattern(Rng &rng, unsigned pool_bits)
{
    TernaryPattern p;
    p.value = pool_key(rng, pool_bits);
    double roll = rng.uniform();
    if (roll < 0.15)
        p.mask = 0;
    else if (roll < 0.25)
        p.mask = 0xFFFFFFFFu;
    else
        p.mask = (1u << rng.next(9)) - 1u;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Probe-count regression: the counters are part of the power model's
// inputs, so they are pinned to exact values here. The scan's group
// layout must never shift them. (The suite keeps the name it had when
// it also covered the removed SIMD kernels.)
// ---------------------------------------------------------------------

TEST(SimdDiff, ProbeCountRegression)
{
    Tcam t(130); // five 32-entry groups, partial tail
    Rng rng(0xC0117ull);
    for (int i = 0; i < 100; ++i)
        t.insert(random_pattern(rng, 8)); // 1 write + 1 internal peek each
    for (int i = 0; i < 50; ++i)
        t.search(pool_key(rng, 8)); // 1 search each
    for (int i = 0; i < 20; ++i)
        t.peek(pool_key(rng, 8)); // 1 peek each
    for (int i = 0; i < 10; ++i)
        t.searchAll(pool_key(rng, 8)); // 1 peek each
    for (int i = 0; i < 5; ++i)
        t.findPattern(random_pattern(rng, 8)); // 1 peek each
    for (int i = 0; i < 5; ++i)
        t.victimFor(random_pattern(rng, 8)); // 1 peek each (findPattern)
    // searchVisit counts exactly one search however far the visit goes.
    t.searchVisit(pool_key(rng, 8), [](std::size_t) { return false; });

    EXPECT_EQ(t.searches(), 51u);
    EXPECT_EQ(t.peeks(), 140u);
    EXPECT_EQ(t.writes(), 100u);
}
