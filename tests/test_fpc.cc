/**
 * FPC unit + property tests: exact pattern matching, decode round-trip,
 * and the don't-care solver checked against brute force for small k.
 */
#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "compression/fpc.h"

using namespace approxnoc;

namespace {

/** Does @p w match pattern @p p exactly (reference predicate)? */
bool
matches_exact(FpcPattern p, Word w)
{
    switch (p) {
      case FpcPattern::ZeroRun:
        return w == 0;
      case FpcPattern::Sign4:
        return sign_extend32(w & 0xF, 4) == w;
      case FpcPattern::Sign8:
        return sign_extend32(w & 0xFF, 8) == w;
      case FpcPattern::Sign16:
        return sign_extend32(w & 0xFFFF, 16) == w;
      case FpcPattern::HalfPadded:
        return (w & 0xFFFF) == 0;
      case FpcPattern::TwoHalfSign8: {
        std::uint32_t lo = w & 0xFFFF, hi = w >> 16;
        return (sign_extend32(lo & 0xFF, 8) & 0xFFFF) == lo &&
               (sign_extend32(hi & 0xFF, 8) & 0xFFFF) == hi;
      }
      case FpcPattern::Uncompressed:
        return true;
    }
    return false;
}

} // namespace

TEST(Fpc, DataBitsMatchFigure5)
{
    EXPECT_EQ(fpc_data_bits(FpcPattern::ZeroRun), 3u);
    EXPECT_EQ(fpc_data_bits(FpcPattern::Sign4), 4u);
    EXPECT_EQ(fpc_data_bits(FpcPattern::Sign8), 8u);
    EXPECT_EQ(fpc_data_bits(FpcPattern::Sign16), 16u);
    EXPECT_EQ(fpc_data_bits(FpcPattern::HalfPadded), 16u);
    EXPECT_EQ(fpc_data_bits(FpcPattern::TwoHalfSign8), 16u);
    EXPECT_EQ(fpc_data_bits(FpcPattern::Uncompressed), 32u);
}

TEST(Fpc, ExactMatchesKnownValues)
{
    auto m = fpc_match(0, 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::ZeroRun);

    m = fpc_match(7, 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::Sign4);
    EXPECT_EQ(m->candidate, 7u);

    m = fpc_match(static_cast<Word>(-8), 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::Sign4);

    m = fpc_match(100, 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::Sign8);

    m = fpc_match(30000, 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::Sign16);

    m = fpc_match(0x12340000, 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::HalfPadded);

    m = fpc_match(0x00450023, 0);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pattern, FpcPattern::TwoHalfSign8);

    EXPECT_FALSE(fpc_match(0x12345678, 0));
    EXPECT_FALSE(fpc_match(0xDEADBEEF, 0));
}

TEST(Fpc, DecodeRoundTripExact)
{
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        Word w = static_cast<Word>(rng.bits());
        auto m = fpc_match(w, 0);
        if (!m)
            continue;
        EXPECT_EQ(m->candidate, w) << "exact match must not alter value";
        EXPECT_EQ(fpc_decode(m->pattern, m->payload), w);
    }
}

TEST(Fpc, ExactMatchAgreesWithReferencePredicate)
{
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        Word w = static_cast<Word>(rng.bits());
        // Bias towards small magnitudes so every pattern is exercised.
        if (i % 3 == 0)
            w = sign_extend32(w & 0xFFF, 12);
        if (i % 5 == 0)
            w &= 0xFFFF0000;
        for (FpcPattern p :
             {FpcPattern::ZeroRun, FpcPattern::Sign4, FpcPattern::Sign8,
              FpcPattern::Sign16, FpcPattern::HalfPadded,
              FpcPattern::TwoHalfSign8}) {
            auto m = fpc_try_pattern(p, w, 0);
            EXPECT_EQ(m.has_value(), matches_exact(p, w))
                << "pattern " << to_string(p) << " word " << std::hex << w;
            if (m) {
                EXPECT_EQ(fpc_decode(p, m->payload), w);
            }
        }
    }
}

/** Brute force: does any candidate differing only in low k bits match? */
static std::optional<Word>
brute_force(FpcPattern p, Word w, unsigned k)
{
    Word mask = low_mask32(k);
    for (Word low = 0; low <= mask; ++low) {
        Word c = (w & ~mask) | low;
        if (matches_exact(p, c))
            return c;
        if (mask == 0xFFFFFFFFu)
            break;
    }
    return std::nullopt;
}

TEST(Fpc, ApproximateSolverMatchesBruteForce)
{
    Rng rng(13);
    for (int i = 0; i < 4000; ++i) {
        Word w = static_cast<Word>(rng.bits());
        if (i % 2 == 0)
            w = sign_extend32(w & 0x3FFFF, 18);
        unsigned k = static_cast<unsigned>(rng.next(9)); // 0..8 feasible
        for (FpcPattern p :
             {FpcPattern::ZeroRun, FpcPattern::Sign4, FpcPattern::Sign8,
              FpcPattern::Sign16, FpcPattern::HalfPadded,
              FpcPattern::TwoHalfSign8}) {
            auto solved = fpc_try_pattern(p, w, k);
            auto brute = brute_force(p, w, k);
            EXPECT_EQ(solved.has_value(), brute.has_value())
                << to_string(p) << " w=" << std::hex << w << " k=" << k;
            if (solved) {
                // Candidate only differs in the low k bits...
                EXPECT_EQ(solved->candidate & ~low_mask32(k),
                          w & ~low_mask32(k));
                // ...and itself matches the pattern exactly.
                EXPECT_TRUE(matches_exact(p, solved->candidate));
                EXPECT_EQ(fpc_decode(p, solved->payload), solved->candidate);
            }
        }
    }
}

TEST(Fpc, ApproximateMatchKeepsUnmaskedBits)
{
    // 0x1C with 2 don't-care bits can reach the Sign4 window [-8, 7]?
    // No: high bits 0x1C >> 2 = 0x7 are nonzero beyond bit 3.
    EXPECT_FALSE(fpc_try_pattern(FpcPattern::Sign4, 0x1C, 2));
    // With k=5 bits free the value can become 0..15 -> matches.
    auto m = fpc_try_pattern(FpcPattern::Sign4, 0x1C, 5);
    ASSERT_TRUE(m);
    EXPECT_TRUE(matches_exact(FpcPattern::Sign4, m->candidate));
}

TEST(Fpc, ZeroRunMerging)
{
    DataBlock b({0, 0, 0, 5, 0, 0}, DataType::Int32, false);
    FpcCodec codec;
    EncodedBlock enc = codec.encode(b, 0, 1, 0);
    // run(3 zeros), 5, run(2 zeros)
    ASSERT_EQ(enc.words().size(), 3u);
    EXPECT_EQ(enc.words()[0].run, 3u);
    EXPECT_EQ(enc.words()[1].run, 1u);
    EXPECT_EQ(enc.words()[2].run, 2u);
    EXPECT_EQ(enc.wordCount(), 6u);

    DataBlock out = codec.decode(enc, 0, 1, 0);
    EXPECT_TRUE(out.sameBits(b));
    EXPECT_EQ(codec.consistencyMismatches(), 0u);
}

TEST(Fpc, ZeroRunCapsAtEight)
{
    DataBlock b(std::vector<Word>(20, 0), DataType::Int32, false);
    FpcCodec codec;
    EncodedBlock enc = codec.encode(b, 0, 1, 0);
    ASSERT_EQ(enc.words().size(), 3u); // 8 + 8 + 4
    EXPECT_EQ(enc.words()[0].run, 8u);
    EXPECT_EQ(enc.words()[1].run, 8u);
    EXPECT_EQ(enc.words()[2].run, 4u);
}

TEST(Fpc, CompressionNeverLoses)
{
    Rng rng(17);
    FpcCodec codec;
    for (int i = 0; i < 500; ++i) {
        std::vector<Word> ws(16);
        for (auto &w : ws)
            w = static_cast<Word>(rng.bits());
        DataBlock b(ws, DataType::Raw, false);
        EncodedBlock enc = codec.encode(b, 0, 1, 0);
        // Worst case: every word uncompressed = 35 bits/word.
        EXPECT_LE(enc.bits(), 16u * 35u);
        DataBlock out = codec.decode(enc, 0, 1, 0);
        EXPECT_TRUE(out.sameBits(b));
    }
    EXPECT_EQ(codec.consistencyMismatches(), 0u);
}

TEST(Fpc, CompressesCompressibleData)
{
    // Small integers compress to 3+4 or 3+8 bits/word.
    std::vector<Word> ws;
    for (int i = -8; i < 8; ++i)
        ws.push_back(static_cast<Word>(i));
    DataBlock b(ws, DataType::Int32, false);
    FpcCodec codec;
    EncodedBlock enc = codec.encode(b, 0, 1, 0);
    EXPECT_LT(enc.bits(), b.sizeBits() / 3);
}

// ---------------------------------------------------------------------
// Branchless FPC classifier vs the solver-based reference, k == 0.
// (The suite keeps the name it had when it lived with the removed SIMD
// kernel tests.)
// ---------------------------------------------------------------------

namespace {

void
expect_same_fpc(Word w)
{
    auto fast = fpc_match_exact(w);
    auto ref = fpc_match_ref(w, 0);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "word " << w;
    if (fast) {
        ASSERT_EQ(fast->pattern, ref->pattern) << "word " << w;
        ASSERT_EQ(fast->candidate, ref->candidate) << "word " << w;
        ASSERT_EQ(fast->payload, ref->payload) << "word " << w;
        // k == 0 means lossless: the candidate is the word itself.
        ASSERT_EQ(fast->candidate, w) << "word " << w;
    }
    // The fpc_match front door must take the fast path for k == 0.
    auto front = fpc_match(w, 0);
    ASSERT_EQ(front.has_value(), fast.has_value()) << "word " << w;
}

} // namespace

TEST(SimdDiff, FpcBranchlessMatchesReferenceRandomized)
{
    Rng rng(0xF9Cull);
    for (int trial = 0; trial < 120000; ++trial) {
        Word w;
        double roll = rng.uniform();
        if (roll < 0.2) {
            // Small signed values: the three sign-extension classes.
            w = static_cast<Word>(
                static_cast<std::int32_t>(rng.range(-40000, 40000)));
        } else if (roll < 0.4) {
            // Halfword-structured: padded and two-half candidates.
            std::uint32_t hi = static_cast<std::uint32_t>(rng.next(1u << 16));
            std::uint32_t lo = rng.uniform() < 0.5
                                   ? 0u
                                   : static_cast<std::uint32_t>(
                                         rng.next(1u << 16));
            w = (hi << 16) | lo;
        } else if (roll < 0.5) {
            // Near a power of two: the countl_zero class boundaries.
            unsigned sb = static_cast<unsigned>(rng.next(32));
            w = (1u << sb) + static_cast<Word>(rng.next(3)) - 1u;
            if (rng.uniform() < 0.5)
                w = ~w;
        } else {
            w = static_cast<Word>(rng.bits());
        }
        ASSERT_NO_FATAL_FAILURE(expect_same_fpc(w));
    }
}

TEST(SimdDiff, FpcBranchlessMatchesReferenceAtBoundaries)
{
    // Exhaustive over the halfword space in both positions: covers
    // every Sign4/Sign8/Sign16 boundary, every HalfPadded word and the
    // whole TwoHalfSign8 acceptance region's edge behaviour.
    for (std::uint32_t h = 0; h < 0x10000u; ++h) {
        ASSERT_NO_FATAL_FAILURE(expect_same_fpc(h));          // low half
        ASSERT_NO_FATAL_FAILURE(expect_same_fpc(h << 16));    // high half
        ASSERT_NO_FATAL_FAILURE(
            expect_same_fpc((h << 16) | 0xFFFFu)); // negative low half
    }
    for (Word w : {0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
                   0xFFFF8000u, 0x00008000u, 0x00800080u, 0xFF80FF80u})
        ASSERT_NO_FATAL_FAILURE(expect_same_fpc(w));
}
