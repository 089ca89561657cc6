/** DI-VAXX codec tests: TCAM approximate matching, exact-path storage. */
#include <cmath>
#include <gtest/gtest.h>

#include "approx/di_vaxx.h"
#include "common/rng.h"

using namespace approxnoc;

namespace {

DictionaryConfig
small_config()
{
    DictionaryConfig cfg;
    cfg.n_nodes = 4;
    cfg.pmt_entries = 8;
    cfg.tracker_entries = 16;
    cfg.promote_threshold = 2;
    cfg.notify_delay = 10;
    return cfg;
}

DataBlock
train_block(Word w, bool approximable = true)
{
    return DataBlock({w}, DataType::Int32, approximable);
}

void
train(DiVaxxCodec &c, Word w, NodeId src, NodeId dst, Cycle &t)
{
    for (int i = 0; i < 2; ++i) {
        DataBlock b = train_block(w);
        EncodedBlock enc = c.encode(b, src, dst, t);
        c.decode(enc, src, dst, t);
        ++t;
    }
    t += 20; // let the update notification apply
}

/** Applies encoder-side updates directly, as the update queue would. */
class DiVaxxUpdates : public DiVaxxCodec
{
  public:
    using DiVaxxCodec::DiVaxxCodec;

    void
    update(NodeId enc, NodeId dec, std::uint8_t index, Word pattern)
    {
        applyUpdateAtEncoder(
            enc, Update{0, false, pattern, DataType::Int32, index, dec});
    }

    void
    invalidate(NodeId enc, NodeId dec, std::uint8_t index, Word pattern)
    {
        applyUpdateAtEncoder(
            enc, Update{0, true, pattern, DataType::Int32, index, dec});
    }
};

double
bound_for(double e_pct)
{
    return e_pct / (100.0 - e_pct) + 1e-9;
}

} // namespace

TEST(DiVaxx, ApproximateMatchCompressesNearbyValues)
{
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t);

    // 1000 @ 20%: range = 125, k = 6 -> pattern matches 960..1023.
    DataBlock near = train_block(1001);
    EncodedBlock enc = c.encode(near, 0, 1, t);
    EXPECT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.approximatedWords(), 1u);
    DataBlock out = c.decode(enc, 0, 1, t);
    EXPECT_EQ(out.word(0), 1000u) << "decoder reconstructs the reference";

    DataBlock far = train_block(1200);
    EncodedBlock enc2 = c.encode(far, 0, 1, t);
    EXPECT_EQ(enc2.uncompressedWords(), 1u) << "outside the mask: raw";
}

TEST(DiVaxx, ExactMatchViaOriginalPattern)
{
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t);

    // A non-approximable block can still compress on an exact original.
    DataBlock exact = train_block(1000, /*approximable=*/false);
    EncodedBlock enc = c.encode(exact, 0, 1, t);
    EXPECT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.approximatedWords(), 0u);

    // But a merely mask-matching value must NOT compress when precise
    // data is required (paper: TCAM match does not guarantee recovery).
    DataBlock inexact = train_block(1001, /*approximable=*/false);
    EncodedBlock enc2 = c.encode(inexact, 0, 1, t);
    EXPECT_EQ(enc2.uncompressedWords(), 1u);
}

TEST(DiVaxx, ErrorBoundInvariant)
{
    Rng rng(71);
    for (double e : {10.0, 20.0}) {
        DiVaxxCodec c(small_config(), ErrorModel(e));
        Cycle t = 0;
        std::vector<Word> pool;
        for (int i = 0; i < 6; ++i)
            pool.push_back(static_cast<Word>(rng.range(1000, 2000000)));
        for (int i = 0; i < 4000; ++i) {
            Word base = pool[rng.next(pool.size())];
            // Jitter around pool values to exercise approximate hits.
            Word w = static_cast<Word>(
                static_cast<std::int64_t>(base) + rng.range(-50, 50));
            DataBlock b = train_block(w);
            EncodedBlock enc = c.encode(b, 0, 1, t);
            DataBlock out = c.decode(enc, 0, 1, t);
            double p = static_cast<double>(static_cast<std::int32_t>(w));
            double a = static_cast<double>(static_cast<std::int32_t>(out.word(0)));
            ASSERT_LE(std::abs(a - p), std::abs(p) * bound_for(e))
                << "w=" << w << " decoded=" << out.word(0);
            ++t;
        }
        EXPECT_EQ(c.consistencyMismatches(), 0u);
    }
}

TEST(DiVaxx, TypeConfusionIsPrevented)
{
    // A pattern learned from float data must not approximate integer
    // words (mask semantics differ across types).
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    float f = 1234.5f;
    Word fw = std::bit_cast<Word>(f);
    for (int i = 0; i < 2; ++i) {
        DataBlock b({fw}, DataType::Float32, true);
        c.decode(c.encode(b, 0, 1, t), 0, 1, t);
        ++t;
    }
    t += 20;

    // An int word that happens to sit inside the float pattern's mask.
    DataBlock ib({fw ^ 1u}, DataType::Int32, true);
    EncodedBlock enc = c.encode(ib, 0, 1, t);
    EXPECT_EQ(enc.approximatedWords(), 0u)
        << "cross-type approximate match must be rejected";
}

TEST(DiVaxx, FloatApproximationWorks)
{
    DiVaxxCodec c(small_config(), ErrorModel(10.0));
    Cycle t = 0;
    float base = 3.14159f;
    Word bw = std::bit_cast<Word>(base);
    for (int i = 0; i < 2; ++i) {
        DataBlock b({bw}, DataType::Float32, true);
        c.decode(c.encode(b, 0, 1, t), 0, 1, t);
        ++t;
    }
    t += 20;

    float near = 3.1415f; // same exponent, mantissa within 10%
    DataBlock nb({std::bit_cast<Word>(near)}, DataType::Float32, true);
    EncodedBlock enc = c.encode(nb, 0, 1, t);
    ASSERT_EQ(enc.uncompressedWords(), 0u);
    DataBlock out = c.decode(enc, 0, 1, t);
    EXPECT_EQ(out.word(0), bw);
    EXPECT_LE(std::abs(out.floatAt(0) - near), std::abs(near) * 0.12f);
}

TEST(DiVaxx, MultipleOriginalsPerTcamEntry)
{
    // Two decoders learn different originals in the same value range;
    // the encoder's TCAM entry keeps one original per destination.
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t); // decoder 1 learns 1000
    train(c, 1001, 0, 2, t); // decoder 2 learns 1001 (same ternary class)

    DataBlock q = train_block(1002);
    EncodedBlock e1 = c.encode(q, 0, 1, t);
    EncodedBlock e2 = c.encode(q, 0, 2, t);
    ASSERT_EQ(e1.uncompressedWords(), 0u);
    ASSERT_EQ(e2.uncompressedWords(), 0u);
    EXPECT_EQ(c.decode(e1, 0, 1, t).word(0), 1000u);
    EXPECT_EQ(c.decode(e2, 0, 2, t).word(0), 1001u);
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiVaxx, LookupPlacementIsSlower)
{
    DiVaxxCodec ins(small_config(), ErrorModel(10.0),
                    VaxxPlacement::Insertion);
    DiVaxxCodec look(small_config(), ErrorModel(10.0),
                     VaxxPlacement::Lookup);
    EXPECT_EQ(ins.compressionLatency(), kCompressionLatency);
    EXPECT_EQ(look.compressionLatency(), kCompressionLatency + 2);
}

TEST(DiVaxx, StressConsistencyUnderEviction)
{
    DictionaryConfig cfg = small_config();
    cfg.pmt_entries = 2;
    DiVaxxCodec c(cfg, ErrorModel(10.0));
    Rng rng(73);
    Cycle t = 0;
    std::vector<Word> pool = {5000, 90000, 1234567, 42424242, 777777};
    for (int i = 0; i < 4000; ++i) {
        Word w = pool[rng.next(pool.size())];
        w += static_cast<Word>(rng.next(16));
        DataBlock b({w, w}, DataType::Int32, rng.chance(0.75));
        NodeId dst = 1 + static_cast<NodeId>(rng.next(3));
        DataBlock out = c.decode(c.encode(b, 0, dst, t), 0, dst, t);
        if (!b.approximable()) {
            ASSERT_TRUE(out.sameBits(b));
        }
        t += static_cast<Cycle>(rng.next(3));
    }
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

// Power-model regression for the fused probe (one searchVisit per
// word in DI-VAXX encode): encoding n non-zero words costs exactly n TCAM
// searches, whether each word hits approximately, hits exactly, misses
// outright, or matches a pattern whose slot has no mapping for the
// destination (the visitor rejects and the priority scan continues —
// still within the same one search).
TEST(DiVaxx, FusedProbeCostsOneSearchPerWord)
{
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t);
    train(c, 2000, 0, 1, t); // second entry: priority scan has depth

    // approximate hit, exact hit, miss, approximate hit on entry 2.
    std::uint64_t before = c.encoderSearches();
    DataBlock b({1001, 1000, 777777, 2003}, DataType::Int32, true);
    c.encode(b, 0, 1, t);
    EXPECT_EQ(c.encoderSearches(), before + 4);

    // Unknown destination: patterns match but no slot has a dst-3
    // mapping, so every visit is rejected — cost is still 1 per word.
    before = c.encoderSearches();
    c.encode(b, 0, 3, t);
    EXPECT_EQ(c.encoderSearches(), before + 4);
}

TEST(DiVaxx, SharedTcamEntryKeepsTheLatestIndexOfADecoder)
{
    // At 20%, 1000 and 1001 both approximate to 960..1023: one ternary
    // TCAM entry. Decoder 1 holds them under indices 1 and 2, and the
    // second update replaces the first's mapping.
    DiVaxxUpdates c(small_config(), ErrorModel(20.0));
    c.update(0, 1, 1, 1000);
    c.update(0, 1, 2, 1001);
    ASSERT_EQ(c.encoderPatternCount(0), 2u) << "zero preload + one entry";

    auto encode_exact = [&](Word w) {
        return c.encode(train_block(w, /*approximable=*/false), 0, 1, 0);
    };
    EncodedBlock enc = encode_exact(1001);
    ASSERT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.words()[0].payload, 2u);
    EXPECT_EQ(encode_exact(1000).uncompressedWords(), 1u)
        << "index 1 no longer maps the entry";

    c.invalidate(0, 1, 1, 1000);
    EXPECT_EQ(c.encoderPatternCount(0), 2u)
        << "invalidating the replaced index keeps the entry";
    enc = encode_exact(1001);
    ASSERT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.words()[0].payload, 2u);

    c.invalidate(0, 1, 2, 1001);
    EXPECT_EQ(c.encoderPatternCount(0), 1u)
        << "an entry left with no mapping is erased";
    EXPECT_EQ(encode_exact(1001).uncompressedWords(), 1u);
}
