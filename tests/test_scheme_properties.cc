/**
 * Cross-scheme property sweep: the DESIGN.md invariants checked for
 * every (scheme, threshold, data type) combination on randomized,
 * value-local block streams.
 *
 *  1. decode(encode(x)) == x bit-exactly for non-approximable blocks;
 *  2. every approximated word stays within the shift-mode error bound
 *     e / (100 - e);
 *  3. compression never expands a block;
 *  4. the encoder's expectation always matches the decoder's view
 *     (consistencyMismatches == 0);
 *  5. bit accounting is internally consistent (word counts, fractions).
 */
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/codec_factory.h"

using namespace approxnoc;

namespace {

using Combo = std::tuple<Scheme, double, DataType>;

std::string
combo_name(const ::testing::TestParamInfo<Combo> &info)
{
    auto [scheme, threshold, type] = info.param;
    std::string s = to_string(scheme) + "_t" +
                    std::to_string(static_cast<int>(threshold)) + "_" +
                    to_string(type);
    for (auto &c : s)
        if (c == '-')
            c = '_';
    return s;
}

/** Value-local stream mixing exact repeats, near values and noise. */
DataBlock
make_block(Rng &rng, DataType type, const std::vector<Word> &hot,
           bool approximable)
{
    std::vector<Word> ws(16);
    for (auto &w : ws) {
        double roll = rng.uniform();
        if (roll < 0.35) {
            w = hot[rng.next(hot.size())];
        } else if (roll < 0.6) {
            Word base = hot[rng.next(hot.size())];
            w = base ^ static_cast<Word>(rng.next(1u << 6));
        } else if (roll < 0.75) {
            w = 0;
        } else {
            w = static_cast<Word>(rng.bits());
            if (type == DataType::Float32)
                w = (w & 0x7FFFFFFF) | 0x20000000; // keep it normal-ish
        }
    }
    return DataBlock(std::move(ws), type, approximable);
}

} // namespace

class SchemeProperties : public ::testing::TestWithParam<Combo>
{
  protected:
    void
    SetUp() override
    {
        auto [scheme, threshold, type] = GetParam();
        scheme_ = scheme;
        threshold_ = threshold;
        type_ = type;
        CodecConfig cc;
        cc.n_nodes = 8;
        cc.error_threshold_pct = threshold;
        codec_ = CodecFactory::create(scheme, cc);

        Rng seeder(static_cast<std::uint64_t>(threshold * 7 + 3));
        for (int i = 0; i < 6; ++i) {
            Word w = type_ == DataType::Float32
                         ? (0x3F800000u +
                            static_cast<Word>(seeder.next(1u << 22)))
                         : static_cast<Word>(seeder.range(500, 5000000));
            hot_.push_back(w);
        }
    }

    Scheme scheme_;
    double threshold_;
    DataType type_;
    std::unique_ptr<CodecSystem> codec_;
    std::vector<Word> hot_;
};

TEST_P(SchemeProperties, InvariantsHoldOverRandomStream)
{
    Rng rng(991);
    const double bound =
        threshold_ > 0 ? threshold_ / (100.0 - threshold_) + 1e-9 : 0.0;
    Cycle t = 0;

    for (int i = 0; i < 1500; ++i) {
        bool approximable = rng.chance(0.75);
        DataBlock b = make_block(rng, type_, hot_, approximable);
        NodeId src = static_cast<NodeId>(rng.next(8));
        NodeId dst = static_cast<NodeId>(rng.next(8));
        if (src == dst)
            continue;

        EncodedBlock enc = codec_->encode(b, src, dst, t);
        DataBlock out = codec_->decode(enc, src, dst, t);
        t += static_cast<Cycle>(rng.next(40));

        // (5) accounting.
        ASSERT_EQ(enc.wordCount(), b.size());
        ASSERT_EQ(out.size(), b.size());
        ASSERT_EQ(enc.exactCompressedWords() + enc.approximatedWords() +
                      enc.uncompressedWords(),
                  b.size());

        // (3) no expansion.
        ASSERT_LE(enc.bits(), b.sizeBits());

        if (!approximable || scheme_ == Scheme::Baseline ||
            scheme_ == Scheme::DiComp || scheme_ == Scheme::FpComp) {
            // (1) exactness.
            ASSERT_TRUE(out.sameBits(b))
                << "lossless path altered data, block " << i;
            ASSERT_EQ(enc.approximatedWords(), 0u);
        } else {
            // (2) error bound per word.
            for (std::size_t j = 0; j < b.size(); ++j) {
                if (b.word(j) == out.word(j))
                    continue;
                double p, a;
                if (type_ == DataType::Float32) {
                    p = b.floatAt(j);
                    a = out.floatAt(j);
                } else {
                    p = b.intAt(j);
                    a = out.intAt(j);
                }
                ASSERT_NE(p, 0.0) << "zero words must stay exact";
                ASSERT_TRUE(std::isfinite(p) && std::isfinite(a))
                    << "specials must stay exact";
                ASSERT_LE(std::fabs(a - p), std::fabs(p) * bound)
                    << "word " << j << ": " << p << " -> " << a;
            }
        }
    }
    // (4) consistency.
    EXPECT_EQ(codec_->consistencyMismatches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchemeProperties,
    ::testing::Combine(::testing::Values(Scheme::Baseline, Scheme::DiComp,
                                         Scheme::DiVaxx, Scheme::FpComp,
                                         Scheme::FpVaxx),
                       ::testing::Values(0.0, 5.0, 10.0, 20.0),
                       ::testing::Values(DataType::Int32,
                                         DataType::Float32)),
    combo_name);

// ---------------------------------------------------------------------------
// Per-flow isolation (encoder state keyed by src, decoder state by
// dst, compression/codec.h): traffic on flow A = (0 -> 1) must leave
// flow B = (2 -> 3)'s encoder and decoder state untouched. We drive B's stream through two identically
// configured codecs — one that also carries A's stream, interleaved
// block-by-block — and require B's encoded words and decoded blocks to
// match bit-exactly throughout, then prove the *final* dictionary
// state is identical with a probe wave of fresh encodes. Parameterized
// over the stateful dictionary schemes, whose PMTs are where
// cross-flow leakage would show up.

namespace {

void
expect_same_stream(const EncodedBlock &x, const EncodedBlock &y, int i)
{
    ASSERT_EQ(x.words().size(), y.words().size()) << "block " << i;
    for (std::size_t w = 0; w < x.words().size(); ++w) {
        const EncodedWord &a = x.words()[w];
        const EncodedWord &b = y.words()[w];
        ASSERT_EQ(a.kind, b.kind) << "block " << i << " word " << w;
        ASSERT_EQ(a.bits, b.bits) << "block " << i << " word " << w;
        ASSERT_EQ(a.payload, b.payload) << "block " << i << " word " << w;
        ASSERT_EQ(a.run, b.run) << "block " << i << " word " << w;
        ASSERT_EQ(a.approx_count, b.approx_count)
            << "block " << i << " word " << w;
        ASSERT_EQ(a.decoded, b.decoded) << "block " << i << " word " << w;
        ASSERT_EQ(a.uncompressed, b.uncompressed)
            << "block " << i << " word " << w;
    }
}

} // namespace

class FlowIsolation : public ::testing::TestWithParam<Scheme>
{
  protected:
    static std::unique_ptr<CodecSystem>
    make_codec(Scheme scheme)
    {
        CodecConfig cc;
        cc.n_nodes = 8;
        cc.error_threshold_pct = 10.0;
        return CodecFactory::create(scheme, cc);
    }

    static std::vector<Word>
    make_hot(std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<Word> hot;
        for (int i = 0; i < 6; ++i)
            hot.push_back(0x3F800000u +
                          static_cast<Word>(rng.next(1u << 22)));
        return hot;
    }
};

TEST_P(FlowIsolation, ForeignFlowLeavesStateUntouched)
{
    constexpr NodeId kASrc = 0, kADst = 1, kBSrc = 2, kBDst = 3;
    auto with_a = make_codec(GetParam()); // carries A and B
    auto b_only = make_codec(GetParam()); // carries B alone

    // Disjoint hot sets so A's stream would visibly corrupt B's PMTs
    // if any state were shared.
    std::vector<Word> hot_a = make_hot(17);
    std::vector<Word> hot_b = make_hot(4242);
    Rng rng_a(5), rng_b(6), rng_t(7);

    Cycle t = 0;
    for (int i = 0; i < 400; ++i) {
        bool approx = (i % 4) != 0;
        DataBlock ba = make_block(rng_a, DataType::Float32, hot_a, approx);
        DataBlock bb = make_block(rng_b, DataType::Float32, hot_b, approx);

        // A's traffic only exists in with_a.
        EncodedBlock ea = with_a->encode(ba, kASrc, kADst, t);
        with_a->decode(ea, kASrc, kADst, t);

        // B sees the identical (block, cycle) sequence in both codecs.
        EncodedBlock e1 = with_a->encode(bb, kBSrc, kBDst, t);
        EncodedBlock e2 = b_only->encode(bb, kBSrc, kBDst, t);
        expect_same_stream(e1, e2, i);

        DataBlock d1 = with_a->decode(e1, kBSrc, kBDst, t);
        DataBlock d2 = b_only->decode(e2, kBSrc, kBDst, t);
        ASSERT_TRUE(d1.sameBits(d2)) << "decode diverged at block " << i;

        t += static_cast<Cycle>(rng_t.next(40));
    }

    // Probe wave: fresh blocks, encode-only. Identical streams here
    // mean B's final encoder state (PMT contents, replacement
    // metadata, drained update FIFO) is identical — not just the
    // per-block outputs above.
    t += 100000; // flush any in-flight decoder notifications
    for (int i = 0; i < 50; ++i) {
        DataBlock bb = make_block(rng_b, DataType::Float32, hot_b, true);
        EncodedBlock e1 = with_a->encode(bb, kBSrc, kBDst, t);
        EncodedBlock e2 = b_only->encode(bb, kBSrc, kBDst, t);
        expect_same_stream(e1, e2, 1000 + i);
        t += 13;
    }

    EXPECT_EQ(with_a->consistencyMismatches(), 0u);
    EXPECT_EQ(b_only->consistencyMismatches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(DictionarySchemes, FlowIsolation,
                         ::testing::Values(Scheme::DiComp, Scheme::DiVaxx),
                         [](const ::testing::TestParamInfo<Scheme> &info) {
                             std::string s = to_string(info.param);
                             for (auto &c : s)
                                 if (c == '-')
                                     c = '_';
                             return s;
                         });
