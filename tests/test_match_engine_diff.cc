/**
 * Randomized differential tests for the match engines and the codec
 * forwarders:
 *
 *  - the flat-scan Tcam against the naive RefTcam, and Cam against
 *    RefCam (tcam/reference.h), driven through long random
 *    insert/erase/search/touch sequences and asserting identical hit
 *    slots, victim choices and activity counters;
 *  - the CodecSystem::encodeBlock, encodeSpan and decodeSpan forwarders
 *    against encode()/decode(), asserting bit-identical NR streams and
 *    decoded words.
 *
 * Capacities cover the paper's 8-entry PMT and straddle the 32-entry
 * group edges (31, 32, 33, 63, 64, 65, 127, 128, 130) on purpose: the
 * padded last group, its valid mask and the multi-group search loop
 * are where an off-by-one would hide.
 */
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/window_vaxx.h"
#include "common/arena.h"
#include "common/rng.h"
#include "compression/adaptive.h"
#include "core/codec_factory.h"
#include "tcam/cam.h"
#include "tcam/reference.h"
#include "tcam/tcam.h"

using namespace approxnoc;

namespace {

/** Small key pool so eviction churn and rehits are frequent. */
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
    if (roll < 0.15) {
        p.mask = 0; // fully exact
    } else if (roll < 0.25) {
        p.mask = 0xFFFFFFFFu; // all don't-care: matches everything
    } else {
        p.mask = (1u << rng.next(9)) - 1u; // low-bit don't-care run
    }
    return p;
}

template <typename A, typename B>
void
expect_same_counters(const A &a, const B &b, const char *what, int step)
{
    ASSERT_EQ(a.searches(), b.searches()) << what << " step " << step;
    ASSERT_EQ(a.peeks(), b.peeks()) << what << " step " << step;
    ASSERT_EQ(a.writes(), b.writes()) << what << " step " << step;
    ASSERT_EQ(a.validCount(), b.validCount()) << what << " step " << step;
}

struct DiffCase {
    std::size_t capacity;
    ReplacementPolicy policy;
    std::uint64_t seed;
};

class MatchEngineDiff : public ::testing::TestWithParam<DiffCase>
{};

std::string
case_name(const ::testing::TestParamInfo<DiffCase> &info)
{
    return "cap" + std::to_string(info.param.capacity) +
           (info.param.policy == ReplacementPolicy::Lru ? "_lru" : "_lfu");
}

/** Random operation mix on a Tcam and a RefTcam in lockstep: every
 * result and every counter must agree after each step, and every slot
 * at the end. */
void
tcam_matches_reference(const DiffCase &c, int steps)
{
    Tcam dut(c.capacity, c.policy);
    RefTcam ref(c.capacity, c.policy);
    Rng rng(c.seed);
    // Keys drawn from 2*capacity-ish values keep the TCAM at full
    // occupancy with constant eviction churn after warmup.
    unsigned pool_bits = 4;
    while ((1u << pool_bits) < 2 * c.capacity)
        ++pool_bits;

    for (int step = 0; step < steps; ++step) {
        double roll = rng.uniform();
        if (roll < 0.40) {
            Word key = pool_key(rng, pool_bits);
            ASSERT_EQ(dut.search(key), ref.search(key)) << "step " << step;
        } else if (roll < 0.50) {
            // searchVisit: both must visit the same slots in the same
            // order and stop at the same point.
            Word key = pool_key(rng, pool_bits);
            std::size_t stop_after = rng.next(4);
            std::vector<std::size_t> seen_dut, seen_ref;
            auto hit_dut = dut.searchVisit(key, [&](std::size_t s) {
                seen_dut.push_back(s);
                return seen_dut.size() > stop_after;
            });
            auto hit_ref = ref.searchVisit(key, [&](std::size_t s) {
                seen_ref.push_back(s);
                return seen_ref.size() > stop_after;
            });
            ASSERT_EQ(hit_dut, hit_ref) << "step " << step;
            ASSERT_EQ(seen_dut, seen_ref) << "step " << step;
        } else if (roll < 0.58) {
            Word key = pool_key(rng, pool_bits);
            ASSERT_EQ(dut.searchAll(key), ref.searchAll(key))
                << "step " << step;
        } else if (roll < 0.64) {
            Word key = pool_key(rng, pool_bits);
            ASSERT_EQ(dut.peek(key), ref.peek(key)) << "step " << step;
        } else if (roll < 0.70) {
            TernaryPattern p = random_pattern(rng, pool_bits);
            ASSERT_EQ(dut.findPattern(p), ref.findPattern(p))
                << "step " << step;
        } else if (roll < 0.74) {
            TernaryPattern p = random_pattern(rng, pool_bits);
            ASSERT_EQ(dut.victimFor(p), ref.victimFor(p)) << "step " << step;
        } else if (roll < 0.92) {
            TernaryPattern p = random_pattern(rng, pool_bits);
            ASSERT_EQ(dut.insert(p), ref.insert(p)) << "step " << step;
        } else if (roll < 0.96) {
            std::size_t slot = rng.next(c.capacity);
            dut.erase(slot);
            ref.erase(slot);
        } else {
            std::size_t slot = rng.next(c.capacity);
            if (dut.valid(slot)) {
                dut.touch(slot);
                ref.touch(slot);
            }
        }
        ASSERT_NO_FATAL_FAILURE(
            expect_same_counters(dut, ref, "tcam", step));
    }
    // Final state audit: every slot agrees.
    for (std::size_t s = 0; s < c.capacity; ++s) {
        ASSERT_EQ(dut.valid(s), ref.valid(s)) << "slot " << s;
        if (dut.valid(s)) {
            ASSERT_TRUE(dut.pattern(s) == ref.pattern(s)) << "slot " << s;
        }
    }
}

/** The same lockstep check for a Cam and a RefCam, with clear() in
 * the mix. */
void
cam_matches_reference(const DiffCase &c, int steps)
{
    Cam dut(c.capacity, c.policy);
    RefCam ref(c.capacity, c.policy);
    Rng rng(c.seed ^ 0xCA3ull);
    unsigned pool_bits = 4;
    while ((1u << pool_bits) < 2 * c.capacity)
        ++pool_bits;

    for (int step = 0; step < steps; ++step) {
        double roll = rng.uniform();
        Word key = pool_key(rng, pool_bits);
        if (roll < 0.40) {
            ASSERT_EQ(dut.search(key), ref.search(key)) << "step " << step;
        } else if (roll < 0.52) {
            ASSERT_EQ(dut.peek(key), ref.peek(key)) << "step " << step;
        } else if (roll < 0.58) {
            ASSERT_EQ(dut.victimFor(key), ref.victimFor(key))
                << "step " << step;
        } else if (roll < 0.88) {
            ASSERT_EQ(dut.insert(key), ref.insert(key)) << "step " << step;
        } else if (roll < 0.94) {
            std::size_t slot = rng.next(c.capacity);
            dut.erase(slot);
            ref.erase(slot);
        } else if (roll < 0.98) {
            std::size_t slot = rng.next(c.capacity);
            if (dut.valid(slot)) {
                dut.touch(slot);
                ref.touch(slot);
            }
        } else {
            dut.clear();
            ref.clear();
        }
        ASSERT_NO_FATAL_FAILURE(expect_same_counters(dut, ref, "cam", step));
    }
    for (std::size_t s = 0; s < c.capacity; ++s) {
        ASSERT_EQ(dut.valid(s), ref.valid(s)) << "slot " << s;
        if (dut.valid(s)) {
            ASSERT_EQ(dut.key(s), ref.key(s)) << "slot " << s;
            ASSERT_EQ(dut.frequency(s), ref.frequency(s)) << "slot " << s;
        }
    }
}

TEST_P(MatchEngineDiff, TcamMatchesReference)
{
    tcam_matches_reference(GetParam(), 10000);
}

TEST_P(MatchEngineDiff, CamMatchesReference)
{
    cam_matches_reference(GetParam(), 10000);
}

TEST_P(MatchEngineDiff, TcamClearAndAllDontCare)
{
    const DiffCase &c = GetParam();
    Tcam dut(c.capacity, c.policy);
    RefTcam ref(c.capacity, c.policy);
    // All-don't-care patterns with distinct values share one canonical
    // form, so every insert after the first rehits slot 0: validCount
    // stays 1 and every key matches it.
    for (int i = 0; i < 3; ++i) {
        TernaryPattern all_x{static_cast<Word>(i * 1000u), 0xFFFFFFFFu};
        ASSERT_EQ(dut.insert(all_x), ref.insert(all_x));
    }
    ASSERT_EQ(dut.validCount(), 1u);
    ASSERT_EQ(dut.search(0xDEADBEEF), ref.search(0xDEADBEEF));
    ASSERT_EQ(dut.search(0), ref.search(0));
    dut.clear();
    ref.clear();
    ASSERT_EQ(dut.validCount(), 0u);
    ASSERT_EQ(dut.search(0), ref.search(0));
    ASSERT_NO_FATAL_FAILURE(expect_same_counters(dut, ref, "clear", 0));
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, MatchEngineDiff,
    ::testing::Values(DiffCase{4, ReplacementPolicy::Lfu, 0x51CEDull},
                      DiffCase{4, ReplacementPolicy::Lru, 0x51CEDull},
                      DiffCase{8, ReplacementPolicy::Lfu, 0x8E17ull},
                      DiffCase{8, ReplacementPolicy::Lru, 0x8E17ull},
                      DiffCase{31, ReplacementPolicy::Lfu, 0x31A5ull},
                      DiffCase{31, ReplacementPolicy::Lru, 0x31A5ull},
                      DiffCase{32, ReplacementPolicy::Lfu, 0x3200ull},
                      DiffCase{32, ReplacementPolicy::Lru, 0x3200ull},
                      DiffCase{33, ReplacementPolicy::Lfu, 0x33C3ull},
                      DiffCase{33, ReplacementPolicy::Lru, 0x33C3ull},
                      DiffCase{63, ReplacementPolicy::Lfu, 0x63E1ull},
                      DiffCase{63, ReplacementPolicy::Lru, 0x63E1ull},
                      DiffCase{64, ReplacementPolicy::Lfu, 0xB17Eull},
                      DiffCase{64, ReplacementPolicy::Lru, 0xB17Eull},
                      DiffCase{65, ReplacementPolicy::Lfu, 0xC0DEull},
                      DiffCase{65, ReplacementPolicy::Lru, 0xC0DEull},
                      DiffCase{127, ReplacementPolicy::Lfu, 0x127Full},
                      DiffCase{127, ReplacementPolicy::Lru, 0x127Full},
                      DiffCase{128, ReplacementPolicy::Lfu, 0x1280ull},
                      DiffCase{128, ReplacementPolicy::Lru, 0x1280ull},
                      DiffCase{130, ReplacementPolicy::Lfu, 0xF00Dull},
                      DiffCase{130, ReplacementPolicy::Lru, 0xF00Dull}),
    case_name);

// The same two engine checks, run twice as long at the 64-entry
// boundaries. The suite keeps the name and seeds it had when the
// engines carried SIMD kernels, so its test IDs stay stable.
class SimdTcamDiff : public MatchEngineDiff
{};

TEST_P(SimdTcamDiff, TcamMatchesReference)
{
    tcam_matches_reference(GetParam(), 20000);
}

TEST_P(SimdTcamDiff, CamMatchesReference)
{
    cam_matches_reference(GetParam(), 20000);
}

INSTANTIATE_TEST_SUITE_P(
    ChunkBoundaries, SimdTcamDiff,
    ::testing::Values(DiffCase{63, ReplacementPolicy::Lfu, 0xD1FFull},
                      DiffCase{63, ReplacementPolicy::Lru, 0xD1FFull},
                      DiffCase{64, ReplacementPolicy::Lfu, 0xFACEull},
                      DiffCase{64, ReplacementPolicy::Lru, 0xFACEull},
                      DiffCase{65, ReplacementPolicy::Lfu, 0xBEADull},
                      DiffCase{65, ReplacementPolicy::Lru, 0xBEADull},
                      DiffCase{127, ReplacementPolicy::Lfu, 0xA11Cull},
                      DiffCase{127, ReplacementPolicy::Lru, 0xA11Cull},
                      DiffCase{128, ReplacementPolicy::Lfu, 0x1DEAull},
                      DiffCase{128, ReplacementPolicy::Lru, 0x1DEAull}),
    case_name);

// ---------------------------------------------------------------------
// The encodeBlock, encodeSpan and decodeSpan forwarders return what
// encode()/decode() return. Each scheme has one encode and one decode
// body; the forwarders survive only because the benchmark's forwarding
// codec (perfbench/tracing.h) overrides them, so no scheme may override
// them with different bits.
// ---------------------------------------------------------------------

DataBlock
make_block(Rng &rng, const std::vector<Word> &hot)
{
    std::vector<Word> ws(16);
    for (auto &w : ws) {
        double roll = rng.uniform();
        if (roll < 0.12)
            w = 0;
        else if (roll < 0.55)
            w = hot[rng.next(hot.size())];
        else if (roll < 0.75)
            w = hot[rng.next(hot.size())] ^ static_cast<Word>(rng.next(256));
        else
            w = static_cast<Word>(rng.bits()) & 0x7FFFFFFFu;
    }
    bool approximable = rng.uniform() < 0.7;
    DataType type = rng.uniform() < 0.5 ? DataType::Int32 : DataType::Float32;
    if (rng.uniform() < 0.1) {
        type = DataType::Raw;
        approximable = false;
    }
    return DataBlock(std::move(ws), type, approximable);
}

void
expect_same_stream(const EncodedBlock &a, const EncodedBlock &b,
                   const std::string &what, int block)
{
    ASSERT_EQ(a.bits(), b.bits()) << what << " block " << block;
    ASSERT_EQ(a.wordCount(), b.wordCount())
        << what << " block " << block;
    ASSERT_EQ(a.words().size(), b.words().size())
        << what << " block " << block;
    for (std::size_t i = 0; i < a.words().size(); ++i) {
        const EncodedWord &wa = a.words()[i];
        const EncodedWord &wb = b.words()[i];
        ASSERT_EQ(wa.kind, wb.kind)
            << what << " block " << block << " unit " << i;
        ASSERT_EQ(wa.bits, wb.bits)
            << what << " block " << block << " unit " << i;
        ASSERT_EQ(wa.payload, wb.payload)
            << what << " block " << block << " unit " << i;
        ASSERT_EQ(wa.run, wb.run)
            << what << " block " << block << " unit " << i;
        ASSERT_EQ(wa.decoded, wb.decoded)
            << what << " block " << block << " unit " << i;
        ASSERT_EQ(wa.approx_count, wb.approx_count)
            << what << " block " << block << " unit " << i;
        ASSERT_EQ(wa.uncompressed, wb.uncompressed)
            << what << " block " << block << " unit " << i;
    }
}

TEST(EncodeBlockEquivalence, MatchesWordAtATimeForEveryScheme)
{
    for (Scheme s : kAllSchemes) {
        CodecConfig cc;
        cc.n_nodes = 4;
        cc.dict.pmt_entries = 8;
        // Two codec instances fed identical traffic: one through
        // encode(), one through the encodeBlock forwarder. Both also
        // decode every block so the dictionary protocol
        // (training, notifications, pending updates) advances in
        // lockstep — any divergence shows up as a stream mismatch on a
        // later block.
        auto direct = CodecFactory::create(s, cc);
        auto fwd = CodecFactory::create(s, cc);
        Rng rng(0xE0C0 + static_cast<std::uint64_t>(s));
        std::vector<Word> hot;
        for (int i = 0; i < 8; ++i)
            hot.push_back(static_cast<Word>(rng.range(500, 5000000)));

        Cycle now = 0;
        for (int block = 0; block < 400; ++block) {
            DataBlock b = make_block(rng, hot);
            NodeId src = static_cast<NodeId>(rng.next(2));
            NodeId dst = static_cast<NodeId>(2 + rng.next(2));
            EncodedBlock e_direct = direct->encode(b, src, dst, now);
            EncodedBlock e_fwd = fwd->encodeBlock(b, src, dst, now);
            ASSERT_NO_FATAL_FAILURE(
                expect_same_stream(e_direct, e_fwd, to_string(s), block));
            DataBlock d_direct = direct->decode(e_direct, src, dst, now);
            DataBlock d_fwd = fwd->decode(e_fwd, src, dst, now);
            ASSERT_EQ(d_direct.words(), d_fwd.words())
                << to_string(s) << " block " << block;
            now += 51; // > 50-cycle notify spacing: training progresses
        }
        EXPECT_EQ(direct->consistencyMismatches(), 0u) << to_string(s);
        EXPECT_EQ(fwd->consistencyMismatches(), 0u) << to_string(s);
    }
}

/** Drive encode/decode and span-forwarder (encodeSpan/decodeSpan
 * through one arena, reset per block) twins over identical traffic,
 * asserting bit-identity at every step. Both twins decode every block
 * so the dictionary protocols advance in lockstep. */
void
run_span_roundtrip(CodecSystem &direct, CodecSystem &span,
                   const std::string &what, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Word> hot;
    for (int i = 0; i < 8; ++i)
        hot.push_back(static_cast<Word>(rng.range(500, 5000000)));

    Arena arena;
    Cycle now = 0;
    for (int block = 0; block < 250; ++block) {
        DataBlock b = make_block(rng, hot);
        NodeId src = static_cast<NodeId>(rng.next(2));
        NodeId dst = static_cast<NodeId>(2 + rng.next(2));

        EncodedBlock e_direct = direct.encode(b, src, dst, now);
        EncodedBlock e_span = span.encodeSpan(b, src, dst, now, arena);
        ASSERT_NO_FATAL_FAILURE(
            expect_same_stream(e_direct, e_span, what, block));

        DataBlock d_direct = direct.decode(e_direct, src, dst, now);
        DecodedSpan d_span = span.decodeSpan(e_span, src, dst, now, arena);
        ASSERT_EQ(d_direct.size(), d_span.size) << what << " block " << block;
        ASSERT_EQ(d_direct.type(), d_span.type) << what << " block " << block;
        ASSERT_EQ(d_direct.approximable(), d_span.approximable)
            << what << " block " << block;
        for (std::size_t i = 0; i < d_span.size; ++i)
            ASSERT_EQ(d_direct.word(i), d_span.word(i))
                << what << " block " << block << " word " << i;

        // The batch boundary: every arena-backed view dies here.
        arena.reset();
        now += 51;
    }
    EXPECT_EQ(direct.consistencyMismatches(), span.consistencyMismatches())
        << what;
    // The arena retains its chunks across resets — steady state is
    // zero live bytes and nonzero reserved capacity.
    EXPECT_EQ(arena.bytesLive(), 0u);
    EXPECT_GT(arena.bytesReserved(), 0u);
}

TEST(ArenaRoundTrip, EverySchemeSpanPathBitIdentical)
{
    for (Scheme s : kAllSchemes) {
        CodecConfig cc;
        cc.n_nodes = 4;
        cc.dict.pmt_entries = 8;
        auto direct = CodecFactory::create(s, cc);
        auto span = CodecFactory::create(s, cc);
        run_span_roundtrip(*direct, *span, to_string(s),
                           0xA3E0 + static_cast<std::uint64_t>(s));
    }
}

TEST(ArenaRoundTrip, WindowVaxxSpanPathBitIdentical)
{
    ErrorModel model(10.0, ErrorRangeMode::Shift);
    WindowVaxxCodec direct(model);
    WindowVaxxCodec span(model);
    run_span_roundtrip(direct, span, "WindowVaxx", 0x77AEull);
}

TEST(ArenaRoundTrip, AdaptiveWrapperSpanPathBitIdentical)
{
    AdaptiveConfig cfg;
    cfg.n_nodes = 4;
    cfg.window_blocks = 8;
    cfg.off_blocks = 16;
    AdaptiveCodec direct(std::make_unique<FpcCodec>(), cfg);
    AdaptiveCodec span(std::make_unique<FpcCodec>(), cfg);
    run_span_roundtrip(direct, span, "Adaptive", 0xADA7ull);
    // The bypass machinery must have engaged on both twins identically.
    EXPECT_EQ(direct.bypassedBlocks(), span.bypassedBlocks());
}

} // namespace
