/**
 * Randomized differential tests for the optimized match engines and the
 * encodeBlock forwarder:
 *
 *  - the bit-sliced Tcam against the naive RefTcam, and the
 *    hash-indexed Cam against RefCam (tcam/reference.h), driven through
 *    long random insert/erase/search/touch sequences and asserting
 *    identical hit slots, victim choices and activity counters;
 *  - the CodecSystem::encodeBlock forwarder against encode() for every
 *    scheme CodecFactory builds, asserting bit-identical NR streams.
 *
 * Capacities straddle the 64-entry bitmap chunk boundary (4, 64, 65,
 * 130) on purpose: the tail-chunk masking in pickVictim and the
 * multi-chunk search loop are the easiest places for the bit-sliced
 * engine to diverge.
 */
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/codec_factory.h"
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

TEST_P(MatchEngineDiff, TcamMatchesReference)
{
    const DiffCase &c = GetParam();
    Tcam dut(c.capacity, c.policy);
    RefTcam ref(c.capacity, c.policy);
    Rng rng(c.seed);
    // Keys drawn from 2*capacity-ish values keep the TCAM at full
    // occupancy with constant eviction churn after warmup.
    unsigned pool_bits = 4;
    while ((1u << pool_bits) < 2 * c.capacity)
        ++pool_bits;

    for (int step = 0; step < 10000; ++step) {
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

TEST_P(MatchEngineDiff, CamMatchesReference)
{
    const DiffCase &c = GetParam();
    Cam dut(c.capacity, c.policy);
    RefCam ref(c.capacity, c.policy);
    Rng rng(c.seed ^ 0xCA3ull);
    unsigned pool_bits = 4;
    while ((1u << pool_bits) < 2 * c.capacity)
        ++pool_bits;

    for (int step = 0; step < 10000; ++step) {
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
                      DiffCase{64, ReplacementPolicy::Lfu, 0xB17Eull},
                      DiffCase{64, ReplacementPolicy::Lru, 0xB17Eull},
                      DiffCase{65, ReplacementPolicy::Lfu, 0xC0DEull},
                      DiffCase{65, ReplacementPolicy::Lru, 0xC0DEull},
                      DiffCase{130, ReplacementPolicy::Lfu, 0xF00Dull},
                      DiffCase{130, ReplacementPolicy::Lru, 0xF00Dull}),
    case_name);

// ---------------------------------------------------------------------
// The encodeBlock forwarder returns what encode() returns. Each scheme
// has one encode body; encodeBlock survives only as a base forwarder
// because the benchmark's forwarding codec (perfbench/tracing.h)
// overrides it, so no scheme may override it with different bits.
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
expect_same_stream(const EncodedBlock &a, const EncodedBlock &b, Scheme s,
                   int block)
{
    ASSERT_EQ(a.bits(), b.bits()) << to_string(s) << " block " << block;
    ASSERT_EQ(a.wordCount(), b.wordCount())
        << to_string(s) << " block " << block;
    ASSERT_EQ(a.words().size(), b.words().size())
        << to_string(s) << " block " << block;
    for (std::size_t i = 0; i < a.words().size(); ++i) {
        const EncodedWord &wa = a.words()[i];
        const EncodedWord &wb = b.words()[i];
        ASSERT_EQ(wa.kind, wb.kind)
            << to_string(s) << " block " << block << " unit " << i;
        ASSERT_EQ(wa.bits, wb.bits)
            << to_string(s) << " block " << block << " unit " << i;
        ASSERT_EQ(wa.payload, wb.payload)
            << to_string(s) << " block " << block << " unit " << i;
        ASSERT_EQ(wa.run, wb.run)
            << to_string(s) << " block " << block << " unit " << i;
        ASSERT_EQ(wa.decoded, wb.decoded)
            << to_string(s) << " block " << block << " unit " << i;
        ASSERT_EQ(wa.approximated, wb.approximated)
            << to_string(s) << " block " << block << " unit " << i;
        ASSERT_EQ(wa.uncompressed, wb.uncompressed)
            << to_string(s) << " block " << block << " unit " << i;
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
                expect_same_stream(e_direct, e_fwd, s, block));
            DataBlock d_direct = direct->decode(e_direct, src, dst, now);
            DataBlock d_fwd = fwd->decode(e_fwd, src, dst, now);
            ASSERT_EQ(d_direct.words(), d_fwd.words())
                << to_string(s) << " block " << block;
            now += 51; // past notify_min_interval so training progresses
        }
        EXPECT_EQ(direct->consistencyMismatches(), 0u) << to_string(s);
        EXPECT_EQ(fwd->consistencyMismatches(), 0u) << to_string(s);
    }
}

} // namespace
