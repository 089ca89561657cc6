/**
 * Differential / fuzz lockdown for the SIMD match engines and the
 * arena forwarders (docs/perf.md, "SIMD match kernels"):
 *
 *  - the AVX2 plane-intersection kernel against the scalar reference
 *    kernel on >= 100k randomized (planes, valid, key) triples plus the
 *    structured edges (all-invalid, all-valid, all-ones planes);
 *  - the full bit-sliced Tcam and hash-indexed Cam against their naive
 *    references at capacities straddling the 64-entry chunk boundary
 *    (63, 64, 65, 127, 128), asserting identical hit slots, victim /
 *    eviction choices and searches()/peeks()/writes() counters;
 *  - the branchless FPC prefix classifier against the solver-based
 *    fpc_match_ref, randomized plus an exhaustive sweep of the
 *    sign-boundary halfword space;
 *  - the dispatch matrix (parse_simd_request / resolve_simd_level) row
 *    by row, without touching the environment;
 *  - pinned probe counts, so kernel-internal early exits can never
 *    leak into the power model's activity accounting;
 *  - the encodeSpan/decodeSpan forwarders against encode()/decode()
 *    for every scheme, bit-for-bit.
 *
 * CTest runs this binary under both `ANOC_SIMD=scalar` and
 * `ANOC_SIMD=avx2` (tests/CMakeLists.txt: simd_diff_scalar /
 * simd_diff_avx2), so every assertion holds under either dispatch; on
 * a host without AVX2 the avx2 leg exercises the documented clamp.
 */
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "common/simd.h"
#include "compression/adaptive.h"
#include "core/codec_factory.h"
#include "approx/window_vaxx.h"
#include "tcam/match_kernel.h"
#include "tcam/reference.h"
#include "tcam/tcam.h"

using namespace approxnoc;

namespace {

// ---------------------------------------------------------------------
// Kernel-level differential fuzz. The kernels are pure functions of
// (planes, valid, key); scalar and AVX2 must agree on *any* input, not
// just plane sets a real Tcam would produce. When the AVX2 kernel is
// compiled out, match64_avx2 forwards to match64_scalar and this
// degenerates to a (still meaningful) self-check.
// ---------------------------------------------------------------------

TEST(SimdDiff, KernelsBitIdenticalOnRandomPlanes)
{
    Rng rng(0x51D3ull);
    std::uint64_t planes[64];
    const simd::MatchFn active = simd::match64_kernel();
    std::uint64_t nonzero = 0;
    for (int trial = 0; trial < 120000; ++trial) {
        // Density sweep: dense planes exercise the no-early-exit tail
        // reduce, sparse planes the per-group early exits.
        const double roll = rng.uniform();
        for (auto &p : planes) {
            if (roll < 0.25)
                p = ~0ull; // every entry in every plane
            else if (roll < 0.50)
                p = rng.bits();
            else if (roll < 0.75)
                p = rng.bits() & rng.bits();
            else
                p = rng.bits() & rng.bits() & rng.bits();
        }
        std::uint64_t valid;
        const double vroll = rng.uniform();
        if (vroll < 0.10)
            valid = 0; // all-invalid chunk
        else if (vroll < 0.30)
            valid = ~0ull; // all-valid chunk
        else
            valid = rng.bits();
        const std::uint32_t key = static_cast<std::uint32_t>(rng.bits());

        const std::uint64_t s = simd::match64_scalar(planes, valid, key);
        const std::uint64_t v = simd::match64_avx2(planes, valid, key);
        ASSERT_EQ(s, v) << "trial " << trial << " valid " << valid
                        << " key " << key;
        ASSERT_EQ(s, active(planes, valid, key)) << "trial " << trial;
        nonzero += s != 0;
    }
    // The sweep must actually exercise both hit and miss outcomes.
    EXPECT_GT(nonzero, 0u);
}

TEST(SimdDiff, KernelEdgeCases)
{
    std::uint64_t planes[64];
    // All planes full: every valid entry matches any key.
    for (auto &p : planes)
        p = ~0ull;
    for (std::uint64_t valid : {0ull, 1ull, 0x8000000000000000ull, ~0ull}) {
        for (std::uint32_t key : {0u, 1u, 0xFFFFFFFFu, 0xA5A5A5A5u}) {
            EXPECT_EQ(simd::match64_scalar(planes, valid, key), valid);
            EXPECT_EQ(simd::match64_avx2(planes, valid, key), valid);
        }
    }
    // Zeroing a single plane pair bit kills exactly that entry.
    planes[7] &= ~(1ull << 42);  // zero-plane of key bit 7
    planes[39] &= ~(1ull << 42); // one-plane of key bit 7
    EXPECT_EQ(simd::match64_scalar(planes, ~0ull, 0),
              ~0ull & ~(1ull << 42));
    EXPECT_EQ(simd::match64_avx2(planes, ~0ull, 0),
              ~0ull & ~(1ull << 42));
}

// ---------------------------------------------------------------------
// Dispatch matrix, row by row, without touching the environment.
// ---------------------------------------------------------------------

TEST(SimdDiff, DispatchMatrix)
{
    using simd::SimdLevel;
    using simd::SimdRequest;

    // Parse: exact lowercase spellings map; anything else (null, empty,
    // wrong case, garbage) falls back.
    EXPECT_EQ(simd::parse_simd_request("scalar", SimdRequest::Auto),
              SimdRequest::Scalar);
    EXPECT_EQ(simd::parse_simd_request("avx2", SimdRequest::Auto),
              SimdRequest::Avx2);
    EXPECT_EQ(simd::parse_simd_request("auto", SimdRequest::Scalar),
              SimdRequest::Auto);
    EXPECT_EQ(simd::parse_simd_request(nullptr, SimdRequest::Avx2),
              SimdRequest::Avx2);
    EXPECT_EQ(simd::parse_simd_request("", SimdRequest::Scalar),
              SimdRequest::Scalar);
    EXPECT_EQ(simd::parse_simd_request("AVX2", SimdRequest::Auto),
              SimdRequest::Auto);
    EXPECT_EQ(simd::parse_simd_request("sse", SimdRequest::Auto),
              SimdRequest::Auto);

    // Resolve: scalar always wins its row; avx2/auto clamp to host.
    EXPECT_EQ(simd::resolve_simd_level(SimdRequest::Scalar, false),
              SimdLevel::Scalar);
    EXPECT_EQ(simd::resolve_simd_level(SimdRequest::Scalar, true),
              SimdLevel::Scalar);
    EXPECT_EQ(simd::resolve_simd_level(SimdRequest::Avx2, false),
              SimdLevel::Scalar);
    EXPECT_EQ(simd::resolve_simd_level(SimdRequest::Avx2, true),
              SimdLevel::Avx2);
    EXPECT_EQ(simd::resolve_simd_level(SimdRequest::Auto, false),
              SimdLevel::Scalar);
    EXPECT_EQ(simd::resolve_simd_level(SimdRequest::Auto, true),
              SimdLevel::Avx2);

    // The cached process-wide selection is exactly one resolve of the
    // cached request against the actual capability, and the cached
    // kernel is the matching function.
    const bool available =
        simd::avx2_kernel_compiled() && simd::cpu_has_avx2();
    const SimdLevel expect =
        simd::resolve_simd_level(simd::requested_simd_level(), available);
    EXPECT_EQ(simd::active_simd_level(), expect);
    EXPECT_EQ(simd::match64_kernel(), expect == SimdLevel::Avx2
                                          ? &simd::match64_avx2
                                          : &simd::match64_scalar);
}

// ---------------------------------------------------------------------
// Engine-level differential fuzz at chunk-boundary capacities. The
// pre-bit-slicing references are the executable spec; hit slots,
// victim/eviction choices and all three activity counters must track
// exactly under whichever kernel ANOC_SIMD selected.
// ---------------------------------------------------------------------

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

template <typename A, typename B>
void
expect_same_counters(const A &a, const B &b, const char *what, int step)
{
    ASSERT_EQ(a.searches(), b.searches()) << what << " step " << step;
    ASSERT_EQ(a.peeks(), b.peeks()) << what << " step " << step;
    ASSERT_EQ(a.writes(), b.writes()) << what << " step " << step;
    ASSERT_EQ(a.validCount(), b.validCount()) << what << " step " << step;
}

struct SimdDiffCase {
    std::size_t capacity;
    ReplacementPolicy policy;
    std::uint64_t seed;
};

class SimdTcamDiff : public ::testing::TestWithParam<SimdDiffCase>
{};

std::string
simd_case_name(const ::testing::TestParamInfo<SimdDiffCase> &info)
{
    return "cap" + std::to_string(info.param.capacity) +
           (info.param.policy == ReplacementPolicy::Lru ? "_lru" : "_lfu");
}

TEST_P(SimdTcamDiff, TcamMatchesReference)
{
    const SimdDiffCase &c = GetParam();
    Tcam dut(c.capacity, c.policy);
    RefTcam ref(c.capacity, c.policy);
    Rng rng(c.seed);
    unsigned pool_bits = 4;
    while ((1u << pool_bits) < 2 * c.capacity)
        ++pool_bits;

    std::vector<std::size_t> evictions_dut, evictions_ref;
    for (int step = 0; step < 20000; ++step) {
        double roll = rng.uniform();
        if (roll < 0.40) {
            Word key = pool_key(rng, pool_bits);
            ASSERT_EQ(dut.search(key), ref.search(key)) << "step " << step;
        } else if (roll < 0.48) {
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
        } else if (roll < 0.56) {
            Word key = pool_key(rng, pool_bits);
            ASSERT_EQ(dut.searchAll(key), ref.searchAll(key))
                << "step " << step;
        } else if (roll < 0.62) {
            Word key = pool_key(rng, pool_bits);
            ASSERT_EQ(dut.peek(key), ref.peek(key)) << "step " << step;
        } else if (roll < 0.68) {
            TernaryPattern p = random_pattern(rng, pool_bits);
            ASSERT_EQ(dut.findPattern(p), ref.findPattern(p))
                << "step " << step;
        } else if (roll < 0.72) {
            TernaryPattern p = random_pattern(rng, pool_bits);
            ASSERT_EQ(dut.victimFor(p), ref.victimFor(p)) << "step " << step;
        } else if (roll < 0.92) {
            // Eviction order: record which slot each insert lands in.
            TernaryPattern p = random_pattern(rng, pool_bits);
            std::size_t sd = dut.insert(p);
            std::size_t sr = ref.insert(p);
            ASSERT_EQ(sd, sr) << "step " << step;
            evictions_dut.push_back(sd);
            evictions_ref.push_back(sr);
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
        ASSERT_NO_FATAL_FAILURE(expect_same_counters(dut, ref, "tcam", step));
    }
    EXPECT_EQ(evictions_dut, evictions_ref);
    for (std::size_t s = 0; s < c.capacity; ++s) {
        ASSERT_EQ(dut.valid(s), ref.valid(s)) << "slot " << s;
        if (dut.valid(s)) {
            ASSERT_TRUE(dut.pattern(s) == ref.pattern(s)) << "slot " << s;
        }
    }
}

TEST_P(SimdTcamDiff, CamMatchesReference)
{
    const SimdDiffCase &c = GetParam();
    Cam dut(c.capacity, c.policy);
    RefCam ref(c.capacity, c.policy);
    Rng rng(c.seed ^ 0x5EEDull);
    unsigned pool_bits = 4;
    while ((1u << pool_bits) < 2 * c.capacity)
        ++pool_bits;

    for (int step = 0; step < 20000; ++step) {
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
}

INSTANTIATE_TEST_SUITE_P(
    ChunkBoundaries, SimdTcamDiff,
    ::testing::Values(SimdDiffCase{63, ReplacementPolicy::Lfu, 0xD1FFull},
                      SimdDiffCase{63, ReplacementPolicy::Lru, 0xD1FFull},
                      SimdDiffCase{64, ReplacementPolicy::Lfu, 0xFACEull},
                      SimdDiffCase{64, ReplacementPolicy::Lru, 0xFACEull},
                      SimdDiffCase{65, ReplacementPolicy::Lfu, 0xBEADull},
                      SimdDiffCase{65, ReplacementPolicy::Lru, 0xBEADull},
                      SimdDiffCase{127, ReplacementPolicy::Lfu, 0xA11Cull},
                      SimdDiffCase{127, ReplacementPolicy::Lru, 0xA11Cull},
                      SimdDiffCase{128, ReplacementPolicy::Lfu, 0x1DEAull},
                      SimdDiffCase{128, ReplacementPolicy::Lru, 0x1DEAull}),
    simd_case_name);

// ---------------------------------------------------------------------
// Branchless FPC classifier vs the solver-based reference, k == 0.
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Probe-count regression: the counters are part of the power model's
// inputs, so they are pinned to exact values here. Kernel-internal
// early exits, plane-layout changes or dispatch choices must never
// shift them (this file runs under both ANOC_SIMD settings).
// ---------------------------------------------------------------------

TEST(SimdDiff, ProbeCountRegression)
{
    Tcam t(130); // three chunks, partial tail
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

// ---------------------------------------------------------------------
// The encodeSpan/decodeSpan forwarders vs encode()/decode(). Each
// scheme has one encode and one decode body; the span forwarders
// survive only because the benchmark's forwarding codec
// (perfbench/tracing.h) overrides them, and they must return what
// encode()/decode() return: NR streams, decoded words
// and consistency counters are all compared bit-for-bit, for every
// scheme the factory builds plus the two codecs it does not
// (WindowVaxx, the Adaptive wrapper).
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
    ASSERT_EQ(a.wordCount(), b.wordCount()) << what << " block " << block;
    ASSERT_EQ(a.words().size(), b.words().size())
        << what << " block " << block;
    for (std::size_t i = 0; i < a.words().size(); ++i) {
        const EncodedWord &wa = a.words()[i];
        const EncodedWord &wb = b.words()[i];
        ASSERT_EQ(wa.kind, wb.kind) << what << " block " << block << " " << i;
        ASSERT_EQ(wa.bits, wb.bits) << what << " block " << block << " " << i;
        ASSERT_EQ(wa.payload, wb.payload)
            << what << " block " << block << " " << i;
        ASSERT_EQ(wa.run, wb.run) << what << " block " << block << " " << i;
        ASSERT_EQ(wa.decoded, wb.decoded)
            << what << " block " << block << " " << i;
        ASSERT_EQ(wa.approximated, wb.approximated)
            << what << " block " << block << " " << i;
        ASSERT_EQ(wa.uncompressed, wb.uncompressed)
            << what << " block " << block << " " << i;
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

// ---------------------------------------------------------------------
// Whole-simulator artifact byte-identity across dispatch and jobs.
// Kept out of the SimdDiff suite so the pinned simd_diff_* ctest legs
// do not re-run the subprocesses.
// ---------------------------------------------------------------------

#ifdef APPROXNOC_SIM_TOOL
std::string
slurp_file(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(SimdTool, ArtifactsByteIdenticalAcrossSimdAndJobs)
{
    if (!std::ifstream(APPROXNOC_SIM_TOOL).good())
        GTEST_SKIP() << "approxnoc_sim not built";
    struct Leg {
        const char *name;
        const char *env;
        const char *jobs;
    } legs[] = {
        {"scalar_j1", "scalar", "1"},
        {"avx2_j1", "avx2", "1"},
        {"avx2_j4", "avx2", "4"},
    };
    std::vector<std::string> dirs;
    for (const Leg &l : legs) {
        const std::string dir =
            ::testing::TempDir() + "simd_tool_" + l.name;
        // 2>/dev/null also swallows the documented clamp note when the
        // avx2 legs run on a host without AVX2.
        std::string cmd = std::string("ANOC_SIMD=") + l.env + " " +
                          APPROXNOC_SIM_TOOL +
                          " --compare=DI-VAXX,FP-VAXX --cycles=2000"
                          " --metrics-out=" + dir +
                          " --jobs=" + l.jobs + " > /dev/null 2>&1";
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
        dirs.push_back(dir);
    }
    for (const char *f : {"di_vaxx.qor.json", "di_vaxx.metrics.json",
                          "fp_vaxx.qor.json", "fp_vaxx.metrics.json"}) {
        std::string base = slurp_file(dirs[0] + "/" + f);
        ASSERT_FALSE(base.empty()) << f;
        for (std::size_t i = 1; i < dirs.size(); ++i)
            EXPECT_EQ(base, slurp_file(dirs[i] + "/" + f))
                << legs[i].name << "/" << f;
    }
}
#endif

} // namespace
