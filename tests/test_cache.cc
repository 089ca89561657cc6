/** ApproxCacheSystem tests: caching behaviour, approximation path. */
#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>

#include "cache/approx_cache.h"
#include "common/rng.h"
#include "core/codec_factory.h"

using namespace approxnoc;

namespace {

CacheConfig
small_cache()
{
    CacheConfig cfg;
    cfg.n_cores = 4;
    cfg.n_nodes = 8;
    cfg.l1_bytes = 1024; // 16 lines: 8 sets x 2 ways
    cfg.approx_ratio = 1.0;
    return cfg;
}

} // namespace

TEST(Cache, AllocIsLineAligned)
{
    ApproxCacheSystem mem(small_cache(), nullptr);
    std::size_t a = mem.alloc(5, "a");
    std::size_t b = mem.alloc(20, "b");
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 16);
}

TEST(Cache, InitPeekRoundTrip)
{
    ApproxCacheSystem mem(small_cache(), nullptr);
    std::size_t a = mem.alloc(16, "a");
    mem.initFloat(a, 3.5f);
    mem.initInt(a + 1, -42);
    EXPECT_FLOAT_EQ(mem.peekFloat(a), 3.5f);
    EXPECT_EQ(mem.peekInt(a + 1), -42);
}

TEST(Cache, HitsAndMisses)
{
    ApproxCacheSystem mem(small_cache(), nullptr);
    std::size_t a = mem.alloc(32, "a");
    mem.initWord(a, 7);
    EXPECT_EQ(mem.load(0, a), 7u);     // miss
    EXPECT_EQ(mem.misses(), 1u);
    mem.load(0, a + 1);                // same line: hit
    EXPECT_EQ(mem.misses(), 1u);
    mem.load(0, a + 16);               // next line: miss
    EXPECT_EQ(mem.misses(), 2u);
    mem.load(1, a);                    // other core: private L1 miss
    EXPECT_EQ(mem.misses(), 3u);
    EXPECT_EQ(mem.accesses(), 4u);
}

TEST(Cache, WritebackOnEvictionAndBarrier)
{
    CacheConfig cfg = small_cache();
    ApproxCacheSystem mem(cfg, nullptr);
    // 8 sets x 16-word lines: addresses 16*8*k map to set 0.
    std::size_t a = mem.alloc(16 * 8 * 4, "a");
    mem.store(0, a, 123); // dirty line in set 0
    EXPECT_EQ(mem.peekWord(a), 0u) << "store is not written through";
    // Evict by filling the set's two ways.
    mem.load(0, a + 16 * 8);
    mem.load(0, a + 16 * 8 * 2);
    EXPECT_EQ(mem.peekWord(a), 123u) << "eviction must write back";
    EXPECT_GE(mem.writebacks(), 1u);

    mem.store(1, a + 16, 77);
    mem.barrier();
    EXPECT_EQ(mem.peekWord(a + 16), 77u);
}

TEST(Cache, ApproximationFlowsIntoLoads)
{
    CacheConfig cfg = small_cache();
    CodecConfig cc;
    cc.n_nodes = cfg.n_nodes;
    cc.error_threshold_pct = 10.0;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    ApproxCacheSystem mem(cfg, codec.get());

    std::size_t a = mem.alloc(64, "floats");
    mem.annotate(a, 64, DataType::Float32);
    for (std::size_t i = 0; i < 64; ++i)
        mem.initFloat(a + i, 1000.0f + static_cast<float>(i));

    bool any_changed = false;
    for (std::size_t i = 0; i < 64; ++i) {
        float v = mem.loadFloat(0, a + i);
        float p = 1000.0f + static_cast<float>(i);
        EXPECT_LE(std::fabs(v - p), std::fabs(p) * 0.12f);
        any_changed = any_changed || v != p;
    }
    EXPECT_TRUE(any_changed) << "approximation should alter some values";
}

TEST(Cache, RawRegionsStayExact)
{
    CacheConfig cfg = small_cache();
    CodecConfig cc;
    cc.n_nodes = cfg.n_nodes;
    cc.error_threshold_pct = 20.0;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    ApproxCacheSystem mem(cfg, codec.get());

    std::size_t a = mem.alloc(64, "raw"); // no annotation
    for (std::size_t i = 0; i < 64; ++i)
        mem.initWord(a + i, static_cast<Word>(0xABCD0000 + i));
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(mem.load(0, a + i), 0xABCD0000 + i);
}

TEST(Cache, ApproxRatioZeroKeepsDataExact)
{
    CacheConfig cfg = small_cache();
    cfg.approx_ratio = 0.0;
    CodecConfig cc;
    cc.n_nodes = cfg.n_nodes;
    cc.error_threshold_pct = 20.0;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    ApproxCacheSystem mem(cfg, codec.get());

    std::size_t a = mem.alloc(64, "floats");
    mem.annotate(a, 64, DataType::Float32);
    for (std::size_t i = 0; i < 64; ++i)
        mem.initFloat(a + i, 5000.0f + 3.0f * static_cast<float>(i));
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_FLOAT_EQ(mem.loadFloat(0, a + i),
                        5000.0f + 3.0f * static_cast<float>(i));
}

TEST(Cache, MissPenaltyTracksResponseSize)
{
    // Compressible data -> smaller response -> fewer cycles.
    CacheConfig cfg = small_cache();
    CodecConfig cc;
    cc.n_nodes = cfg.n_nodes;
    auto codec = CodecFactory::create(Scheme::FpComp, cc);

    ApproxCacheSystem zeros(cfg, codec.get());
    std::size_t a = zeros.alloc(16, "z");
    zeros.load(0, a);
    Cycle t_zero = zeros.executionCycles();

    auto codec2 = CodecFactory::create(Scheme::FpComp, cc);
    ApproxCacheSystem rnd(cfg, codec2.get());
    std::size_t b = rnd.alloc(16, "r");
    for (int i = 0; i < 16; ++i)
        rnd.initWord(b + i, 0x9E3779B9u * (i + 1));
    rnd.load(0, b);
    EXPECT_LT(t_zero, rnd.executionCycles());
}

TEST(Cache, TraceSinkRecordsMissTraffic)
{
    CacheConfig cfg = small_cache();
    ApproxCacheSystem mem(cfg, nullptr);
    CommTrace trace;
    mem.setTraceSink(&trace);

    std::size_t a = mem.alloc(64, "a");
    mem.load(0, a);
    mem.load(0, a + 16);
    ASSERT_GE(trace.size(), 4u); // 2 misses: request + response each
    unsigned data = 0, ctrl = 0;
    for (const auto &r : trace.records()) {
        if (r.isData()) {
            ++data;
            EXPECT_NE(r.block, TraceRecord::kNoBlock);
        } else {
            ++ctrl;
        }
        EXPECT_LT(r.src, cfg.n_nodes);
        EXPECT_LT(r.dst, cfg.n_nodes);
    }
    EXPECT_EQ(data, 2u);
    EXPECT_EQ(ctrl, 2u);
}

// ---------------------------------------------------------------------
// Trace recording shares the words of a line whose memory has not
// changed since it was last recorded; every block still reads as the
// line's memory at the time of its packet.
// ---------------------------------------------------------------------

namespace {

/** A traced small cache over three lines of one L1 set (set 0 of 8). */
struct TracedSet {
    ApproxCacheSystem mem{small_cache(), nullptr};
    CommTrace trace;
    std::size_t a = 0; ///< the set's first line; a + 128k is the k-th

    TracedSet(const TracedSet &) = delete; // mem records into trace
    TracedSet &operator=(const TracedSet &) = delete;
    TracedSet()
    {
        mem.setTraceSink(&trace);
        a = mem.alloc(16 * 8 * 3, "a");
        mem.annotate(a, 16 * 8 * 3, DataType::Int32);
        for (std::size_t i = 0; i < 16; ++i)
            mem.initWord(a + i, static_cast<Word>(100 + i));
    }

    /** The block the latest record carries: a fill's response. */
    std::uint32_t lastBlock() const { return trace.records().back().block; }

    /** Evict line a from core 0's two ways by filling the set's others. */
    void evictA()
    {
        mem.load(0, a + 16 * 8);
        mem.load(0, a + 16 * 8 * 2);
    }
};

} // namespace

TEST(CacheTrace, CleanRefillSharesTheLinesWords)
{
    TracedSet s;
    s.mem.load(0, s.a);
    const std::uint32_t first = s.lastBlock();
    s.evictA(); // clean: memory keeps the words the first fill sent
    s.mem.load(0, s.a);
    const std::uint32_t again = s.lastBlock();

    EXPECT_EQ(s.mem.writebacks(), 0u);
    EXPECT_NE(again, first) << "every fill keeps its own block index";
    EXPECT_EQ(s.trace.block(again).words.data(),
              s.trace.block(first).words.data());
    EXPECT_EQ(s.trace.block(again).type, DataType::Int32);
    EXPECT_TRUE(s.trace.block(again).approximable);
    EXPECT_EQ(s.trace.blockCount(), 4u);
    EXPECT_EQ(s.trace.wordCount(), 3u * 16) << "three lines, stored once";
}

TEST(CacheTrace, WrittenBackWordsFeedTheNextFill)
{
    TracedSet s;
    s.mem.load(0, s.a);
    const std::uint32_t before = s.lastBlock();
    s.mem.store(0, s.a + 5, 555);
    s.evictA(); // dirty: the writeback puts 555 in memory
    ASSERT_EQ(s.mem.writebacks(), 1u);
    std::uint32_t written = TraceRecord::kNoBlock;
    for (const TraceRecord &r : s.trace.records())
        if (r.isData() && r.src == s.mem.nodeOfCore(0))
            written = r.block;
    ASSERT_NE(written, TraceRecord::kNoBlock);

    s.mem.load(1, s.a);
    const CommTrace::BlockView refill = s.trace.block(s.lastBlock());
    EXPECT_EQ(refill.words.data(), s.trace.block(written).words.data());
    EXPECT_NE(refill.words.data(), s.trace.block(before).words.data());
    EXPECT_EQ(refill.words[5], 555u);
    EXPECT_EQ(refill.words[4], 104u);
    // The shared words carry each packet's own metadata: the writeback
    // rides precise, the fill keeps its approximable draw.
    EXPECT_FALSE(s.trace.block(written).approximable);
    EXPECT_TRUE(refill.approximable);
    EXPECT_EQ(refill.type, DataType::Int32);
}

TEST(CacheTrace, InitWordEndsSharing)
{
    TracedSet s;
    s.mem.load(0, s.a);
    const std::uint32_t first = s.lastBlock();
    s.evictA();
    s.mem.initWord(s.a + 3, 0xBEEF);
    s.mem.load(0, s.a);
    const CommTrace::BlockView refill = s.trace.block(s.lastBlock());

    EXPECT_NE(refill.words.data(), s.trace.block(first).words.data());
    EXPECT_EQ(refill.words[3], 0xBEEFu);
    EXPECT_EQ(s.trace.block(first).words[3], 103u);
    EXPECT_EQ(s.trace.wordCount(), 4u * 16);
}

TEST(CacheTrace, BlocksEqualAPerBlockCopy)
{
    // Random loads, stores, initWords and barriers on four cores. Each
    // fill's block must hold its line's memory, as a copy made at the
    // fill would; saving writes every block in full, so the loaded
    // trace is that per-block copy, block for block.
    CacheConfig cfg = small_cache();
    ApproxCacheSystem mem(cfg, nullptr);
    CommTrace trace;
    mem.setTraceSink(&trace);
    const std::size_t words = 64 * 16;
    const std::size_t a = mem.alloc(words, "a");
    mem.annotate(a, words / 2, DataType::Float32);
    Rng rng(20170624);
    for (int op = 0; op < 4000; ++op) {
        const unsigned core = static_cast<unsigned>(rng.next(cfg.n_cores));
        const std::size_t addr = a + rng.next(words);
        const std::size_t records = trace.size();
        const std::uint64_t kind = rng.next(10);
        if (kind == 0) {
            mem.initWord(addr, static_cast<Word>(rng.next(1u << 20)));
            continue;
        }
        if (kind == 1) {
            mem.barrier();
            continue;
        }
        if (kind < 5)
            mem.store(core, addr, static_cast<Word>(rng.next(1u << 20)));
        else
            mem.load(core, addr);
        if (trace.size() == records)
            continue; // a hit records nothing
        const CommTrace::BlockView b =
            trace.block(trace.records().back().block);
        const std::size_t line = addr & ~std::size_t{15};
        ASSERT_EQ(b.words.size(), 16u);
        for (std::size_t i = 0; i < 16; ++i)
            ASSERT_EQ(b.words[i], mem.peekWord(line + i))
                << "op " << op << " word " << i;
    }

    const std::string path = ::testing::TempDir() + "per_block_copy.trace";
    trace.save(path);
    const CommTrace copy = CommTrace::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(copy.blockCount(), trace.blockCount());
    for (std::uint32_t i = 0; i < trace.blockCount(); ++i)
        ASSERT_EQ(copy.block(i).copy(), trace.block(i).copy()) << i;
    EXPECT_EQ(copy.wordCount(), 16 * trace.blockCount());
    EXPECT_LT(trace.wordCount(), copy.wordCount());
}

TEST(Cache, DeterministicAcrossRuns)
{
    auto run = [] {
        CacheConfig cfg = small_cache();
        CodecConfig cc;
        cc.n_nodes = cfg.n_nodes;
        auto codec = CodecFactory::create(Scheme::DiVaxx, cc);
        ApproxCacheSystem mem(cfg, codec.get());
        std::size_t a = mem.alloc(256, "a");
        mem.annotate(a, 256, DataType::Int32);
        for (std::size_t i = 0; i < 256; ++i)
            mem.initInt(a + i, static_cast<std::int32_t>(i * 1000));
        std::vector<Word> out;
        for (std::size_t i = 0; i < 256; ++i)
            out.push_back(mem.load(static_cast<unsigned>(i % 4), a + i));
        return out;
    };
    EXPECT_EQ(run(), run());
}

TEST(Cache, L2SliceFiltersMemoryAccesses)
{
    CacheConfig cfg = small_cache();
    cfg.l2_bytes = 4096; // 4 sets x 2 ways at 64 B lines
    cfg.l2_assoc = 2;
    ApproxCacheSystem mem(cfg, nullptr);
    std::size_t a = mem.alloc(64, "a");

    mem.load(0, a);            // L1 miss, L2 miss
    EXPECT_EQ(mem.l2Misses(), 1u);
    EXPECT_EQ(mem.l2Hits(), 0u);
    mem.load(1, a);            // other core's L1 miss, L2 hit
    EXPECT_EQ(mem.l2Hits(), 1u);
    Cycle after_two = mem.executionCycles();

    // The L2 hit must be cheaper than the L2 miss by l2_miss_cycles:
    // core 1's time should trail core 0's.
    ApproxCacheSystem solo(cfg, nullptr);
    std::size_t b = solo.alloc(64, "b");
    solo.load(0, b);
    EXPECT_EQ(after_two, solo.executionCycles())
        << "slower core dominates; L2 hit path is strictly cheaper";
}

TEST(Cache, L2CapacityEviction)
{
    CacheConfig cfg = small_cache();
    cfg.l2_bytes = 2048; // 16 lines in 2-way sets
    cfg.l2_assoc = 2;
    ApproxCacheSystem mem(cfg, nullptr);
    // 3 lines mapping to the same L2 set (16 sets): stride 16 sets.
    std::size_t a = mem.alloc(16 * 16 * 16 * 4, "a");
    unsigned sets = 2048 / (64 * 2);
    for (int i = 0; i < 3; ++i)
        mem.load(0, a + static_cast<std::size_t>(i) * sets * 16);
    EXPECT_EQ(mem.l2Misses(), 3u);
    // Re-touch the first line from another core: evicted from L2.
    mem.load(1, a);
    EXPECT_EQ(mem.l2Misses(), 4u);
}

TEST(Cache, NonPowerOfTwoGeometryIsRejected)
{
    // The model addresses lines and sets with shifts and masks; any
    // other geometry must fail loudly, naming the field and its value.
    CacheConfig l1;
    l1.l1_bytes = 3 * 64 * 2 * 64; // 192 sets
    EXPECT_DEATH({ ApproxCacheSystem mem(l1, nullptr); },
                 "l1_bytes 24576 gives 192 L1 sets, not a power of two");
    CacheConfig line;
    line.line_bytes = 48; // 12 words
    EXPECT_DEATH({ ApproxCacheSystem mem(line, nullptr); },
                 "line_bytes 48 holds 12 words, not a power of two");
    CacheConfig l2;
    l2.l2_bytes = 3 * 64 * 8; // 3 sets of 8 ways
    EXPECT_DEATH({ ApproxCacheSystem mem(l2, nullptr); },
                 "l2_bytes 1536 gives 3 L2 sets, not a power of two");
}

TEST(Doppelganger, DedupsSimilarBlocks)
{
    DoppelgangerConfig dcfg;
    dcfg.threshold_pct = 10.0;
    DoppelgangerTable table(dcfg);

    DataBlock a = DataBlock::fromFloats(
        std::vector<float>(16, 1000.0f), true);
    DataBlock b = DataBlock::fromFloats(
        std::vector<float>(16, 1000.5f), true); // within 10%
    DataBlock c = DataBlock::fromFloats(
        std::vector<float>(16, 1500.0f), true); // far away

    DataBlock ra = table.canonicalize(a);
    EXPECT_TRUE(ra.sameBits(a)) << "first block becomes the canonical";
    DataBlock rb = table.canonicalize(b);
    EXPECT_TRUE(rb.sameBits(a)) << "similar block maps to the canonical";
    EXPECT_EQ(table.dedupHits(), 1u);
    DataBlock rc = table.canonicalize(c);
    EXPECT_TRUE(rc.sameBits(c)) << "distant block stays itself";
}

TEST(Doppelganger, RespectsThresholdOnSubstitution)
{
    DoppelgangerConfig dcfg;
    dcfg.threshold_pct = 10.0;
    DoppelgangerTable table(dcfg);
    Rng rng(141);
    const double bound = 10.0 / 90.0 + 1e-9;
    std::vector<DataBlock> blocks;
    for (int i = 0; i < 400; ++i) {
        std::vector<float> vals(16);
        float base = static_cast<float>(rng.uniform(100, 200));
        for (auto &v : vals)
            v = base * static_cast<float>(1.0 + rng.uniform(-0.02, 0.02));
        blocks.push_back(DataBlock::fromFloats(vals, true));
    }
    for (const auto &b : blocks) {
        DataBlock out = table.canonicalize(b);
        for (std::size_t i = 0; i < b.size(); ++i) {
            ASSERT_LE(std::fabs(out.floatAt(i) - b.floatAt(i)),
                      std::fabs(b.floatAt(i)) * bound);
        }
    }
    EXPECT_GT(table.dedupHits(), 0u);
}

TEST(Doppelganger, NonApproximablePassThrough)
{
    DoppelgangerTable table(DoppelgangerConfig{});
    DataBlock raw(std::vector<Word>(16, 0xABCD), DataType::Raw, false);
    EXPECT_TRUE(table.canonicalize(raw).sameBits(raw));
    EXPECT_EQ(table.lookups(), 0u);
}

TEST(Doppelganger, SynergyWithNocApproximation)
{
    // Dedup at the home makes the value stream more repetitive, which
    // the dictionary codec then compresses harder — the paper's
    // synergy argument, end to end through the cache model.
    auto run = [](bool dedup) {
        CacheConfig cfg = small_cache();
        CodecConfig cc;
        cc.n_nodes = cfg.n_nodes;
        auto codec = CodecFactory::create(Scheme::DiVaxx, cc);
        ApproxCacheSystem mem(cfg, codec.get());
        if (dedup)
            mem.enableDoppelganger(DoppelgangerConfig{});
        std::size_t a = mem.alloc(16 * 64, "floats");
        mem.annotate(a, 16 * 64, DataType::Float32);
        Rng rng(143);
        // Many lines whose contents cluster around a few archetypes.
        for (std::size_t i = 0; i < 16 * 64; ++i) {
            float base = 100.0f * (1 + static_cast<int>(i / 16) % 3);
            mem.initFloat(a + i,
                          base * static_cast<float>(
                                     1.0 + rng.uniform(-0.01, 0.01)));
        }
        for (std::size_t i = 0; i < 16 * 64; ++i)
            mem.load(static_cast<unsigned>(i % 4), a + i);
        return codec->activity();
    };
    // With dedup the blocks repeat exactly, so dictionary encoders see
    // far more exact hits (observable as fewer raw words encoded --
    // proxied here by comparing words encoded equal, searches equal,
    // and is mostly a smoke check that the combination runs cleanly).
    auto without = run(false);
    auto with = run(true);
    EXPECT_EQ(without.words_encoded, with.words_encoded);
}
