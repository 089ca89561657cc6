/**
 * Workload kernel tests: determinism, precise-vs-approximate output
 * error bounds, and kernel-specific sanity checks.
 */
#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <gtest/gtest.h>

#include "core/codec_factory.h"
#include "workloads/kernels.h"
#include "workloads/workload.h"

using namespace approxnoc;

namespace {

CacheConfig
paper_cache()
{
    // Sec. 5.4: 16 cores, 64 KB 2-way L1, 64 B lines.
    return CacheConfig{};
}

WorkloadResult
run_with(const std::string &name, Scheme scheme, double threshold)
{
    CacheConfig cfg = paper_cache();
    CodecConfig cc;
    cc.n_nodes = cfg.n_nodes;
    cc.error_threshold_pct = threshold;
    auto codec = CodecFactory::create(scheme, cc);
    ApproxCacheSystem mem(cfg, codec.get());
    auto wl = make_workload(name);
    return wl->run(mem);
}

/** Fold the @p bytes low bytes of @p v, little end first, into the
 * 64-bit FNV-1a hash @p h. */
void
fnv1a(std::uint64_t &h, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ull;
    }
}

/** FNV-1a over every record (t, src, dst, class, block), then every
 * block (size, type, approximable, words). The class byte is
 * PacketClass's value: 1 for data, 0 for control. */
std::uint64_t
trace_hash(const CommTrace &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const TraceRecord &r : t.records()) {
        fnv1a(h, r.t, 8);
        fnv1a(h, r.src, 4);
        fnv1a(h, r.dst, 4);
        fnv1a(h, r.isData() ? 1 : 0, 1);
        fnv1a(h, r.block, 4);
    }
    for (std::uint32_t i = 0; i < t.blockCount(); ++i) {
        const CommTrace::BlockView b = t.block(i);
        fnv1a(h, b.words.size(), 8);
        fnv1a(h, static_cast<std::uint64_t>(b.type), 1);
        fnv1a(h, b.approximable ? 1 : 0, 1);
        for (Word w : b.words)
            fnv1a(h, w, 4);
    }
    return h;
}

/** A kernel's trace and cache counters at seed 12345, default cache. */
struct GoldenTrace {
    const char *benchmark;
    std::size_t records;
    std::size_t blocks;
    std::uint64_t hash;
    std::uint64_t accesses, misses, writebacks, l2_hits, l2_misses;
    Cycle exec_cycles;
};

/**
 * Recorded from the per-line-vector cache model that preceded the flat
 * L1 arrays. Every table replays these traces, so a change to the
 * cache model or to CommTrace must reproduce them bit for bit: the
 * same ways, LRU ticks and victims, and the same records and blocks in
 * the same order.
 */
constexpr GoldenTrace kGoldenTraces[] = {
    {"blackscholes", 61440, 32768, 0xe094bfccbe8a3634ull, 28672, 28672,
     4096, 26880, 1792, 240128},
    {"bodytrack", 756, 378, 0xaf81fc389cb66fc7ull, 3528, 378, 0, 0, 378,
     5124},
    {"canneal", 345466, 206464, 0xe3e6abfa073e7a42ull, 2580472, 139002,
     67462, 138618, 384, 460730},
    {"fluidanimate", 21504, 13312, 0x42d67fa43dcba030ull, 1074864, 8192,
     5120, 8112, 80, 92126},
    {"streamcluster", 25648, 14880, 0x806dfd56d1533fb6ull, 565504, 10768,
     4112, 10188, 580, 177328},
    {"swaptions", 2128, 1072, 0x5b575522d0d2feebull, 16464, 1056, 16, 27,
     1029, 9807},
    {"x264", 5504, 2752, 0x59110a8c5746be19ull, 1168280, 2752, 0, 1600,
     1152, 111724},
    {"ssca2", 99105, 57618, 0x7466befc1bbb808full, 5215002, 41487, 16131,
     39930, 1557, 549045},
};

/**
 * Words each kernel's trace stores at seed 12345. A fill of a line
 * whose memory is unchanged since it was last recorded shares that
 * block's words, so the pool holds only new line contents: about a
 * third of the 5,267,904 words the 329,244 blocks read.
 */
constexpr std::pair<const char *, std::size_t> kPoolWords[] = {
    {"blackscholes", 94208}, {"bodytrack", 6048},
    {"canneal", 1085536},    {"fluidanimate", 83200},
    {"streamcluster", 75072}, {"swaptions", 16720},
    {"x264", 18432},         {"ssca2", 283008},
};

} // namespace

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadSuite, TraceMatchesParent)
{
    const auto golden =
        std::find_if(std::begin(kGoldenTraces), std::end(kGoldenTraces),
                     [](const GoldenTrace &g) {
                         return GetParam() == g.benchmark;
                     });
    ASSERT_NE(golden, std::end(kGoldenTraces)) << GetParam();
    const auto pool =
        std::find_if(std::begin(kPoolWords), std::end(kPoolWords),
                     [](const auto &p) { return GetParam() == p.first; });
    ASSERT_NE(pool, std::end(kPoolWords)) << GetParam();

    // TraceLibrary::prefetch's generation step.
    ApproxCacheSystem mem(CacheConfig{}, nullptr);
    CommTrace trace;
    mem.setTraceSink(&trace);
    make_workload(GetParam(), 1, 12345)->run(mem);

    EXPECT_EQ(trace.records().size(), golden->records);
    EXPECT_EQ(trace.blockCount(), golden->blocks);
    EXPECT_EQ(trace_hash(trace), golden->hash);
    EXPECT_EQ(mem.accesses(), golden->accesses);
    EXPECT_EQ(mem.misses(), golden->misses);
    EXPECT_EQ(mem.writebacks(), golden->writebacks);
    EXPECT_EQ(mem.l2Hits(), golden->l2_hits);
    EXPECT_EQ(mem.l2Misses(), golden->l2_misses);
    EXPECT_EQ(mem.executionCycles(), golden->exec_cycles);

    // Unchanged lines share their words: the pool size is pinned.
    std::size_t read = 0;
    for (std::uint32_t i = 0; i < trace.blockCount(); ++i)
        read += trace.block(i).words.size();
    EXPECT_EQ(trace.wordCount(), pool->second);
    EXPECT_LE(trace.wordCount(), read);
}

TEST_P(WorkloadSuite, PreciseRunIsDeterministic)
{
    auto a = run_with(GetParam(), Scheme::Baseline, 0.0);
    auto b = run_with(GetParam(), Scheme::Baseline, 0.0);
    ASSERT_EQ(a.output.size(), b.output.size());
    for (std::size_t i = 0; i < a.output.size(); ++i)
        ASSERT_EQ(a.output[i], b.output[i]) << GetParam() << " idx " << i;
    EXPECT_FALSE(a.output.empty());
    EXPECT_GT(a.exec_cycles, 0u);
    EXPECT_GT(a.miss_rate, 0.0);
}

TEST_P(WorkloadSuite, ExactCompressionPreservesOutput)
{
    auto precise = run_with(GetParam(), Scheme::Baseline, 0.0);
    auto fp = run_with(GetParam(), Scheme::FpComp, 0.0);
    auto wl = make_workload(GetParam());
    EXPECT_DOUBLE_EQ(wl->outputError(precise, fp), 0.0) << GetParam();
}

TEST_P(WorkloadSuite, ApproximationErrorIsBounded)
{
    auto precise = run_with(GetParam(), Scheme::Baseline, 0.0);
    auto wl = make_workload(GetParam());
    for (Scheme s : {Scheme::FpVaxx, Scheme::DiVaxx}) {
        auto approx = run_with(GetParam(), s, 10.0);
        double err = wl->outputError(precise, approx);
        EXPECT_GE(err, 0.0);
        // Generous ceiling: the paper reports <~10% for every benchmark
        // at 10% data error except streamcluster.
        double ceiling = GetParam() == "streamcluster" ? 0.60 : 0.25;
        EXPECT_LE(err, ceiling) << GetParam() << " under " << to_string(s);
    }
}

TEST_P(WorkloadSuite, CompressionSpeedsUpExecution)
{
    auto base = run_with(GetParam(), Scheme::Baseline, 0.0);
    auto fpvaxx = run_with(GetParam(), Scheme::FpVaxx, 10.0);
    // Smaller responses must not slow the run down by more than the
    // codec pipeline overhead (a few cycles per miss).
    EXPECT_LT(fpvaxx.exec_cycles,
              base.exec_cycles + base.exec_cycles / 10)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadSuite,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadFactory, KnowsAllNames)
{
    EXPECT_EQ(workload_names().size(), 8u);
    for (const auto &n : workload_names())
        EXPECT_EQ(make_workload(n)->name(), n);
}

TEST(MeanRelativeError, Basics)
{
    EXPECT_DOUBLE_EQ(mean_relative_output_error({1, 2}, {1, 2}), 0.0);
    EXPECT_NEAR(mean_relative_output_error({100, 100}, {110, 100}), 0.05,
                1e-12);
    EXPECT_DOUBLE_EQ(mean_relative_output_error({0}, {1}), 1.0);
}

TEST(Bodytrack, TracksTheBlob)
{
    auto r = run_with("bodytrack", Scheme::Baseline, 0.0);
    BodytrackWorkload wl;
    ASSERT_EQ(r.output.size(), 2u * wl.frames());
    // The tracker should follow the ground-truth sweep within a few
    // pixels (noise and window quantization allow small offsets).
    // Ground truth: x from 20 to 75, y from 30 to 65ish.
    EXPECT_NEAR(r.output[0], 20.0, 5.0);
    EXPECT_NEAR(r.output[2 * (wl.frames() - 1)], 75.0, 6.0);
    auto img = wl.renderOutput(r);
    EXPECT_EQ(img.size(), wl.imageWidth() * wl.imageHeight());
    unsigned lit = 0;
    for (auto p : img)
        lit += p > 50 ? 1 : 0;
    EXPECT_GT(lit, 100u);
}

TEST(X264, FindsTheTrueMotion)
{
    auto r = run_with("x264", Scheme::Baseline, 0.0);
    // The two bright squares moved by (3,2); their macroblocks should
    // report motion (-3,-2) (prev-frame offset). At least one block.
    bool found = false;
    for (std::size_t i = 0; i + 2 < r.output.size(); i += 3)
        found = found ||
                (r.output[i] == -3.0 && r.output[i + 1] == -2.0);
    EXPECT_TRUE(found);
}

TEST(Ssca2, CentralityIsPlausible)
{
    auto r = run_with("ssca2", Scheme::Baseline, 0.0);
    double sum = 0.0, mx = 0.0;
    for (double v : r.output) {
        EXPECT_GE(v, 0.0);
        sum += v;
        mx = std::max(mx, v);
    }
    EXPECT_GT(sum, 0.0);
    EXPECT_GT(mx, sum / static_cast<double>(r.output.size()) * 3)
        << "small-world graphs concentrate centrality";
}

TEST(Streamcluster, CustomErrorMetricHandlesLabelSwap)
{
    StreamclusterWorkload wl;
    WorkloadResult a, b;
    a.output.assign(1 + 64, 0.0);
    b.output.assign(1 + 64, 0.0);
    a.output[0] = b.output[0] = 10.0;
    // Two centers with swapped labels -> zero displacement error.
    for (std::size_t d = 0; d < 8; ++d) {
        a.output[1 + d] = 1.0;
        a.output[1 + 8 + d] = 2.0;
        b.output[1 + d] = 2.0;
        b.output[1 + 8 + d] = 1.0;
    }
    EXPECT_NEAR(wl.outputError(a, b), 0.0, 1e-9);
}

TEST(Blackscholes, PricesRespectNoArbitrageBounds)
{
    // Run precisely and validate the kernel's math: option prices are
    // non-negative and a call never exceeds the spot price.
    CacheConfig cfg = paper_cache();
    ApproxCacheSystem mem(cfg, nullptr);
    BlackscholesWorkload wl;
    WorkloadResult r = wl.run(mem);
    for (double price : r.output) {
        ASSERT_GE(price, 0.0);
        ASSERT_LE(price, 150.0) << "price above any spot/strike in range";
    }
}

TEST(Fluidanimate, ParticlesStayInTheBox)
{
    CacheConfig cfg = paper_cache();
    ApproxCacheSystem mem(cfg, nullptr);
    FluidanimateWorkload wl;
    WorkloadResult r = wl.run(mem);
    for (double coord : r.output) {
        ASSERT_GE(coord, -0.5);
        ASSERT_LE(coord, 10.5);
    }
}

TEST(Canneal, AnnealingImprovesWirelength)
{
    // The annealed cost must beat the expected random-placement cost
    // (~2/3 of grid span per net hop on a 256-wide grid).
    CacheConfig cfg = paper_cache();
    ApproxCacheSystem mem(cfg, nullptr);
    CannealWorkload wl;
    WorkloadResult r = wl.run(mem);
    double final_cost = r.output[0];
    double initial_cost = r.output[1];
    EXPECT_GT(final_cost, 0.0);
    EXPECT_LT(final_cost, initial_cost * 0.95)
        << "annealing must clearly beat the random placement";
}
