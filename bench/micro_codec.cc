/**
 * @file
 * google-benchmark microbenchmarks for the codec datapath primitives:
 * AVCL analysis, FPC matching/decoding, TCAM search and block-level
 * encode for each scheme.
 *
 * Invoked with --bench-out=FILE the binary instead runs the
 * perf-regression harness: a fixed, seeded encode workload per scheme
 * (64-entry PMTs, trained dictionaries), median-of-N timing with
 * warmup, written as machine-readable JSON. scripts/bench_compare.py
 * diffs two such files; CI runs it against the checked-in seed
 * baseline (bench/baselines/). See docs/perf.md.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "approx/avcl.h"
#include "common/bits.h"
#include "approx/di_vaxx.h"
#include "approx/fp_vaxx.h"
#include "approx/window_vaxx.h"
#include "compression/wire.h"
#include "common/rng.h"
#include "common/simd.h"
#include "compression/dictionary.h"
#include "tcam/match_kernel.h"
#include "compression/fpc.h"
#include "core/codec_factory.h"
#include "tcam/tcam.h"

// The same source builds against the pre-optimization tree (no
// encodeBlock) to produce baseline numbers for bench_compare.
#if defined(ANOC_BENCH_WORD_AT_A_TIME)
#define ANOC_BENCH_ENCODE(codec, block, now) (codec)->encode((block), 0, 1, (now))
#else
#define ANOC_BENCH_ENCODE(codec, block, now) \
    (codec)->encodeBlock((block), 0, 1, (now))
#endif

using namespace approxnoc;

namespace {

std::vector<Word>
random_words(std::size_t n, std::uint64_t seed, bool small_values)
{
    Rng rng(seed);
    std::vector<Word> ws(n);
    for (auto &w : ws) {
        w = static_cast<Word>(rng.bits());
        if (small_values)
            w = sign_extend32(w & 0xFFFF, 16);
    }
    return ws;
}

void
BM_AvclAnalyzeInt(benchmark::State &state)
{
    Avcl avcl{ErrorModel(10.0)};
    auto ws = random_words(4096, 1, false);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            avcl.analyze(ws[i++ & 4095], DataType::Int32));
    }
}
BENCHMARK(BM_AvclAnalyzeInt);

void
BM_AvclAnalyzeFloat(benchmark::State &state)
{
    Avcl avcl{ErrorModel(10.0)};
    auto ws = random_words(4096, 2, false);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            avcl.analyze(ws[i++ & 4095], DataType::Float32));
    }
}
BENCHMARK(BM_AvclAnalyzeFloat);

void
BM_FpcMatchExact(benchmark::State &state)
{
    auto ws = random_words(4096, 3, true);
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(fpc_match(ws[i++ & 4095], 0));
}
BENCHMARK(BM_FpcMatchExact);

void
BM_FpcMatchApprox(benchmark::State &state)
{
    auto ws = random_words(4096, 4, true);
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(fpc_match(ws[i++ & 4095], 8));
}
BENCHMARK(BM_FpcMatchApprox);

void
BM_TcamSearch(benchmark::State &state)
{
    Tcam tcam(static_cast<std::size_t>(state.range(0)));
    Rng rng(5);
    for (std::size_t e = 0; e < tcam.capacity(); ++e)
        tcam.insert(TernaryPattern{static_cast<Word>(rng.bits()),
                                   low_mask32(6)});
    auto ws = random_words(4096, 6, false);
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tcam.search(ws[i++ & 4095]));
}
BENCHMARK(BM_TcamSearch)->Arg(8)->Arg(32)->Arg(128);

void
BM_EncodeBlock(benchmark::State &state)
{
    // One 64 B block of value-local int data per iteration.
    Rng rng(7);
    std::vector<DataBlock> blocks;
    for (int i = 0; i < 256; ++i) {
        std::vector<Word> ws(16);
        for (auto &w : ws)
            w = rng.chance(0.7) ? 1000u + static_cast<Word>(rng.next(8))
                                : static_cast<Word>(rng.bits());
        blocks.emplace_back(ws, DataType::Int32, true);
    }

    DictionaryConfig dict;
    dict.n_nodes = 4;
    std::unique_ptr<CodecSystem> codec;
    switch (state.range(0)) {
      case 0: codec = std::make_unique<BaselineCodec>(); break;
      case 1: codec = std::make_unique<DiCompCodec>(dict); break;
      case 2:
        codec = std::make_unique<DiVaxxCodec>(dict, ErrorModel(10.0));
        break;
      case 3: codec = std::make_unique<FpcCodec>(); break;
      default:
        codec = std::make_unique<FpVaxxCodec>(ErrorModel(10.0));
        break;
    }
    Cycle t = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        EncodedBlock enc =
            codec->encode(blocks[i & 255], 0, 1, t);
        benchmark::DoNotOptimize(codec->decode(enc, 0, 1, t));
        ++i;
        t += 3;
    }
    state.SetLabel(to_string(static_cast<Scheme>(state.range(0))));
}
BENCHMARK(BM_EncodeBlock)->DenseRange(0, 4);

void
BM_WindowVaxxEncode(benchmark::State &state)
{
    WindowVaxxCodec codec{ErrorModel(10.0)};
    Rng rng(8);
    std::vector<DataBlock> blocks;
    for (int i = 0; i < 256; ++i) {
        std::vector<Word> ws(16);
        for (auto &w : ws)
            w = static_cast<Word>(rng.range(-100000, 100000));
        blocks.emplace_back(ws, DataType::Int32, true);
    }
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.encode(blocks[i++ & 255], 0, 1, 0));
}
BENCHMARK(BM_WindowVaxxEncode);

void
BM_WirePackFpc(benchmark::State &state)
{
    FpcCodec codec;
    Rng rng(9);
    std::vector<EncodedBlock> encs;
    for (int i = 0; i < 64; ++i) {
        std::vector<Word> ws(16);
        for (auto &w : ws)
            w = sign_extend32(static_cast<Word>(rng.bits()) & 0xFFF, 12);
        encs.push_back(codec.encode(DataBlock(ws, DataType::Int32, false),
                                    0, 1, 0));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        bool raw;
        benchmark::DoNotOptimize(fpc_wire::pack(encs[i++ & 63], raw));
    }
}
BENCHMARK(BM_WirePackFpc);

/**
 * The --bench-out perf-regression harness. Deterministic by
 * construction: seeded workload, fixed scheme order, fixed training
 * schedule; only the wall-clock measurements vary run to run.
 */
namespace bench_out {

constexpr std::size_t kBlocks = 2048;
constexpr std::size_t kWordsPerBlock = 16;
constexpr std::size_t kInnerIters = 4; ///< workload passes per timed rep
constexpr int kWarmupPasses = 2;
constexpr std::size_t kPmtEntries = 64;
constexpr std::size_t kHotValues = 96;
constexpr double kErrorThresholdPct = 10.0;

std::vector<DataBlock>
make_workload()
{
    Rng rng(0xB35Cu);
    std::vector<Word> hot(kHotValues);
    for (auto &h : hot) // large enough that a 10% threshold frees low bits
        h = (static_cast<Word>(rng.bits()) | 0x00400000u) & 0x7FFFFFFFu;

    std::vector<DataBlock> blocks;
    blocks.reserve(kBlocks);
    for (std::size_t b = 0; b < kBlocks; ++b) {
        std::vector<Word> ws(kWordsPerBlock);
        for (auto &w : ws) {
            double r = rng.uniform();
            if (r < 0.10)
                w = 0;
            else if (r < 0.65)
                w = hot[rng.next(kHotValues)];
            else if (r < 0.80)
                w = hot[rng.next(kHotValues)] ^
                    static_cast<Word>(rng.next(256));
            else
                w = static_cast<Word>(rng.bits());
        }
        blocks.emplace_back(std::move(ws), DataType::Int32, true);
    }
    return blocks;
}

struct SchemeResult {
    std::string key;
    double words_per_sec = 0;
    double ns_per_word = 0;
    std::vector<double> rep_words_per_sec;
    std::uint64_t sink = 0; ///< keeps the encode loop observable
};

SchemeResult
run_scheme(Scheme scheme, const std::string &key,
           const std::vector<DataBlock> &blocks, int reps)
{
    CodecConfig cfg;
    cfg.n_nodes = 2;
    cfg.error_threshold_pct = kErrorThresholdPct;
    cfg.dict.pmt_entries = kPmtEntries;
    cfg.dict.tracker_entries = 64;
    auto codec = CodecFactory::create(scheme, cfg);

    // Train the dictionary schemes: decode-side learning + the delayed
    // update channel need encode/decode round trips with advancing
    // time. Stateless schemes just warm the caches.
    Cycle now = 0;
    for (int pass = 0; pass < kWarmupPasses; ++pass) {
        for (const auto &b : blocks) {
            EncodedBlock enc = ANOC_BENCH_ENCODE(codec, b, now);
            codec->decode(enc, 0, 1, now);
            now += 51; // > notify_min_interval: no rate-limit artifacts
        }
    }
    // Flush in-flight updates, then measure a steady-state encoder.
    now += 100000;

    SchemeResult res;
    res.key = key;
    const double words =
        static_cast<double>(blocks.size() * kWordsPerBlock * kInnerIters);
    for (int rep = 0; rep < reps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t it = 0; it < kInnerIters; ++it)
            for (const auto &b : blocks)
                res.sink += ANOC_BENCH_ENCODE(codec, b, now).bits();
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        res.rep_words_per_sec.push_back(words / secs);
    }
    std::vector<double> sorted = res.rep_words_per_sec;
    std::sort(sorted.begin(), sorted.end());
    res.words_per_sec = sorted[sorted.size() / 2];
    res.ns_per_word = 1e9 / res.words_per_sec;
    return res;
}

int
run(const std::string &path, int reps)
{
    // Provenance: which match kernel produced these numbers. Scalar and
    // SIMD runs are bit-identical in output but not in words/sec, so
    // baselines record the dispatch they were captured under.
    const char *simd = simd::to_string(simd::active_simd_level());
    std::fprintf(stderr, "micro_codec: simd dispatch: %s\n", simd);
    const auto blocks = make_workload();
    const std::pair<Scheme, const char *> schemes[] = {
        {Scheme::Baseline, "baseline"}, {Scheme::DiComp, "di_comp"},
        {Scheme::DiVaxx, "di_vaxx"},    {Scheme::FpComp, "fp_comp"},
        {Scheme::FpVaxx, "fp_vaxx"},
    };

    std::vector<SchemeResult> results;
    for (const auto &[scheme, key] : schemes) {
        results.push_back(run_scheme(scheme, key, blocks, reps));
        std::fprintf(stderr, "%-10s %12.0f words/sec  %8.2f ns/word\n",
                     key, results.back().words_per_sec,
                     results.back().ns_per_word);
    }

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "micro_codec: cannot open %s for writing\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"approxnoc-micro-codec-bench-v1\",\n");
    std::fprintf(f,
                 "  \"config\": {\n"
                 "    \"blocks\": %zu,\n"
                 "    \"words_per_block\": %zu,\n"
                 "    \"inner_iters\": %zu,\n"
                 "    \"reps\": %d,\n"
                 "    \"warmup_passes\": %d,\n"
                 "    \"pmt_entries\": %zu,\n"
                 "    \"error_threshold_pct\": %.1f,\n"
                 "    \"simd\": \"%s\",\n"
#if defined(ANOC_BENCH_WORD_AT_A_TIME)
                 "    \"word_at_a_time\": true\n"
#else
                 "    \"word_at_a_time\": false\n"
#endif
                 "  },\n",
                 kBlocks, kWordsPerBlock, kInnerIters, reps, kWarmupPasses,
                 kPmtEntries, kErrorThresholdPct, simd);
    std::fprintf(f, "  \"results\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        std::fprintf(f,
                     "    \"%s\": {\n"
                     "      \"words_per_sec\": %.6g,\n"
                     "      \"ns_per_word\": %.6g,\n"
                     "      \"reps_words_per_sec\": [",
                     r.key.c_str(), r.words_per_sec, r.ns_per_word);
        for (std::size_t j = 0; j < r.rep_words_per_sec.size(); ++j)
            std::fprintf(f, "%s%.6g", j ? ", " : "", r.rep_words_per_sec[j]);
        std::fprintf(f, "],\n      \"enc_bits_sink\": %llu\n    }%s\n",
                     static_cast<unsigned long long>(r.sink),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "micro_codec: wrote %s\n", path.c_str());
    return 0;
}

} // namespace bench_out

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_path;
    int reps = 5;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--bench-out=", 0) == 0)
            bench_path = a.substr(12);
        else if (a == "--bench-out" && i + 1 < argc)
            bench_path = argv[++i];
        else if (a.rfind("--bench-reps=", 0) == 0)
            reps = std::max(1, std::atoi(a.c_str() + 13));
        else
            rest.push_back(argv[i]);
    }
    if (!bench_path.empty())
        return bench_out::run(bench_path, reps);

    int rest_argc = static_cast<int>(rest.size());
    benchmark::Initialize(&rest_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
