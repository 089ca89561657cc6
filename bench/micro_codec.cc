/**
 * @file
 * The codec throughput harness: a fixed, seeded encode workload per
 * scheme (64-entry PMTs, trained dictionaries), timed in reps that each
 * run whole passes over the workload for at least kMinRepSeconds, and
 * written as machine-readable JSON with the median and the median
 * absolute deviation of the reps. scripts/bench_compare.py diffs two
 * such files; CI runs it against the checked-in seed baseline
 * (bench/baselines/). See docs/perf.md.
 *
 * Usage: micro_codec --bench-out=FILE [--bench-reps=N]
 *
 * Deterministic by construction: seeded workload, fixed scheme order,
 * fixed training schedule; only the wall-clock measurements vary run
 * to run.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/codec_factory.h"

using namespace approxnoc;

namespace {

constexpr std::size_t kBlocks = 2048;
constexpr std::size_t kWordsPerBlock = 16;
/** A rep runs whole workload passes until this much time has passed:
 *  one pass takes well under a millisecond, too short to time alone. */
constexpr double kMinRepSeconds = 0.1;
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
    double words_per_sec = 0; ///< median of the reps
    double mad_words_per_sec = 0; ///< median absolute deviation
    double ns_per_word = 0;
    std::vector<double> rep_words_per_sec;
    std::uint64_t sink = 0; ///< keeps the encode loop observable
};

/** The upper median of @p xs (the middle element for an odd count). */
double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

SchemeResult
run_scheme(Scheme scheme, const std::string &key,
           const std::vector<DataBlock> &blocks, unsigned long reps)
{
    CodecConfig cfg;
    cfg.n_nodes = 2;
    cfg.error_threshold_pct = kErrorThresholdPct;
    cfg.dict.pmt_entries = kPmtEntries;
    auto codec = CodecFactory::create(scheme, cfg);

    // Train the dictionary schemes: decode-side learning + the delayed
    // update channel need encode/decode round trips with advancing
    // time. Stateless schemes just warm the caches.
    Cycle now = 0;
    for (int pass = 0; pass < kWarmupPasses; ++pass) {
        for (const auto &b : blocks) {
            EncodedBlock enc = codec->encode(b, 0, 1, now);
            codec->decode(enc, 0, 1, now);
            now += 51; // > 50-cycle notify spacing: no rate-limit artifacts
        }
    }
    // Flush in-flight updates, then measure a steady-state encoder.
    now += 100000;

    SchemeResult res;
    res.key = key;
    const double words_per_pass =
        static_cast<double>(blocks.size() * kWordsPerBlock);
    for (unsigned long rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t passes = 0;
        double secs = 0;
        do {
            for (const auto &b : blocks)
                res.sink += codec->encode(b, 0, 1, now).bits();
            ++passes;
            secs = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        } while (secs < kMinRepSeconds);
        res.rep_words_per_sec.push_back(static_cast<double>(passes) *
                                        words_per_pass / secs);
    }
    res.words_per_sec = median(res.rep_words_per_sec);
    std::vector<double> dev;
    for (double x : res.rep_words_per_sec)
        dev.push_back(std::abs(x - res.words_per_sec));
    res.mad_words_per_sec = median(std::move(dev));
    res.ns_per_word = 1e9 / res.words_per_sec;
    return res;
}

int
run(const std::string &path, unsigned long reps)
{
    const auto blocks = make_workload();
    const std::pair<Scheme, const char *> schemes[] = {
        {Scheme::Baseline, "baseline"}, {Scheme::DiComp, "di_comp"},
        {Scheme::DiVaxx, "di_vaxx"},    {Scheme::FpComp, "fp_comp"},
        {Scheme::FpVaxx, "fp_vaxx"},
    };

    std::vector<SchemeResult> results;
    for (const auto &[scheme, key] : schemes) {
        results.push_back(run_scheme(scheme, key, blocks, reps));
        const SchemeResult &r = results.back();
        std::fprintf(stderr,
                     "%-10s %12.0f words/sec (MAD %10.0f)  %8.2f ns/word\n",
                     key, r.words_per_sec, r.mad_words_per_sec,
                     r.ns_per_word);
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
                 "    \"min_rep_seconds\": %.3g,\n"
                 "    \"reps\": %lu,\n"
                 "    \"warmup_passes\": %d,\n"
                 "    \"pmt_entries\": %zu,\n"
                 "    \"error_threshold_pct\": %.1f\n"
                 "  },\n",
                 kBlocks, kWordsPerBlock, kMinRepSeconds, reps, kWarmupPasses,
                 kPmtEntries, kErrorThresholdPct);
    std::fprintf(f, "  \"results\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        std::fprintf(f,
                     "    \"%s\": {\n"
                     "      \"words_per_sec\": %.6g,\n"
                     "      \"mad_words_per_sec\": %.6g,\n"
                     "      \"ns_per_word\": %.6g,\n"
                     "      \"reps_words_per_sec\": [",
                     r.key.c_str(), r.words_per_sec, r.mad_words_per_sec,
                     r.ns_per_word);
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

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::string path = args.getString("bench-out", "");
    // A bare --bench-out, as in the space form --bench-out FILE, parses
    // as "true": refuse it rather than write a file of that name.
    if (path.empty() || path == "true" || !args.positional().empty())
        ANOC_FATAL("micro_codec needs --bench-out=FILE");
    const unsigned long reps = args.getCount("bench-reps", 5);
    if (reps == 0)
        ANOC_FATAL("flag --bench-reps expects a positive integer, got '",
                   args.getString("bench-reps", ""), "'");
    return run(path, reps);
}
