/** Tests for stats, table, CLI parsing, DataBlock and quality. */
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/chunked_pool.h"
#include "common/cli.h"
#include "common/data_block.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/quality.h"
#include "harness/experiment.h"

using namespace approxnoc;

/** A run that does not fit in what is left of a chunk starts the next
 *  one, and values never move once stored. */
TEST(ChunkedPool, RunsNeverStraddleAChunk)
{
    using Pool = ChunkedPool<std::uint32_t>;
    constexpr std::size_t kRun = Pool::kPerChunk / 4;
    std::vector<std::uint32_t> run(kRun);
    std::iota(run.begin(), run.end(), 1u);
    Pool pool;
    const std::uint32_t one = 7;
    EXPECT_EQ(pool.append({&one, 1}), 0u);
    const std::uint32_t *first = &pool[0];
    // Four runs after the one value: the fourth does not fit in the
    // first chunk's last kRun - 1 positions.
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(pool.append(run), 1 + i * kRun);
    EXPECT_EQ(pool.append(run), Pool::kPerChunk) << "kRun - 1 skipped";
    EXPECT_EQ(pool.size(), Pool::kPerChunk + kRun);
    EXPECT_EQ(pool.append({}), pool.size());
    EXPECT_TRUE(pool.run(pool.size(), 0).empty());
    for (std::size_t at : {std::size_t{1}, 1 + 2 * kRun, Pool::kPerChunk}) {
        const auto r = pool.run(at, kRun);
        EXPECT_TRUE(std::equal(r.begin(), r.end(), run.begin(), run.end()))
            << "run at " << at;
    }
    EXPECT_EQ(&pool[0], first);
    EXPECT_EQ(pool[0], one);

    Pool values;
    const std::uint32_t n = Pool::kPerChunk + 10;
    for (std::uint32_t v = 0; v < n; ++v)
        values.push_back(v);
    const Pool moved = std::move(values);
    std::uint32_t want = 0;
    for (std::uint32_t v : moved)
        ASSERT_EQ(v, want++);
    EXPECT_EQ(want, n);
    EXPECT_EQ(moved.back(), n - 1);
}

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, PercentileAndOverflow)
{
    Histogram h(1.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i % 10));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.mean(), 4.5, 1e-12);
    EXPECT_LE(h.percentile(0.5), 6.0);
    h.add(1e9); // overflow bucket
    EXPECT_EQ(h.count(), 101u);
}

TEST(Histogram, UnderflowIsCountedNotLumped)
{
    Histogram h(1.0, 4);
    h.add(-5.0);
    h.add(-0.1);
    h.add(0.5);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u); // only the 0.5 sample lands in bucket 0
}

TEST(Histogram, PercentileEdges)
{
    Histogram h(1.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5); // one sample per bucket
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.1), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);

    Histogram empty(1.0, 10);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(Histogram, PercentileAllOverflow)
{
    Histogram h(1.0, 4);
    for (int i = 0; i < 3; ++i)
        h.add(100.0);
    // Everything sits in the overflow bucket; every quantile resolves
    // to its upper edge, (n_buckets + 1) * width.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);
}

TEST(Histogram, PercentileAllUnderflow)
{
    Histogram h(1.0, 4);
    h.add(-1.0);
    h.add(-2.0);
    EXPECT_EQ(h.underflow(), 2u);
    // Underflow ranks below every bucket: all quantiles hit the floor.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), -1.5); // sum still tracks real values
}

TEST(Histogram, PercentileSurvivesMerge)
{
    Histogram a(1.0, 10), b(1.0, 10), all(1.0, 10);
    for (int i = 0; i < 10; ++i) {
        ((i % 2) ? a : b).add(i + 0.5);
        all.add(i + 0.5);
    }
    a.add(-3.0);
    all.add(-3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.underflow(), all.underflow());
    for (double q : {0.0, 0.25, 0.5, 0.9, 1.0})
        EXPECT_DOUBLE_EQ(a.percentile(q), all.percentile(q)) << "q=" << q;
}

TEST(CliArgs, ParsesForms)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta=4.5",
                          "--flag", "pos1"};
    CliArgs args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_DOUBLE_EQ(args.getDouble("beta", 0.0), 4.5);
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_FALSE(args.getBool("missing", false));
    EXPECT_EQ(args.getString("missing", "d"), "d");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(CliArgs, NumbersMustParseWhole)
{
    const char *argv[] = {"prog", "--n=2x", "--x=0.5s", "--e="};
    CliArgs args(4, const_cast<char **>(argv));
    EXPECT_EXIT(args.getInt("n", 0), ::testing::ExitedWithCode(1),
                "flag --n expects an integer, got '2x'");
    EXPECT_EXIT(args.getDouble("x", 0.0), ::testing::ExitedWithCode(1),
                "flag --x expects a number, got '0.5s'");
    EXPECT_EXIT(args.getDouble("e", 0.0), ::testing::ExitedWithCode(1),
                "flag --e expects a number, got ''");
}

/** A bad count flag exits 1 naming the flag and the value: -1 must not
 *  wrap into a huge unsigned count, nor 2x read as 2. */
TEST(CliArgs, CountFlagsRejectNegativeAndMalformedValues)
{
    for (const std::string v : {"-1", "2x", ""}) {
        const std::string arg = "--jobs=" + v;
        const char *argv[] = {"prog", arg.c_str()};
        EXPECT_EXIT(harness::ExperimentSpec::Builder().fromCli(
                        2, const_cast<char **>(argv), "test", {"jobs"}),
                    ::testing::ExitedWithCode(1),
                    "fatal: flag --jobs expects a non-negative integer, "
                    "got '" + v + "'")
            << "--jobs=" << v;
    }
    // 2^32 does not wrap into --jobs=0 (hardware concurrency).
    const char *argv[] = {"prog", "--jobs=4294967296"};
    EXPECT_EXIT(harness::ExperimentSpec::Builder().fromCli(
                    2, const_cast<char **>(argv), "test", {"jobs"}),
                ::testing::ExitedWithCode(1),
                "fatal: flag --jobs expects a non-negative integer no "
                "larger than 4294967295, got '4294967296'");
}

/** Counts parse as unsigned 64-bit numbers in getInt's bases: all of
 *  [2^63, 2^64) is a count, a minus sign never is, and 2^64 is too
 *  large rather than malformed. */
TEST(CliArgs, CountFlagsSpanSixtyFourBits)
{
    const char *argv[] = {"prog", "--a=18446744073709551615",
                          "--b=0xffffffffffffffff", "--c=9223372036854775808",
                          "--d=-0", "--e= -1", "--f=18446744073709551616"};
    const CliArgs args(7, const_cast<char **>(argv));
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(args.getCount<std::uint64_t>("a", 0), kMax);
    EXPECT_EQ(args.getCount<std::uint64_t>("b", 0), kMax);
    EXPECT_EQ(args.getCount<std::uint64_t>("c", 0), std::uint64_t{1} << 63);
    EXPECT_EXIT(args.getCount<std::uint64_t>("d", 0),
                ::testing::ExitedWithCode(1),
                "fatal: flag --d expects a non-negative integer, got '-0'");
    EXPECT_EXIT(args.getCount<std::uint64_t>("e", 0),
                ::testing::ExitedWithCode(1),
                "fatal: flag --e expects a non-negative integer, got ' -1'");
    EXPECT_EXIT(args.getCount<std::uint64_t>("f", 0),
                ::testing::ExitedWithCode(1),
                "fatal: flag --f expects a non-negative integer no larger "
                "than 18446744073709551615, got '18446744073709551616'");
    EXPECT_EXIT(args.getCount<unsigned>("a", 0, 1, 32),
                ::testing::ExitedWithCode(1),
                "fatal: flag --a expects an integer in \\[1, 32\\]");
}

/** A count flag with a range exits 1 naming the flag, the range and
 *  the value for anything outside it, malformed or negative included. */
TEST(CliArgs, RangedCountFlagsNameTheirRange)
{
    for (const std::string v : {"0", "33", "-1", "2x", ""}) {
        const std::string arg = "--vcs=" + v;
        const char *argv[] = {"prog", arg.c_str()};
        const CliArgs args(2, const_cast<char **>(argv));
        EXPECT_EXIT(args.getCount<unsigned>("vcs", 4, 1, 32),
                    ::testing::ExitedWithCode(1),
                    "fatal: flag --vcs expects an integer in \\[1, 32\\], "
                    "got '" + v + "'")
            << "--vcs=" << v;
    }
    const char *argv[] = {"prog", "--vcs=32"};
    const CliArgs args(2, const_cast<char **>(argv));
    EXPECT_EQ(args.getCount<unsigned>("vcs", 4, 1, 32), 32u);
    EXPECT_EQ(args.getCount<unsigned>("rows", 4, 1, 32), 4u); // absent
}

/** A valued flag given bare (no '=') exits 1 naming it, instead of
 *  reading as the string "true"; a boolean flag is still bare. */
TEST(CliArgs, BareValuedFlagIsFatal)
{
    const char *argv[] = {"prog", "--out", "--on"};
    CliArgs args(3, const_cast<char **>(argv));
    const char *message =
        "fatal: flag --out needs a value \\(--out=\\.\\.\\.\\)";
    EXPECT_EXIT(args.getString("out", "d"), ::testing::ExitedWithCode(1),
                message);
    EXPECT_EXIT(args.getInt("out", 0), ::testing::ExitedWithCode(1), message);
    EXPECT_EXIT(args.getDouble("out", 0.0), ::testing::ExitedWithCode(1),
                message);
    EXPECT_EXIT(args.getCount("out", 0), ::testing::ExitedWithCode(1),
                message);
    EXPECT_TRUE(args.has("out"));
    EXPECT_TRUE(args.getBool("on", false));
}

/** A boolean flag reads true|1|yes|on and false|0|no|off; any other
 *  word exits 1 naming the flag and the accepted words, instead of
 *  reading as false (--profile=ture used to switch profiling off). */
TEST(CliArgs, BooleanFlagsRejectUnknownWords)
{
    for (const std::string v : {"true", "1", "yes", "on"}) {
        const std::string arg = "--profile=" + v;
        const char *argv[] = {"prog", arg.c_str()};
        EXPECT_TRUE(CliArgs(2, const_cast<char **>(argv))
                        .getBool("profile", false))
            << v;
    }
    for (const std::string v : {"false", "0", "no", "off"}) {
        const std::string arg = "--profile=" + v;
        const char *argv[] = {"prog", arg.c_str()};
        EXPECT_FALSE(CliArgs(2, const_cast<char **>(argv))
                         .getBool("profile", true))
            << v;
    }
    for (const std::string v : {"ture", "banana", "", "TRUE", "2"}) {
        const std::string arg = "--quiet=" + v;
        const char *argv[] = {"prog", arg.c_str()};
        const CliArgs args(2, const_cast<char **>(argv));
        EXPECT_EXIT(args.getBool("quiet", false),
                    ::testing::ExitedWithCode(1),
                    "fatal: flag --quiet expects true, 1, yes, on, false, "
                    "0, no or off, got '" + v + "'")
            << v;
    }
}

/** expect() exits 1 on the first flag outside its list and accepts a
 *  command line that uses only listed flags. */
TEST(CliArgs, ExpectRejectsUnknownFlags)
{
    const char *argv[] = {"prog", "--cycles=100", "--quiet", "pos"};
    CliArgs args(4, const_cast<char **>(argv));
    args.expect({"cycles", "quiet", "seed"});
    EXPECT_EXIT(args.expect({"cycle", "quiet"}), ::testing::ExitedWithCode(1),
                "fatal: unknown flag --cycles");
    const char *typo[] = {"prog", "--benchmark=blackscholes"};
    EXPECT_EXIT(harness::ExperimentSpec::Builder().fromCli(
                    2, const_cast<char **>(typo), "test", {"benchmarks"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown flag --benchmark");
    // A harness flag the binary does not name is unknown too.
    const char *unread[] = {"prog", "--jobs=2"};
    EXPECT_EXIT(harness::ExperimentSpec::Builder().fromCli(
                    2, const_cast<char **>(unread), "test", {"benchmarks"}),
                ::testing::ExitedWithCode(1), "fatal: unknown flag --jobs");
}

/** A harness sets its defaults before fromCli(): each survives while
 *  its flag is absent and gives way when the flag is given. */
TEST(CliArgs, HarnessDefaultsGiveWayOnlyToGivenFlags)
{
    auto parse = [](std::vector<const char *> argv) {
        return harness::ExperimentSpec::Builder()
            .benchmarks({"blackscholes", "streamcluster"})
            .threshold(5.0)
            .maxRecords(300)
            .fromCli(static_cast<int>(argv.size()),
                     const_cast<char **>(argv.data()), "test",
                     harness::kReplayFlags)
            .build();
    };
    const harness::ExperimentSpec absent = parse({"prog", "--load=0.5"});
    EXPECT_EQ(absent.benchmarks(),
              (std::vector<std::string>{"blackscholes", "streamcluster"}));
    EXPECT_EQ(absent.thresholds(), std::vector<double>{5.0});
    EXPECT_EQ(absent.config().max_records, 300u);
    EXPECT_EQ(absent.loads(), std::vector<double>{0.5});

    const harness::ExperimentSpec given = parse(
        {"prog", "--benchmarks=all", "--threshold=20", "--max-records=900"});
    EXPECT_EQ(given.benchmarks().size(), 8u);
    EXPECT_EQ(given.thresholds(), std::vector<double>{20.0});
    EXPECT_EQ(given.config().max_records, 900u);
}

/** A real-valued flag outside its range, or not finite, exits 1 naming
 *  the flag and the range; the edges of a closed range are accepted. */
TEST(CliArgs, RealFlagsRejectOutOfRangeAndNonFiniteValues)
{
    const char *argv[] = {"prog",           "--pct=100.5", "--frac=-0.5",
                          "--pos=0",        "--any=nan",   "--big=inf",
                          "--lo=0",         "--hi=1",      "--huge=1e400"};
    CliArgs args(9, const_cast<char **>(argv));
    EXPECT_EXIT(args.getDouble("pct", 10.0, kPercentRange),
                ::testing::ExitedWithCode(1),
                "fatal: flag --pct expects a number in \\[0, 100\\], got "
                "'100.5'");
    EXPECT_EXIT(args.getDouble("frac", 0.5, kFractionRange),
                ::testing::ExitedWithCode(1),
                "fatal: flag --frac expects a number in \\[0, 1\\], got "
                "'-0.5'");
    EXPECT_EXIT(args.getDouble("pos", 1.0, kPositiveRange),
                ::testing::ExitedWithCode(1),
                "fatal: flag --pos expects a number in \\(0, inf\\), got "
                "'0'");
    EXPECT_EXIT(args.getDouble("any", 0.0), ::testing::ExitedWithCode(1),
                "fatal: flag --any expects a number, got 'nan'");
    EXPECT_EXIT(args.getDouble("big", 0.0), ::testing::ExitedWithCode(1),
                "fatal: flag --big expects a number, got 'inf'");
    EXPECT_EXIT(args.getDouble("huge", 0.0), ::testing::ExitedWithCode(1),
                "fatal: flag --huge expects a number, got '1e400'");
    EXPECT_DOUBLE_EQ(args.getDouble("lo", 0.5, kFractionRange), 0.0);
    EXPECT_DOUBLE_EQ(args.getDouble("hi", 0.5, kFractionRange), 1.0);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 0.04, kPositiveRange), 0.04);
}

/** The harness's real-valued flags each have a range: a bad value exits
 *  1 before any point runs, instead of panicking in a codec or silently
 *  falling back to the trace's natural load. */
TEST(CliArgs, HarnessRealFlagsAreRangeChecked)
{
    const struct {
        const char *arg;
        const char *message;
    } cases[] = {
        {"--threshold=200", "flag --threshold expects a number in "
                            "\\[0, 100\\], got '200'"},
        {"--threshold=nan", "flag --threshold expects a number in "
                            "\\[0, 100\\], got 'nan'"},
        {"--approx-ratio=2", "flag --approx-ratio expects a number in "
                             "\\[0, 1\\], got '2'"},
        {"--load=0", "flag --load expects a number in \\(0, inf\\), "
                     "got '0'"},
        {"--load=-1", "flag --load expects a number in \\(0, inf\\), "
                      "got '-1'"},
        {"--load=nan", "flag --load expects a number in \\(0, inf\\), "
                       "got 'nan'"},
    };
    for (const auto &c : cases) {
        const char *argv[] = {"prog", c.arg};
        EXPECT_EXIT(harness::ExperimentSpec::Builder().fromCli(
                        2, const_cast<char **>(argv), "test",
                        harness::kReplayFlags),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: ") + c.message)
            << c.arg;
    }
}

/** Seeded mutation fuzz over the numeric flag getters: every value
 *  either comes back inside the getter's range or exits 1 with a
 *  fatal: line naming the flag; never a panic, an abort, an uncaught
 *  exception or a silently wrapped value. */
TEST(CliFuzz, NumericFlagsReturnInRangeOrFail)
{
    std::vector<std::string> values = {
        "0", "5", "-3", "0.5", "100", "1e3", "0x1f", "017", "+7", ".5",
        "5.", "1e-400", "1e400", "-0", "0x", " 5", "5 ", "nan", "inf",
        "-inf", "", "99999999999999999999", "-99999999999999999999"};
    Rng rng(20170624);
    const std::size_t n_seeds = values.size();
    for (int k = 0; k < 24; ++k) {
        std::string v = values[rng.next(n_seeds)];
        const char c = static_cast<char>(1 + rng.next(255)); // argv has no NUL
        switch (rng.next(4)) {
        case 0: // replace a byte
            if (!v.empty())
                v[rng.next(v.size())] = c;
            break;
        case 1: // insert a byte
            v.insert(v.begin() + static_cast<long>(rng.next(v.size() + 1)),
                     c);
            break;
        case 2: // delete a byte
            if (!v.empty())
                v.erase(rng.next(v.size()), 1);
            break;
        default: // truncate
            v.resize(rng.next(v.size() + 1));
        }
        values.push_back(v);
    }

    const auto ok_or_fatal = [](int status) {
        return WIFEXITED(status) &&
               (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
    };
    const struct {
        const char *name;
        RealRange range;
    } ranges[] = {{"any", {}},
                  {"percent", kPercentRange},
                  {"fraction", kFractionRange},
                  {"positive", kPositiveRange}};
    for (const std::string &v : values) {
        const std::string arg = "--x=" + v;
        const char *argv[] = {"prog", arg.c_str()};
        CliArgs args(2, const_cast<char **>(argv));
        // The child exits 0 after an in-range value and 2 after an
        // out-of-range one, which the predicate rejects.
        EXPECT_EXIT(
            {
                args.getInt("x", 0);
                std::fputs("in range\n", stderr);
                std::exit(0);
            },
            ok_or_fatal, "in range|fatal: flag --x ")
            << "getInt '" << v << "'";
        EXPECT_EXIT(
            {
                // Counts span all 64 bits, so a wrapped negative value
                // (-1 as 2^64 - 1) is told by its sign, not its size:
                // no count may come from a value with a minus in it.
                args.getCount("x", 0);
                const bool in = v.find('-') == std::string::npos;
                std::fputs(in ? "in range\n" : "wrapped\n", stderr);
                std::exit(in ? 0 : 2);
            },
            ok_or_fatal, "in range|fatal: flag --x ")
            << "getCount '" << v << "'";
        for (const auto &r : ranges) {
            EXPECT_EXIT(
                {
                    double d = args.getDouble("x", 0.5, r.range);
                    const bool in = std::isfinite(d) &&
                                    (r.range.lo_open ? d > r.range.lo
                                                     : d >= r.range.lo) &&
                                    d <= r.range.hi;
                    std::fputs(in ? "in range\n" : "out of range\n", stderr);
                    std::exit(in ? 0 : 2);
                },
                ok_or_fatal, "in range|fatal: flag --x ")
                << "getDouble(" << r.name << ") '" << v << "'";
        }
    }
}

TEST(Table, PrintsAlignedAndCsv)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 2);
    t.row().cell("b").cell(42L);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(DataBlock, FloatRoundTrip)
{
    DataBlock b = DataBlock::fromFloats({1.5f, -2.25f, 0.0f});
    EXPECT_EQ(b.type(), DataType::Float32);
    EXPECT_FLOAT_EQ(b.floatAt(0), 1.5f);
    EXPECT_FLOAT_EQ(b.floatAt(1), -2.25f);
    b.setFloat(2, 7.0f);
    EXPECT_FLOAT_EQ(b.floatAt(2), 7.0f);
}

// The error ledger's per-block figure (QualityTracker::record's
// return): the mean |relative error| over the block's words.
TEST(DataBlock, RelativeError)
{
    DataBlock p = DataBlock::fromInts({100, 200, 0, 50});
    DataBlock a = DataBlock::fromInts({110, 200, 0, 50});
    QualityTracker ledger;
    // One word off by 10%: mean error = 0.10 / 4.
    EXPECT_NEAR(ledger.record(p, EncodedBlock{}, a), 0.025, 1e-12);
    EXPECT_DOUBLE_EQ(ledger.record(p, EncodedBlock{}, p), 0.0);
}

TEST(DataBlock, RelativeErrorZeroPrecise)
{
    DataBlock p = DataBlock::fromInts({0, 0});
    DataBlock a = DataBlock::fromInts({5, 0});
    EXPECT_NEAR(QualityTracker().record(p, EncodedBlock{}, a), 0.5, 1e-12);
}

TEST(Quality, TracksFractionsAndRatio)
{
    QualityTracker q;
    DataBlock precise = DataBlock::fromInts({10, 20, 30, 40});
    EncodedBlock enc;
    EncodedWord w1;
    w1.bits = 7;
    w1.decoded = 10;
    enc.append(w1); // exact compressed
    EncodedWord w2;
    w2.bits = 7;
    w2.decoded = 21;
    w2.approx_count = 1;
    enc.append(w2);
    EncodedWord w3;
    w3.bits = 35;
    w3.uncompressed = true;
    w3.decoded = 30;
    enc.append(w3);
    EncodedWord w4;
    w4.bits = 7;
    w4.decoded = 40;
    enc.append(w4);
    enc.setMeta(DataType::Int32, true);

    DataBlock delivered = DataBlock::fromInts({10, 21, 30, 40});
    q.record(precise, enc, delivered);

    EXPECT_EQ(q.blocks(), 1u);
    EXPECT_DOUBLE_EQ(q.exactEncodedFraction(), 0.5);
    EXPECT_DOUBLE_EQ(q.approxEncodedFraction(), 0.25);
    EXPECT_DOUBLE_EQ(q.encodedFraction(), 0.75);
    EXPECT_NEAR(q.meanRelativeError(), 0.05 / 4.0, 1e-12);
    EXPECT_NEAR(q.compressionRatio(), 128.0 / 56.0, 1e-12);
    EXPECT_GT(q.dataQuality(), 0.98);
}

// Rng is MT19937-64 bit for bit: std::mt19937_64 and the std
// distributions it drives are the oracle.

TEST(Rng, EngineStreamEqualsStdMt19937_64)
{
    for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                               std::uint64_t{42}, std::uint64_t{5489},
                               std::uint64_t{0xA9C0FFEE},
                               ~std::uint64_t{0}}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 12 * 312; ++i) // twelve twists
            ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
    Mt19937_64 ours;
    std::mt19937_64 ref;
    EXPECT_EQ(ours(), ref()); // the default seed, 5489
    ours.seed(7);
    ref.seed(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(ours(), ref()) << "reseeded, draw " << i;
}

TEST(Rng, DrawsEqualStdDistributionsOverStdMt19937_64)
{
    for (std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{0xA9C0FFEE}}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        auto ref_uniform = [&](double lo, double hi) {
            return std::uniform_real_distribution<double>(lo, hi)(ref);
        };
        // Interleaved, so each draw must also use as many engine
        // outputs as its std counterpart.
        for (int i = 0; i < 4000; ++i) {
            ASSERT_EQ(rng.uniform(), ref_uniform(0.0, 1.0)) << i;
            ASSERT_EQ(rng.uniform(-5.0, 100.0), ref_uniform(-5.0, 100.0))
                << i;
            ASSERT_EQ(rng.uniform(-1e6, 1e6), ref_uniform(-1e6, 1e6)) << i;
            ASSERT_EQ(rng.chance(0.3), ref_uniform(0.0, 1.0) < 0.3) << i;
            const std::uint64_t bound = 1 + static_cast<std::uint64_t>(i) * 7919;
            ASSERT_EQ(rng.next(bound),
                      std::uniform_int_distribution<std::uint64_t>(
                          0, bound - 1)(ref))
                << i;
            ASSERT_EQ(rng.next(~std::uint64_t{0}),
                      std::uniform_int_distribution<std::uint64_t>(
                          0, ~std::uint64_t{0} - 1)(ref))
                << i;
            ASSERT_EQ(rng.range(-50000, 50000),
                      std::uniform_int_distribution<std::int64_t>(
                          -50000, 50000)(ref))
                << i;
            ASSERT_EQ(rng.gaussian(2.0, 0.5),
                      std::normal_distribution<double>(2.0, 0.5)(ref))
                << i;
            ASSERT_EQ(rng.bits(), ref()) << i;
        }
    }
}

namespace {

/** A generator that returns one fixed value: feeds chosen inputs to
 *  std::generate_canonical. */
struct FixedUrbg {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type value = 0;
    result_type operator()() { return value; }
};

} // namespace

TEST(Rng, CanonicalConversionMatchesGenerateCanonicalAtBoundaries)
{
    constexpr std::uint64_t kTop = ~std::uint64_t{0};
    const std::uint64_t inputs[] = {
        0,
        1,
        0xFFFFFFFFull,
        0x100000000ull,
        std::uint64_t{1} << 53,
        (std::uint64_t{1} << 53) + 1, // tie: rounds down to even
        (std::uint64_t{1} << 53) + 3, // tie: rounds up to even
        std::uint64_t{1} << 63,
        (std::uint64_t{1} << 63) + (1u << 10),     // tie, down to even
        (std::uint64_t{1} << 63) + (3u << 10),     // tie, up to even
        (std::uint64_t{1} << 63) + (1u << 10) + 1, // just above a tie
        kTop - (std::uint64_t{1} << 11),           // largest double < 2^64
        kTop - (std::uint64_t{1} << 10),           // tie with 2^64: clamped
        kTop - (std::uint64_t{1} << 10) + 1,       // rounds to 2^64
        kTop - (std::uint64_t{1} << 10) - 1,       // rounds below 2^64
        kTop,                                      // rounds to 2^64
    };
    for (std::uint64_t x : inputs) {
        FixedUrbg g{x};
        const double ref = std::generate_canonical<double, 53>(g);
        EXPECT_EQ(canonical_double(x), ref) << std::hex << x;
        EXPECT_LT(canonical_double(x), 1.0) << std::hex << x;
    }
    Mt19937_64 e(11);
    for (int i = 0; i < 100000; ++i) {
        FixedUrbg g{e()};
        ASSERT_EQ(canonical_double(g.value),
                  (std::generate_canonical<double, 53>(g)))
            << std::hex << g.value;
    }
}
