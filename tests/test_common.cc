/** Tests for stats, table, CLI parsing, DataBlock and quality. */
#include <cmath>
#include <limits>
#include <sstream>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/data_block.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/quality.h"
#include "harness/experiment.h"

using namespace approxnoc;

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
                        2, const_cast<char **>(argv), "test"),
                    ::testing::ExitedWithCode(1),
                    "fatal: flag --jobs expects a non-negative integer, "
                    "got '" + v + "'")
            << "--jobs=" << v;
    }
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
                        2, const_cast<char **>(argv), "test"),
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
                // A negative value wrapped into an unsigned count lands
                // above LONG_MAX.
                const bool in = args.getCount("x", 0) <=
                                static_cast<unsigned long>(
                                    std::numeric_limits<long>::max());
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
