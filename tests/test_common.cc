/** Tests for stats, table, CLI parsing, DataBlock and quality. */
#include <sstream>
#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/data_block.h"
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

TEST(DataBlock, RelativeError)
{
    DataBlock p = DataBlock::fromInts({100, 200, 0, 50});
    DataBlock a = DataBlock::fromInts({110, 200, 0, 50});
    // One word off by 10%: mean error = 0.10 / 4.
    EXPECT_NEAR(block_relative_error(p, a), 0.025, 1e-12);
    EXPECT_DOUBLE_EQ(block_relative_error(p, p), 0.0);
}

TEST(DataBlock, RelativeErrorZeroPrecise)
{
    DataBlock p = DataBlock::fromInts({0, 0});
    DataBlock a = DataBlock::fromInts({5, 0});
    EXPECT_NEAR(block_relative_error(p, a), 0.5, 1e-12);
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
    w2.approximated = true;
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
