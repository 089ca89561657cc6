/**
 * Error-path coverage: user errors must die with a message (gem5
 * fatal/panic discipline), malformed inputs must be rejected, and the
 * small utility types must behave at their edges.
 */
#include <fstream>
#include <gtest/gtest.h>

#include "common/bitstream.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/codec_factory.h"
#include "traffic/patterns.h"
#include "traffic/trace.h"

using namespace approxnoc;

TEST(ErrorPaths, UnknownSchemeNameDies)
{
    EXPECT_DEATH(scheme_from_string("zstd"), "unknown scheme");
}

TEST(ErrorPaths, SchemeNamesAreFlexible)
{
    EXPECT_EQ(scheme_from_string("di-vaxx"), Scheme::DiVaxx);
    EXPECT_EQ(scheme_from_string("DI_VAXX"), Scheme::DiVaxx);
    EXPECT_EQ(scheme_from_string("FpComp"), Scheme::FpComp);
    EXPECT_EQ(scheme_from_string("baseline"), Scheme::Baseline);
}

TEST(ErrorPaths, UnknownPatternDies)
{
    EXPECT_DEATH(pattern_from_string("tornado"), "unknown traffic pattern");
}

TEST(ErrorPaths, CliRejectsNonNumericValues)
{
    const char *argv[] = {"prog", "--alpha=abc"};
    CliArgs args(2, const_cast<char **>(argv));
    EXPECT_DEATH(args.getInt("alpha", 0), "expects an integer");
    EXPECT_DEATH(args.getDouble("alpha", 0), "expects a number");
}

TEST(ErrorPaths, TraceLoadRejectsGarbage)
{
    std::string path = ::testing::TempDir() + "/bad.trace";
    {
        std::ofstream f(path);
        f << "Z this is not a trace line\n";
    }
    EXPECT_DEATH(CommTrace::load(path), "bad trace line");
    std::remove(path.c_str());
}

TEST(ErrorPaths, TraceLoadRejectsMissingFile)
{
    EXPECT_DEATH(CommTrace::load("/nonexistent/trace.txt"),
                 "cannot open trace file");
}

TEST(ErrorPaths, TraceRejectsOutOfOrderRecords)
{
    CommTrace t;
    t.add(TraceRecord{10, 0, 1, TraceRecord::kNoBlock});
    EXPECT_DEATH(t.add(TraceRecord{5, 0, 1, TraceRecord::kNoBlock}),
                 "time-ordered");
}

TEST(ErrorPaths, BitReaderUnderrunDies)
{
    BitWriter w;
    w.write(0x3, 2);
    BitReader r(w.bytes());
    r.read(2);
    // Remaining padding bits of the byte can be read, but not past it.
    EXPECT_DEATH(
        {
            BitReader r2(w.bytes());
            r2.read(8);
            r2.read(8);
        },
        "underrun");
}

TEST(ErrorPaths, ErrorModelRejectsBadThreshold)
{
    EXPECT_DEATH(ErrorModel(-1.0), "error threshold");
    EXPECT_DEATH(ErrorModel(150.0), "error threshold");
}

TEST(EdgeCases, RunningStatSingleSample)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(EdgeCases, HistogramReset)
{
    Histogram h(2.0, 8);
    h.add(3.0);
    h.add(100.0); // overflow bucket
    EXPECT_EQ(h.count(), 2u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(EdgeCases, TableCsvRoundTrip)
{
    Table t({"a", "b"});
    t.row().cell(std::string("x,with,commas")).cell(1.5, 1);
    std::string path = ::testing::TempDir() + "/table.csv";
    t.writeCsv(path);
    std::ifstream f(path);
    std::string header, row;
    std::getline(f, header);
    std::getline(f, row);
    EXPECT_EQ(header, "a,b");
    EXPECT_NE(row.find("1.5"), std::string::npos);
    std::remove(path.c_str());
}

TEST(EdgeCases, ZeroRatePatternsWork)
{
    // pick_destination with 2 nodes must always return "the other".
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(pick_destination(TrafficPattern::UniformRandom, 0, 2, rng),
                  1u);
        EXPECT_EQ(pick_destination(TrafficPattern::Hotspot, 1, 2, rng), 0u);
    }
}
