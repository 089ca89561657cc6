/**
 * @file
 * ExperimentRunner / Experiment subsystem tests: the determinism
 * contract (bit-identical tables at --jobs=1 and --jobs=4), failure
 * isolation (a throwing point becomes a failed cell, not an aborted
 * sweep), grid construction and stats merging.
 */
#include <atomic>
#include <chrono>
#include <fstream>
#include <latch>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "harness/report.h"

using namespace approxnoc;
using namespace approxnoc::harness;

namespace {

ExperimentSpec
small_spec(unsigned jobs)
{
    // 2 benchmarks x 3 schemes, tiny replay so the test stays fast.
    return ExperimentSpec::Builder()
        .benchmarks({"blackscholes", "swaptions"})
        .schemes({Scheme::Baseline, Scheme::DiComp, Scheme::FpVaxx})
        .maxRecords(300)
        .jobs(jobs)
        .build();
}

std::string
render(const Experiment &ex)
{
    std::ostringstream os;
    points_table(ex).print(os);
    return os.str();
}

} // namespace

TEST(Runner, ResolveJobs)
{
    EXPECT_GE(resolve_jobs(0), 1u);
    EXPECT_EQ(resolve_jobs(1), 1u);
    EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(Runner, ResultsIndexedByJobNotCompletionOrder)
{
    ExperimentRunner runner(4);
    auto out = runner.map(64, [](std::size_t i) {
        return static_cast<int>(i * 3);
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(out[i].ok);
        EXPECT_EQ(out[i].value, static_cast<int>(i * 3));
    }
}

TEST(Runner, ThrowingJobIsCapturedOthersStillRun)
{
    ExperimentRunner runner(4);
    std::atomic<int> ran{0};
    auto statuses = runner.run(16, [&](std::size_t i) {
        ++ran;
        if (i == 5)
            throw std::runtime_error("boom 5");
    });
    EXPECT_EQ(ran.load(), 16);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (i == 5) {
            EXPECT_FALSE(statuses[i].ok);
            EXPECT_NE(statuses[i].error.find("boom 5"), std::string::npos);
        } else {
            EXPECT_TRUE(statuses[i].ok) << i;
        }
    }
}

TEST(Runner, FirstBatchRunsOnEveryLane)
{
    // Four jobs that can only finish together: each waits until all
    // four have started. A runner that leaves a lane idle on its first
    // batch runs them one or two at a time, and the early ones time out.
    ExperimentRunner runner(4);
    std::latch started(4);
    auto out = runner.map(4, [&](std::size_t) {
        started.count_down();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!started.try_wait()) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(out[i].ok && out[i].value) << "job " << i;
}

TEST(Runner, ProgressCountsUpToTotal)
{
    std::vector<std::size_t> seen;
    ExperimentRunner runner(4, [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 64u);
        seen.push_back(done);
    });
    runner.run(64, [](std::size_t) {});
    ASSERT_EQ(seen.size(), 64u);
    for (std::size_t k = 0; k < seen.size(); ++k)
        EXPECT_EQ(seen[k], k + 1);
}

TEST(Spec, GridEnumerationAndSeeds)
{
    ExperimentSpec spec = small_spec(1);
    ASSERT_EQ(spec.size(), 6u);
    // Benchmark-major order.
    EXPECT_EQ(spec.points()[0].benchmark, "blackscholes");
    EXPECT_EQ(spec.points()[3].benchmark, "swaptions");
    EXPECT_EQ(spec.points()[0].scheme, Scheme::Baseline);
    EXPECT_EQ(spec.points()[2].scheme, Scheme::FpVaxx);
    // One kernel seed per run, the one the committed tables use.
    EXPECT_EQ(spec.config().seed, 12345u);
}

TEST(Spec, HardwareCoordinatesNestInnermost)
{
    ExperimentSpec spec = ExperimentSpec::Builder()
                              .benchmarks({"blackscholes"})
                              .schemes({Scheme::DiComp, Scheme::DiVaxx})
                              .flitBits({32, 128})
                              .pmtEntries({4, 16})
                              .build();
    ASSERT_EQ(spec.size(), 8u);
    // Scheme, then flit width, then PMT size, innermost.
    const struct {
        Scheme scheme;
        unsigned flit_bits;
        std::size_t pmt_entries;
    } order[] = {{Scheme::DiComp, 32, 4},   {Scheme::DiComp, 32, 16},
                 {Scheme::DiComp, 128, 4},  {Scheme::DiComp, 128, 16},
                 {Scheme::DiVaxx, 32, 4},   {Scheme::DiVaxx, 32, 16},
                 {Scheme::DiVaxx, 128, 4},  {Scheme::DiVaxx, 128, 16}};
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_EQ(spec.points()[i].scheme, order[i].scheme) << i;
        EXPECT_EQ(spec.points()[i].flit_bits, order[i].flit_bits) << i;
        EXPECT_EQ(spec.points()[i].pmt_entries, order[i].pmt_entries) << i;
    }
    EXPECT_EQ(spec.select({.flit_bits = 128}).size(), 4u);
    EXPECT_EQ(spec.select({.pmt_entries = 4}).size(), 4u);
    EXPECT_EQ(spec.indexOf({.scheme = Scheme::DiVaxx,
                            .flit_bits = 32,
                            .pmt_entries = 16}),
              5u);

    // Table 1's values when the grid does not vary them.
    const ExperimentSpec table1 = small_spec(1);
    EXPECT_EQ(table1.points().front().flit_bits, 64u);
    EXPECT_EQ(table1.points().front().pmt_entries, 8u);
}

TEST(Spec, FilterAndSelect)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .benchmarks({"blackscholes"})
            .schemes({Scheme::DiComp, Scheme::DiVaxx})
            .thresholds({0.0, 5.0, 10.0})
            .filter([](const ExperimentPoint &p) {
                return p.scheme == Scheme::DiVaxx ? p.threshold > 0.0
                                                  : p.threshold == 0.0;
            })
            .build();
    EXPECT_EQ(spec.size(), 3u); // DiComp@0 + DiVaxx@{5,10}
    EXPECT_EQ(spec.select({.scheme = Scheme::DiVaxx}).size(), 2u);
    std::size_t i = spec.indexOf({.scheme = Scheme::DiComp});
    EXPECT_EQ(spec.points()[i].threshold, 0.0);
}

TEST(Experiment, ParallelRunIsBitIdenticalToSerial)
{
    Experiment serial(small_spec(1));
    serial.run();
    Experiment parallel(small_spec(4));
    parallel.run();

    EXPECT_EQ(render(serial), render(parallel));
    for (std::size_t i = 0; i < serial.spec().size(); ++i) {
        const PointResult &a = serial.resultAt(i);
        const PointResult &b = parallel.resultAt(i);
        ASSERT_TRUE(a.ok);
        ASSERT_TRUE(b.ok);
        EXPECT_EQ(a.replay.total_lat, b.replay.total_lat) << i;
        EXPECT_EQ(a.replay.data_flits, b.replay.data_flits) << i;
        EXPECT_EQ(a.replay.compression_ratio, b.replay.compression_ratio)
            << i;
        EXPECT_EQ(a.replay.dynamic_power_mw, b.replay.dynamic_power_mw)
            << i;
    }
}

TEST(Experiment, ThrowingPointBecomesFailedCell)
{
    Experiment ex(small_spec(4));
    ex.run([](const ExperimentPoint &pt) -> ReplayResult {
        if (pt.scheme == Scheme::DiComp)
            throw std::runtime_error("injected failure");
        return ReplayResult{};
    });
    EXPECT_EQ(ex.failures(), 2u); // one DiComp point per benchmark
    for (const auto &p : ex.spec().points()) {
        const PointResult &pr = ex.resultAt(p.index);
        if (p.scheme == Scheme::DiComp) {
            EXPECT_FALSE(pr.ok);
            EXPECT_NE(pr.error.find("injected failure"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(pr.ok);
        }
    }
    // The failed cells surface in the grid table instead of aborting.
    Table t = points_table(ex);
    std::size_t failed_rows = 0;
    for (const auto &row : t.data())
        for (const auto &cell : row)
            failed_rows += cell.find("FAILED") != std::string::npos;
    EXPECT_EQ(failed_rows, 2u);
}

TEST(TraceLibrary, GetBeforePrefetchIsFatal)
{
    TraceLibrary lib;
    EXPECT_EXIT(lib.get("blackscholes"), ::testing::ExitedWithCode(1),
                "no trace for 'blackscholes'");
}

TEST(Stats, RunningStatMergeMatchesSequential)
{
    RunningStat all, left, right;
    for (int i = 0; i < 100; ++i) {
        double v = 0.37 * i - 11.0;
        all.add(v);
        (i < 42 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_EQ(left.min(), all.min());
    EXPECT_EQ(left.max(), all.max());

    RunningStat empty;
    empty.merge(all);
    EXPECT_NEAR(empty.mean(), all.mean(), 1e-12);
    all.merge(RunningStat{});
    EXPECT_EQ(all.count(), 100u);
}

TEST(Table, JsonEmission)
{
    Table t({"a", "b"});
    t.row().cell(std::string("x\"y")).cell(1.5, 2);
    EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    std::string path = ::testing::TempDir() + "harness_table.json";
    t.writeJson(path, "demo");
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::string json = ss.str();
    EXPECT_NE(json.find("\"name\": \"demo\""), std::string::npos);
    EXPECT_NE(json.find("\"columns\": [\"a\", \"b\"]"), std::string::npos);
    EXPECT_NE(json.find("x\\\"y"), std::string::npos);
    EXPECT_NE(json.find("1.50"), std::string::npos);
}
