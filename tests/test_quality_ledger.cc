/**
 * The error ledger (QualityTracker::record) measures what was
 * delivered, once, under signed_relative_error: the quality figures,
 * the `net.approx_error` histogram and the bound QoR ErrorProfile all
 * see the same per-word errors. Plus the QoS loop's windows over the
 * ledger's cumulative sums across a stats reset.
 */
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "compression/codec.h"
#include "core/error_control.h"
#include "noc/network.h"
#include "noc/qos_loop.h"
#include "sim/simulator.h"
#include "telemetry/error_profile.h"

using namespace approxnoc;

namespace {

/** Precise word -> the word the decoder delivers instead. */
using Swaps = std::map<Word, Word>;

/** Baseline transport whose decoder swaps selected words: a fault the
 * encoder never sees, so only a ledger of delivered data can find it. */
class CorruptingCodec : public BaselineCodec
{
  public:
    explicit CorruptingCodec(Swaps swaps)
        : swaps_(std::move(swaps))
    {}

    DataBlock
    decode(const EncodedBlock &enc, NodeId src, NodeId dst,
           Cycle now) override
    {
        DataBlock out = BaselineCodec::decode(enc, src, dst, now);
        for (std::size_t i = 0; i < out.size(); ++i)
            if (auto it = swaps_.find(out.word(i)); it != swaps_.end())
                out.setWord(i, it->second);
        return out;
    }

  private:
    Swaps swaps_;
};

struct LedgerBench {
    CorruptingCodec codec;
    Network net;
    Simulator sim;
    telemetry::ErrorProfile qor;

    explicit LedgerBench(Swaps swaps)
        : codec(std::move(swaps)), net(NocConfig{}, &codec)
    {
        net.attach(sim);
        net.bindErrorProfile(&qor);
    }

    /** Send @p blk from @p src to @p dst now. */
    void
    send(NodeId src, NodeId dst, const DataBlock &blk)
    {
        net.inject(net.makeDataPacket(src, dst, blk), sim.now());
    }

    bool
    drain()
    {
        return sim.runUntil([&] { return net.drained(); }, 10000);
    }
};

} // namespace

TEST(QualityLedger, RecordsWhatWasDelivered)
{
    // A non-approximable block: no encoder ever changes it, but the
    // decoder delivers 250 for 200, a +25% error on one of 4 words.
    LedgerBench b(Swaps{{200u, 250u}});
    b.send(0, 5, DataBlock({100, 200, 300, 400}, DataType::Int32, false));
    ASSERT_TRUE(b.drain());

    const QualityTracker &q = b.net.stats().quality;
    EXPECT_EQ(q.blocks(), 1u);
    EXPECT_DOUBLE_EQ(q.errorSum(), 0.25 / 4.0);
    EXPECT_EQ(q.approximatedWords(), 0u); // the encoder approximated nothing

    EXPECT_EQ(b.qor.samples(), 1u);
    EXPECT_DOUBLE_EQ(b.qor.mean(), 0.25);
    EXPECT_DOUBLE_EQ(b.qor.maxAbs(), 0.25);
    std::ostringstream js;
    b.qor.writeJson(js);
    EXPECT_NE(js.str().find("\"0->5\": {\"count\": 1"), std::string::npos)
        << js.str();
}

TEST(QualityLedger, OneDefinitionOfRelativeError)
{
    // signed_relative_error's conventions: a float special (a denormal
    // or a zero of either sign) and any raw-data flip count |e| = 1.
    constexpr Word kDenormal3 = 3, kDenormal2 = 2;
    constexpr Word kPlusZero = 0x00000000u, kMinusZero = 0x80000000u;
    LedgerBench b(
        Swaps{{kDenormal3, kDenormal2}, {kPlusZero, kMinusZero}, {5u, 6u}});
    b.send(0, 5, DataBlock({kDenormal3}, DataType::Float32, true));
    b.send(1, 6, DataBlock({kPlusZero}, DataType::Float32, true));
    b.send(2, 7, DataBlock({5u}, DataType::Raw, false));
    ASSERT_TRUE(b.drain());

    const QualityTracker &q = b.net.stats().quality;
    ASSERT_EQ(q.blocks(), 3u);
    EXPECT_DOUBLE_EQ(q.errorSum(), 3.0);
    EXPECT_DOUBLE_EQ(q.meanRelativeError(), 1.0);

    EXPECT_EQ(b.qor.samples(), 3u);
    EXPECT_DOUBLE_EQ(b.qor.meanAbs(), 1.0);
    EXPECT_DOUBLE_EQ(b.qor.maxAbs(), 1.0);
}

TEST(ErrorControlLoop, WindowAfterStatsResetCountsOnlyNewBlocks)
{
    // Every delivered block carries the same error: one of 4 words is
    // 10% off, a 2.5% block mean. So every window measures 2.5%.
    LedgerBench b(Swaps{{100u, 110u}});
    const DataBlock blk({100, 200, 300, 400}, DataType::Int32, false);
    ErrorControlLoop loop(b.net, QosController(/*target=*/1.0), 1000);
    b.sim.add(&loop);

    // Window 1 (cycle 1000): 20 blocks.
    for (NodeId i = 0; i < 20; ++i)
        b.send(i, (i + 5) % 32, blk);
    b.sim.run(1500);

    // A stats reset (warmup over), then 5 blocks for window 2 (cycle
    // 2000): its deltas start at the reset, not at window 1's sums.
    b.net.stats().reset();
    for (NodeId i = 0; i < 5; ++i)
        b.send(i, (i + 9) % 32, blk);
    b.sim.run(1000);

    EXPECT_EQ(b.net.stats().quality.blocks(), 5u);
    EXPECT_NEAR(loop.meanWindowErrorPct(), 2.5, 1e-9);
    // Both windows exceed the 1% target.
    EXPECT_EQ(loop.controller().violations(), 2u);
}
