/**
 * Network integration tests: zero-load latency, flit conservation,
 * wormhole integrity, credits, drain, concentration, all schemes
 * end to end.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compression/dictionary.h"
#include "core/codec_factory.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/data_provider.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

namespace {

NocConfig
small_noc()
{
    NocConfig cfg; // 4x4 cmesh, concentration 2 (Table 1)
    return cfg;
}

struct Bench {
    NocConfig cfg;
    std::unique_ptr<CodecSystem> codec;
    std::unique_ptr<Network> net;
    Simulator sim;

    explicit Bench(Scheme s = Scheme::Baseline, NocConfig c = small_noc())
        : cfg(c)
    {
        CodecConfig cc;
        cc.n_nodes = cfg.nodes();
        codec = CodecFactory::create(s, cc);
        net = std::make_unique<Network>(cfg, codec.get());
        net->attach(sim);
    }
};

} // namespace

TEST(Network, TopologySanity)
{
    NocConfig cfg = small_noc();
    EXPECT_EQ(cfg.routers(), 16u);
    EXPECT_EQ(cfg.nodes(), 32u);
    EXPECT_EQ(cfg.routerOf(0), 0u);
    EXPECT_EQ(cfg.routerOf(1), 0u);
    EXPECT_EQ(cfg.routerOf(2), 1u);
    EXPECT_EQ(cfg.routerOf(31), 15u);
}

TEST(Network, SingleControlPacketZeroLoadLatency)
{
    Bench b;
    auto p = b.net->makeControlPacket(0, 30); // router 0 -> router 15
    b.net->inject(p, 0);
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 10000));

    // Zero-load: hops = (3 col + 3 row + 1 ejection-hop router) XY path
    // routers visited = 7, each costing router_stages cycles.
    EXPECT_EQ(p->queueLatency(), 0u);
    // 1-flit packet: injection cycle + 7 routers * 3 stages.
    EXPECT_EQ(p->netLatency(), 7u * 3u);
    EXPECT_EQ(p->decodeLatency(), 0u);
    EXPECT_EQ(b.net->stats().packets_delivered.value(), 1u);
}

TEST(Network, NeighborLatency)
{
    Bench b;
    auto p = b.net->makeControlPacket(0, 1); // same router, local switch
    b.net->inject(p, 0);
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 1000));
    EXPECT_EQ(p->netLatency(), 3u);
}

TEST(Network, DataPacketFlitCountBaseline)
{
    Bench b;
    DataBlock blk(std::vector<Word>(16, 0xDEADBEEF), DataType::Raw, false);
    auto p = b.net->makeDataPacket(0, 5, blk);
    b.net->inject(p, 0);
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 10000));
    // 16 words x 32 bits = 512 bits = 8 flits + 1 head.
    EXPECT_EQ(p->n_flits, 9u);
    EXPECT_TRUE(p->delivered.sameBits(blk));
}

TEST(Network, CompressedPacketHasFewerFlits)
{
    Bench b(Scheme::FpComp);
    DataBlock blk(std::vector<Word>(16, 0), DataType::Int32, false);
    auto p = b.net->makeDataPacket(0, 5, blk);
    b.net->inject(p, 0);
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 10000));
    EXPECT_EQ(p->n_flits, 2u); // 2 zero-runs -> 12 bits -> 1 flit + head
    EXPECT_TRUE(p->delivered.sameBits(blk));
    EXPECT_EQ(p->decodeLatency(), kDecompressionLatency);
}

TEST(Network, CompressionLatencyShowsAtZeroLoad)
{
    Bench base(Scheme::Baseline);
    Bench fp(Scheme::FpComp);
    DataBlock blk(std::vector<Word>(16, 0x12345678), DataType::Raw, false);
    auto p1 = base.net->makeDataPacket(0, 30, blk);
    auto p2 = fp.net->makeDataPacket(0, 30, blk);
    base.net->inject(p1, 0);
    fp.net->inject(p2, 0);
    ASSERT_TRUE(base.sim.runUntil([&] { return base.net->drained(); }, 10000));
    ASSERT_TRUE(fp.sim.runUntil([&] { return fp.net->drained(); }, 10000));
    EXPECT_EQ(p1->queueLatency(), 0u);
    EXPECT_EQ(p2->queueLatency(), kCompressionLatency);
}

TEST(Network, FlitConservationUnderLoad)
{
    Bench b(Scheme::FpComp);
    SyntheticConfig tc;
    tc.injection_rate = 0.2;
    tc.data_packet_ratio = 0.5;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*b.net, tc, provider);
    b.sim.add(&gen);

    b.sim.run(20000);
    gen.setEnabled(false);
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 100000))
        << "network failed to drain";

    std::uint64_t injected_pkts = 0, delivered_pkts = 0;
    for (NodeId n = 0; n < b.cfg.nodes(); ++n) {
        injected_pkts += b.net->ni(n).packetsInjected();
        delivered_pkts += b.net->ni(n).packetsDelivered();
    }
    EXPECT_GT(delivered_pkts, 1000u);
    EXPECT_EQ(injected_pkts, delivered_pkts);
    EXPECT_EQ(b.net->routerOccupancy(), 0u);
    EXPECT_EQ(b.net->codec().consistencyMismatches(), 0u);
}

TEST(Network, AllSchemesDeliverCorrectly)
{
    Rng rng(81);
    for (Scheme s : kAllSchemes) {
        Bench b(s);
        SyntheticConfig tc;
        tc.injection_rate = 0.15;
        tc.approx_ratio = 0.75;
        SyntheticDataProvider provider(DataType::Int32);
        SyntheticTraffic gen(*b.net, tc, provider);
        b.sim.add(&gen);
        b.sim.run(10000);
        gen.setEnabled(false);
        ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 100000))
            << to_string(s);
        EXPECT_GT(b.net->stats().packets_delivered.value(), 500u)
            << to_string(s);
        EXPECT_EQ(b.net->codec().consistencyMismatches(), 0u)
            << to_string(s);
        // Quality: baseline and exact schemes are error-free.
        if (s == Scheme::Baseline || s == Scheme::DiComp ||
            s == Scheme::FpComp) {
            EXPECT_DOUBLE_EQ(b.net->stats().quality.meanRelativeError(), 0.0)
                << to_string(s);
        } else {
            EXPECT_LE(b.net->stats().quality.meanRelativeError(), 0.10)
                << to_string(s);
        }
    }
}

TEST(Network, VaxxReducesInjectedFlits)
{
    auto run = [](Scheme s) {
        Bench b(s);
        SyntheticConfig tc;
        tc.injection_rate = 0.1;
        tc.data_packet_ratio = 0.5;
        tc.seed = 7;
        // Dictionary-friendly value locality: a hot set that fits the
        // 8-entry PMTs with mostly exact repeats plus near values.
        SyntheticDataProvider provider(DataType::Int32, 16, 0.95, 2.0, 3,
                                       0.85, 8);
        SyntheticTraffic gen(*b.net, tc, provider);
        b.sim.add(&gen);
        b.sim.run(30000);
        gen.setEnabled(false);
        b.sim.runUntil([&] { return b.net->drained(); }, 100000);
        return b.net->dataFlitsInjected();
    };
    std::uint64_t base = run(Scheme::Baseline);
    std::uint64_t di = run(Scheme::DiComp);
    std::uint64_t divaxx = run(Scheme::DiVaxx);
    std::uint64_t fp = run(Scheme::FpComp);
    std::uint64_t fpvaxx = run(Scheme::FpVaxx);

    EXPECT_LT(di, base);
    EXPECT_LT(fp, base);
    EXPECT_LE(divaxx, di);
    EXPECT_LE(fpvaxx, fp);
}

TEST(Network, DictionaryNotificationsBecomeControlPackets)
{
    Bench b(Scheme::DiComp);
    SyntheticConfig tc;
    tc.injection_rate = 0.1;
    tc.data_packet_ratio = 1.0;
    SyntheticDataProvider provider(DataType::Int32, 16, 0.95, 1.0);
    SyntheticTraffic gen(*b.net, tc, provider);
    b.sim.add(&gen);
    b.sim.run(5000);
    gen.setEnabled(false);
    b.sim.runUntil([&] { return b.net->drained(); }, 100000);
    EXPECT_GT(b.net->stats().notification_packets.value(), 0u);
}

TEST(Network, EveryDictionaryNotificationBecomesOnePacket)
{
    // The network drains a decoder's notification queue only after
    // that endpoint decoded a block; a drain that skipped such a
    // destination would strand notifications and break the equality.
    // A decoder never notifies itself: self-addressed packets never
    // enter the network.
    for (Scheme s : {Scheme::DiComp, Scheme::DiVaxx}) {
        Bench b(s);
        SyntheticConfig tc;
        tc.injection_rate = 0.15;
        tc.data_packet_ratio = 1.0;
        tc.approx_ratio = 0.75;
        tc.seed = 11;
        SyntheticDataProvider provider(DataType::Float32, 16, 0.9, 3.0, 11,
                                       0.5, 64);
        SyntheticTraffic gen(*b.net, tc, provider);
        b.sim.add(&gen);
        b.sim.run(8000);
        gen.setEnabled(false);
        ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 100000))
            << to_string(s);
        const auto &dict =
            dynamic_cast<const DictionaryCodecBase &>(b.net->codec());
        EXPECT_GT(dict.notificationsSent(), 0u) << to_string(s);
        EXPECT_EQ(b.net->stats().notification_packets.value(),
                  dict.notificationsSent())
            << to_string(s);
    }
}

TEST(Network, DecodesWithinACycleRunInAscendingDestinationOrder)
{
    // Dictionary updates apply at each encoder in send order, so the
    // order of same-cycle decodes is the order their updates apply in.
    // Routers advance in ascending id and eject through their local
    // ports in ascending order, and node n sits on local port
    // n % concentration of router n / concentration: same-cycle decodes
    // run in ascending destination order. The NI decodes a packet
    // right before it delivers it. A router change that reorders
    // ejections fails here, and moves dictionary update order.
    NocConfig mesh8;
    mesh8.rows = 8;
    mesh8.cols = 8;
    mesh8.concentration = 1;
    for (const NocConfig &cfg : {small_noc(), mesh8}) {
        Bench b(Scheme::DiComp, cfg);
        std::vector<std::pair<Cycle, NodeId>> decodes;
        b.net->setDeliveryCallback([&](const PacketPtr &p, Cycle now) {
            if (p->carries_block)
                decodes.emplace_back(now, p->dst);
        });
        SyntheticConfig tc;
        tc.injection_rate = 0.3;
        tc.data_packet_ratio = 0.8;
        SyntheticDataProvider provider(DataType::Int32);
        SyntheticTraffic gen(*b.net, tc, provider);
        b.sim.add(&gen);
        b.sim.run(4000);
        gen.setEnabled(false);
        ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 100000))
            << cfg.rows << "x" << cfg.cols;

        std::size_t same_cycle = 0;
        for (std::size_t i = 1; i < decodes.size(); ++i) {
            if (decodes[i].first != decodes[i - 1].first)
                continue;
            ++same_cycle;
            ASSERT_LT(decodes[i - 1].second, decodes[i].second)
                << cfg.rows << "x" << cfg.cols << ", cycle "
                << decodes[i].first;
        }
        EXPECT_GT(same_cycle, 1000u) << cfg.rows << "x" << cfg.cols;
    }
}

TEST(Network, SelfAddressedPacketsRejected)
{
    Bench b;
    auto p = b.net->makeControlPacket(3, 3);
    EXPECT_DEATH(b.net->inject(p, 0), "self-addressed");
}

TEST(Network, HotspotStressDoesNotDeadlock)
{
    Bench b(Scheme::DiVaxx);
    SyntheticConfig tc;
    tc.injection_rate = 0.4;
    tc.pattern = TrafficPattern::Hotspot;
    tc.data_packet_ratio = 0.4;
    SyntheticDataProvider provider(DataType::Float32);
    SyntheticTraffic gen(*b.net, tc, provider);
    b.sim.add(&gen);
    b.sim.run(30000); // would panic via watchdog on deadlock
    gen.setEnabled(false);
    EXPECT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 200000));
}

TEST(Network, CompressionLatencyHiddenByQueueing)
{
    // Paper Sec. 4.3: compression overlaps NI queueing, so when the
    // injection queue is busy the 3-cycle encode latency vanishes.
    // Back-to-back packets: total makespan must match pure flit
    // serialization plus a single pipeline fill, not + 3 per packet.
    Bench b(Scheme::FpComp);
    DataBlock blk(std::vector<Word>(16, 0xDEADBEEF), DataType::Raw, false);
    const int n = 20;
    std::vector<PacketPtr> pkts;
    for (int i = 0; i < n; ++i) {
        auto p = b.net->makeDataPacket(0, 2, blk);
        b.net->inject(p, 0);
        pkts.push_back(p);
    }
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 100000));

    // Every packet after the first must show zero added compression
    // stall at injection: head flits go out every n_flits cycles.
    for (int i = 1; i < n; ++i) {
        Cycle gap = pkts[i]->inject_start - pkts[i - 1]->inject_start;
        EXPECT_EQ(gap, pkts[i - 1]->n_flits)
            << "packet " << i << " stalled beyond serialization";
    }
    // Only the first packet pays the pipeline fill.
    EXPECT_EQ(pkts[0]->queueLatency(), kCompressionLatency);
}
