/**
 * Router microarchitecture and topology edge cases: routing variants,
 * VC exhaustion, credit conservation, odd mesh shapes, concentration.
 */
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/codec_factory.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/data_provider.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

namespace {

struct Rig {
    NocConfig cfg;
    std::unique_ptr<CodecSystem> codec;
    std::unique_ptr<Network> net;
    Simulator sim;

    explicit Rig(NocConfig c)
        : cfg(c)
    {
        CodecConfig cc;
        cc.n_nodes = cfg.nodes();
        codec = CodecFactory::create(Scheme::Baseline, cc);
        net = std::make_unique<Network>(cfg, codec.get());
        net->attach(sim);
    }
};

} // namespace

TEST(Routing, YxTakesTheOtherDimensionFirst)
{
    NocConfig xy;
    NocConfig yx;
    yx.routing = RoutingAlgo::YX;
    Rig a(xy), b(yx);

    // Same corner-to-corner packet under both algorithms: identical
    // zero-load latency (same hop count), different path.
    auto pa = a.net->makeControlPacket(0, 30);
    auto pb = b.net->makeControlPacket(0, 30);
    a.net->inject(pa, 0);
    b.net->inject(pb, 0);
    ASSERT_TRUE(a.sim.runUntil([&] { return a.net->drained(); }, 10000));
    ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 10000));
    EXPECT_EQ(pa->netLatency(), pb->netLatency());

    // Path check: under XY router 1 (east of 0) forwards the packet;
    // under YX router 4 (south of 0) does.
    EXPECT_GT(a.net->router(1).flitsForwarded(), 0u);
    EXPECT_EQ(a.net->router(4).flitsForwarded(), 0u);
    EXPECT_GT(b.net->router(4).flitsForwarded(), 0u);
    EXPECT_EQ(b.net->router(1).flitsForwarded(), 0u);
}

TEST(Routing, YxSurvivesStress)
{
    NocConfig cfg;
    cfg.routing = RoutingAlgo::YX;
    Rig r(cfg);
    SyntheticConfig tc;
    tc.injection_rate = 0.3;
    tc.pattern = TrafficPattern::Transpose;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    r.sim.run(20000); // watchdog panics on deadlock
    gen.setEnabled(false);
    EXPECT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 200000));
}

TEST(Router, SingleVcStillDeliversEverything)
{
    NocConfig cfg;
    cfg.vcs = 1;
    cfg.vc_depth = 2;
    Rig r(cfg);
    SyntheticConfig tc;
    tc.injection_rate = 0.1;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    r.sim.run(15000);
    gen.setEnabled(false);
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 300000));
    std::uint64_t injected = 0, delivered = 0;
    for (NodeId n = 0; n < cfg.nodes(); ++n) {
        injected += r.net->ni(n).packetsInjected();
        delivered += r.net->ni(n).packetsDelivered();
    }
    EXPECT_EQ(injected, delivered);
    EXPECT_GT(delivered, 100u);
}

TEST(Router, DeepBuffersReduceLatencyUnderLoad)
{
    auto run = [](unsigned depth) {
        NocConfig cfg;
        cfg.vc_depth = depth;
        Rig r(cfg);
        SyntheticConfig tc;
        tc.injection_rate = 0.35;
        tc.seed = 5;
        SyntheticDataProvider provider(DataType::Int32, 16, 0.8, 5.0, 5);
        SyntheticTraffic gen(*r.net, tc, provider);
        r.sim.add(&gen);
        r.sim.run(20000);
        return r.net->stats().total_lat.mean();
    };
    EXPECT_LT(run(8), run(2));
}

TEST(Router, NonSquareMeshWorks)
{
    NocConfig cfg;
    cfg.rows = 2;
    cfg.cols = 8;
    Rig r(cfg);
    EXPECT_EQ(cfg.routers(), 16u);
    auto p = r.net->makeControlPacket(0, cfg.nodes() - 1);
    r.net->inject(p, 0);
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 10000));
    // 7 columns + 1 row = 8 hops + ejection router = 9 routers * 3.
    EXPECT_EQ(p->netLatency(), 9u * 3u);
}

TEST(Router, ConcentrationOneMesh)
{
    NocConfig cfg;
    cfg.concentration = 1;
    cfg.rows = 3;
    cfg.cols = 3;
    Rig r(cfg);
    EXPECT_EQ(cfg.nodes(), 9u);
    SyntheticConfig tc;
    tc.injection_rate = 0.2;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    r.sim.run(10000);
    gen.setEnabled(false);
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 100000));
    EXPECT_GT(r.net->stats().packets_delivered.value(), 200u);
}

TEST(Router, LocalTrafficNeverCrossesLinks)
{
    // Packets between two nodes on the same router use only the local
    // switch: no inter-router link traversals.
    NocConfig cfg;
    Rig r(cfg);
    for (int i = 0; i < 50; ++i)
        r.net->inject(r.net->makeControlPacket(0, 1), r.sim.now());
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 10000));
    EXPECT_EQ(r.net->routerLinkTraversals(), 0u);
    EXPECT_EQ(r.net->stats().packets_delivered.value(), 50u);
}

TEST(Router, EightByEightMeshScales)
{
    // The paper's 64-core full-system configuration (Sec. 5.4).
    NocConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.concentration = 1;
    Rig r(cfg);
    SyntheticConfig tc;
    tc.injection_rate = 0.1;
    SyntheticDataProvider provider(DataType::Float32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    r.sim.run(10000);
    gen.setEnabled(false);
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 100000));
    EXPECT_EQ(r.net->routerOccupancy(), 0u);
}

TEST(Router, ActivityCountersAreConsistent)
{
    NocConfig cfg;
    Rig r(cfg);
    SyntheticConfig tc;
    tc.injection_rate = 0.15;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    r.sim.run(10000);
    gen.setEnabled(false);
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 100000));

    // Every buffered flit is eventually forwarded: writes == forwards.
    EXPECT_EQ(r.net->routerBufferWrites(), r.net->routerFlitsForwarded());
    // Forwards = link traversals (to other routers) + ejections +
    // nothing else; ejected flits = sum of delivered packets' flits.
    std::uint64_t ejected =
        r.net->routerFlitsForwarded() - r.net->routerLinkTraversals();
    std::uint64_t delivered_flits = 0;
    std::uint64_t injected_flits = 0;
    for (NodeId n = 0; n < cfg.nodes(); ++n)
        injected_flits += r.net->ni(n).flitsInjected();
    delivered_flits = injected_flits; // drained: all arrived
    EXPECT_EQ(ejected, delivered_flits);
}

TEST(Router, ArbitrationFollowsTheCycleAcrossIdleStretches)
{
    // Nodes 0 and 1 share router 0 (local inputs 4 and 5) and both send
    // to node 2 on router 1, so their heads contend for router 0's east
    // output in the same cycle. The input round-robin pointer moves
    // every cycle, busy or idle, so the winner is whichever contender a
    // scan of the input ports from now % 6 meets first.
    NocConfig cfg;
    Rig r(cfg);
    const unsigned n_ports = kLocalBase + cfg.concentration;
    bool won[2] = {false, false};
    for (unsigned trial = 0; trial < 12; ++trial) {
        // Idle for 4 to 9 cycles, so the injection cycle walks through
        // every residue mod n_ports twice.
        r.sim.run(4);
        while (r.sim.now() % n_ports != trial % n_ports)
            r.sim.step();
        auto a = r.net->makeControlPacket(0, 2);
        auto b = r.net->makeControlPacket(1, 2);
        r.net->inject(a, r.sim.now());
        r.net->inject(b, r.sim.now());
        ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 1000));
        ASSERT_EQ(a->inject_start, b->inject_start);

        const Cycle eligible = a->inject_start + cfg.router_stages;
        const unsigned start = static_cast<unsigned>(eligible % n_ports);
        auto scan_pos = [&](unsigned port) {
            return (port + n_ports - start) % n_ports;
        };
        const bool a_first = scan_pos(kLocalBase) < scan_pos(kLocalBase + 1);
        const PacketPtr &first = a_first ? a : b;
        const PacketPtr &second = a_first ? b : a;
        EXPECT_LT(first->eject_done, second->eject_done)
            << "trial " << trial << ", heads eligible at cycle " << eligible;
        won[a_first ? 0 : 1] = true;
    }
    EXPECT_TRUE(won[0] && won[1]) << "both inputs must win some trial";
}

TEST(Router, OccupancyIsWritesMinusForwardsEveryCycle)
{
    NocConfig cfg;
    Rig r(cfg);
    SyntheticConfig tc;
    tc.injection_rate = 0.3;
    tc.seed = 3;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    for (int c = 0; c < 3000; ++c) {
        r.sim.step();
        ASSERT_EQ(r.net->routerOccupancy(),
                  r.net->routerBufferWrites() - r.net->routerFlitsForwarded())
            << "cycle " << r.sim.now();
    }
    EXPECT_GT(r.net->routerOccupancy(), 0u);
}

TEST(Router, StatsDumpIsComplete)
{
    NocConfig cfg;
    Rig r(cfg);
    SyntheticConfig tc;
    tc.injection_rate = 0.1;
    SyntheticDataProvider provider(DataType::Int32);
    SyntheticTraffic gen(*r.net, tc, provider);
    r.sim.add(&gen);
    r.sim.run(5000);
    gen.setEnabled(false);
    ASSERT_TRUE(r.sim.runUntil([&] { return r.net->drained(); }, 100000));

    std::ostringstream os;
    r.net->dumpStats(os, r.sim.now());
    std::string s = os.str();
    for (const char *key :
         {"packets.delivered", "latency.total.mean", "latency.total.p99",
          "hops.mean", "throughput.flits_per_cycle_node", "quality.data",
          "codec.words_encoded", "router0", "router15", "ni0", "ni31"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
    // p99 >= p50 >= 0.
    EXPECT_GE(r.net->stats().p99Latency(),
              r.net->stats().total_lat_hist.percentile(0.5));
}

TEST(Routing, WestFirstZeroLoadMatchesXy)
{
    NocConfig wf;
    wf.routing = RoutingAlgo::WestFirst;
    Rig a{NocConfig{}}, b(wf);
    // Pure-west destination and a mixed east/south destination: the
    // minimal hop count is identical to XY at zero load.
    for (NodeId dst : {6u, 30u, 24u}) {
        auto pa = a.net->makeControlPacket(2, dst); // router 1 source
        auto pb = b.net->makeControlPacket(2, dst);
        a.net->inject(pa, a.sim.now());
        b.net->inject(pb, b.sim.now());
        ASSERT_TRUE(a.sim.runUntil([&] { return a.net->drained(); }, 10000));
        ASSERT_TRUE(b.sim.runUntil([&] { return b.net->drained(); }, 10000));
        EXPECT_EQ(pa->netLatency(), pb->netLatency()) << "dst " << dst;
    }
}

TEST(Routing, WestFirstSurvivesAdversarialLoad)
{
    NocConfig cfg;
    cfg.routing = RoutingAlgo::WestFirst;
    Rig r(cfg);
    for (TrafficPattern pat :
         {TrafficPattern::Transpose, TrafficPattern::Hotspot,
          TrafficPattern::BitComplement}) {
        SyntheticConfig tc;
        tc.injection_rate = 0.3;
        tc.pattern = pat;
        SyntheticDataProvider provider(DataType::Int32);
        SyntheticTraffic gen(*r.net, tc, provider);
        r.sim.add(&gen);
        r.sim.run(15000); // watchdog panics on deadlock
        gen.setEnabled(false);
        ASSERT_TRUE(
            r.sim.runUntil([&] { return r.net->drained(); }, 300000))
            << to_string(pat);
    }
}

TEST(Routing, WestFirstAdaptsAroundCongestion)
{
    // A background flow congests the XY path of a probe flow; the
    // adaptive router should spread load and beat XY's latency.
    auto run = [](RoutingAlgo algo) {
        NocConfig cfg;
        cfg.routing = algo;
        Rig r(cfg);
        // Background: saturate the east-then-south XY path 0 -> 15 by
        // hammering intermediate links with same-row traffic.
        DataBlock blk(std::vector<Word>(16, 0xAAAAAAAA), DataType::Raw,
                      false);
        for (int k = 0; k < 200; ++k) {
            r.net->inject(r.net->makeDataPacket(0, 6, blk), 0);  // row 0
            r.net->inject(r.net->makeDataPacket(2, 6, blk), 0);  // row 0
        }
        // Probe packets 0 -> 30 (corner to corner, eastward).
        std::vector<PacketPtr> probes;
        for (int k = 0; k < 10; ++k) {
            auto p = r.net->makeControlPacket(1, 30);
            r.net->inject(p, 0);
            probes.push_back(p);
        }
        r.sim.runUntil([&] { return r.net->drained(); }, 200000);
        double sum = 0;
        for (auto &p : probes)
            sum += static_cast<double>(p->totalLatency());
        return sum / probes.size();
    };
    EXPECT_LT(run(RoutingAlgo::WestFirst), run(RoutingAlgo::XY));
}
