/**
 * Active-set stepping against dense stepping. The Simulator steps a
 * router or NI only while it holds work; the reference here steps every
 * NI, router and the network every cycle, in Network::attach's order.
 * Both must produce the same metrics.json, qor.json, time series and
 * packet trace, byte for byte, on each topology, routing algorithm and
 * kind of traffic the simulator runs. The PhaseProfiler's call counts
 * then show what the active set skips.
 */
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/codec_factory.h"
#include "harness/trace_library.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "telemetry/error_profile.h"
#include "telemetry/phase_profiler.h"
#include "telemetry/telemetry.h"
#include "traffic/closed_loop.h"
#include "traffic/data_provider.h"
#include "traffic/replay.h"
#include "traffic/synthetic.h"

using namespace approxnoc;

namespace {

/** The dense reference: every NI, router and the network, every cycle,
 *  in Network::attach's order. */
class DenseStepper : public Clocked
{
  public:
    explicit DenseStepper(Network &net) : Clocked("dense")
    {
        for (NodeId n = 0; n < net.config().nodes(); ++n)
            members_.push_back(&net.ni(n));
        for (RouterId r = 0; r < net.config().routers(); ++r)
            members_.push_back(&net.router(r));
        members_.push_back(&net);
    }

    void
    evaluate(Cycle now) override
    {
        for (Clocked *c : members_)
            c->evaluate(now);
    }
    void
    advance(Cycle now) override
    {
        for (Clocked *c : members_)
            c->advance(now);
    }

  private:
    std::vector<Clocked *> members_;
};

enum class Stepping { ActiveSet, Dense };

/** One run's deterministic artifacts, serialized as the harness
 *  writes them. */
struct Artifacts {
    std::string metrics;    ///< <label>.metrics.json
    std::string qor;        ///< <label>.qor.json
    std::string timeseries; ///< <label>.timeseries.csv (sampling on)
    std::string trace;      ///< <label>.trace.json
    std::uint64_t packets = 0;
};

/** Registers its traffic with the simulator and runs it to the end. */
using Drive = std::function<void(Simulator &, Network &)>;

Artifacts
run(const NocConfig &ncfg, Scheme scheme, Cycle sample_interval,
    Stepping stepping, const Drive &drive)
{
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    auto codec = CodecFactory::create(scheme, cc);
    Network net(ncfg, codec.get());
    Simulator sim;
    DenseStepper dense(net);
    if (stepping == Stepping::ActiveSet)
        net.attach(sim);
    else
        sim.add(&dense);

    telemetry::ErrorProfile qor;
    net.bindErrorProfile(&qor);
    // The directories switch collection on; nothing is written.
    telemetry::TelemetryOptions opts;
    opts.metrics_dir = ::testing::TempDir();
    opts.trace_dir = ::testing::TempDir();
    opts.sample_interval = sample_interval;
    telemetry::PointTelemetry pt(opts);
    net.bindTelemetry(pt);
    if (pt.sampler())
        sim.add(pt.sampler());

    drive(sim, net);
    EXPECT_TRUE(net.drained());

    net.collectTelemetry(*pt.metrics());
    pt.metrics()->counter("sim.elapsed_cycles").inc(sim.now());
    qor.exportTo(*pt.metrics(),
                 "qor." + telemetry::sanitize_component(to_string(scheme)));

    Artifacts a;
    std::ostringstream m, q, ts, tr;
    pt.metrics()->writeJson(m);
    qor.writeJson(q);
    if (pt.sampler())
        pt.sampler()->writeCsv(ts);
    pt.tracer()->writeJson(tr);
    a.metrics = m.str();
    a.qor = q.str();
    a.timeseries = ts.str();
    a.trace = tr.str();
    a.packets = net.stats().packets_delivered.value();
    return a;
}

void
expect_same_as_dense(const NocConfig &ncfg, Scheme scheme,
                     Cycle sample_interval, const Drive &drive)
{
    const Artifacts act =
        run(ncfg, scheme, sample_interval, Stepping::ActiveSet, drive);
    const Artifacts ref =
        run(ncfg, scheme, sample_interval, Stepping::Dense, drive);
    EXPECT_GT(act.packets, 0u);
    EXPECT_TRUE(act.metrics == ref.metrics) << "metrics.json differs";
    EXPECT_TRUE(act.qor == ref.qor) << "qor.json differs";
    EXPECT_TRUE(act.timeseries == ref.timeseries) << "time series differs";
    EXPECT_TRUE(act.trace == ref.trace) << "packet trace differs";
    EXPECT_EQ(act.timeseries.empty(), sample_interval == 0);
}

/** Open-loop synthetic traffic for @p cycles cycles, then a drain. */
Drive
synthetic(double rate, Cycle cycles, std::uint64_t seed)
{
    return [=](Simulator &sim, Network &net) {
        SyntheticConfig tc;
        tc.injection_rate = rate;
        tc.seed = seed;
        SyntheticDataProvider provider(DataType::Float32, 16, 0.9, 3.0, seed);
        SyntheticTraffic gen(net, tc, provider);
        sim.add(&gen);
        sim.run(cycles);
        gen.setEnabled(false);
        ASSERT_TRUE(sim.runUntil([&] { return net.drained(); }, 100000));
    };
}

/** The Table 1 network with a Baseline codec and no traffic, attached
 *  to a profiled simulator. */
struct ProfiledNetwork {
    NocConfig cfg;
    std::unique_ptr<CodecSystem> codec;
    std::unique_ptr<Network> net;
    Simulator sim;
    telemetry::PhaseProfiler prof;

    ProfiledNetwork()
    {
        CodecConfig cc;
        cc.n_nodes = cfg.nodes();
        codec = CodecFactory::create(Scheme::Baseline, cc);
        net = std::make_unique<Network>(cfg, codec.get());
        net->attach(sim);
        sim.bindProfiler(&prof);
    }

    /** Evaluate plus advance calls recorded under @p phase so far. */
    std::uint64_t
    calls(const std::string &phase) const
    {
        for (const auto &p : prof.snapshot())
            if (p.name == phase)
                return p.calls;
        return 0;
    }
};

} // namespace

TEST(ActiveSet, TraceReplayMatchesDenseUnderEveryScheme)
{
    // The paper grid's point: a kernel trace on the 4x4 cmesh at 0.04
    // flits/cycle/node, where routers and NIs sleep most of the time.
    harness::TraceLibrary lib;
    const CommTrace &full = lib.get("blackscholes");
    CommTrace trace;
    for (const auto &b : full.blocks())
        trace.addBlock(b);
    for (std::size_t i = 0; i < 1500 && i < full.size(); ++i)
        trace.add(full.records()[i]);
    const NocConfig ncfg;
    const double scale =
        harness::TraceLibrary::naturalLoad(trace, ncfg.nodes()) / 0.04;

    for (Scheme scheme : {Scheme::Baseline, Scheme::DiComp, Scheme::DiVaxx,
                          Scheme::FpComp, Scheme::FpVaxx}) {
        SCOPED_TRACE(to_string(scheme));
        expect_same_as_dense(
            ncfg, scheme, 0, [&](Simulator &sim, Network &net) {
                TraceReplay replay(net, trace, scale, 0.75);
                sim.add(&replay);
                ASSERT_TRUE(sim.runUntil(
                    [&] { return replay.done() && net.drained(); },
                    10000000));
            });
    }
}

TEST(ActiveSet, SyntheticEightByEightMeshMatchesDense)
{
    // Near saturation: most routers hold flits and block on credits.
    NocConfig ncfg;
    ncfg.rows = 8;
    ncfg.cols = 8;
    expect_same_as_dense(ncfg, Scheme::DiVaxx, 0,
                         synthetic(0.15, 2000, 7));
}

TEST(ActiveSet, TorusDatelineVcsMatchDense)
{
    NocConfig ncfg;
    ncfg.topology = Topology::Torus;
    expect_same_as_dense(ncfg, Scheme::DiComp, 0,
                         synthetic(0.2, 2000, 11));
}

TEST(ActiveSet, WestFirstRoutingMatchesDense)
{
    // West-first picks among route candidates by downstream credits,
    // so route choice reads state that sleeping routers leave alone.
    NocConfig ncfg;
    ncfg.routing = RoutingAlgo::WestFirst;
    expect_same_as_dense(ncfg, Scheme::FpVaxx, 0,
                         synthetic(0.25, 2000, 13));
}

TEST(ActiveSet, ClosedLoopWithSamplingMatchesDense)
{
    // Replies are enqueued from delivery callbacks inside a router's
    // advance, and the sampler reads the network every 250 cycles.
    const NocConfig ncfg;
    expect_same_as_dense(
        ncfg, Scheme::DiVaxx, 250, [](Simulator &sim, Network &net) {
            ClosedLoopConfig lc;
            lc.seed = 17;
            SyntheticDataProvider provider(DataType::Float32, 16, 0.9, 3.0,
                                           17);
            ClosedLoopTraffic gen(net, lc, provider);
            sim.add(&gen);
            sim.run(3000);
            gen.setEnabled(false);
            ASSERT_TRUE(sim.runUntil(
                [&] { return net.drained() && gen.quiesced(); }, 100000));
        });
}

TEST(ActiveSet, IdleNetworkStepsNoRouterOrNiAfterItsFirstCycle)
{
    ProfiledNetwork n;
    n.sim.run(1000);
    // Registered components start in the set: one evaluate and one
    // advance each on cycle 0, where every router and NI finds itself
    // empty and leaves. The network is stepped every cycle.
    EXPECT_EQ(n.calls("sim.router"), 2u * n.cfg.routers());
    EXPECT_EQ(n.calls("sim.ni"), 2u * n.cfg.nodes());
    EXPECT_EQ(n.calls("sim.network"), 2u * 1000);
}

TEST(ActiveSet, OnePacketWakesOnlyWhatHoldsIt)
{
    ProfiledNetwork n;
    n.sim.run(10);
    const std::uint64_t router0 = n.calls("sim.router");
    const std::uint64_t ni0 = n.calls("sim.ni");

    // Corner to corner: XY routing crosses every column, then every
    // row, then ejects at the last router.
    PacketPtr p = n.net->makeControlPacket(0, n.cfg.nodes() - 1);
    n.net->inject(p, n.sim.now());
    ASSERT_TRUE(n.sim.runUntil([&] { return n.net->drained(); }, 1000));
    n.sim.run(100);
    EXPECT_EQ(p->ejected_flits, 1u);

    // The source NI is stepped on the one cycle it sends the flit. Each
    // router on the path is stepped from the cycle after the flit
    // arrives through the cycle it leaves: router_stages cycles.
    const unsigned path = (n.cfg.cols - 1) + (n.cfg.rows - 1) + 1;
    EXPECT_EQ(n.calls("sim.ni") - ni0, 2u);
    EXPECT_EQ(n.calls("sim.router") - router0,
              2u * path * n.cfg.router_stages);
}
