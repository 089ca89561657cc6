#include "harness/point_runner.h"

#include <optional>
#include <stdexcept>

#include "core/codec_factory.h"
#include "harness/experiment.h"
#include "harness/trace_library.h"
#include "noc/network.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "telemetry/error_profile.h"
#include "telemetry/phase_profiler.h"
#include "traffic/replay.h"

namespace approxnoc::harness {

ReplayResult
run_replay_point(const CommTrace &trace, const ExperimentPoint &pt,
                 const ExperimentConfig &cfg)
{
    NocConfig ncfg; // Table 1, at the point's flit width
    ncfg.flit_bits = pt.flit_bits;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = pt.threshold;
    cc.dict.pmt_entries = pt.pmt_entries;
    auto codec = CodecFactory::create(pt.scheme, cc);

    Network net(ncfg, codec.get());
    Simulator sim;
    net.attach(sim);

    // QoR error telemetry is always on: the error ledger walks every
    // delivered block anyway, and the figure executors need the
    // mean/worst-case relative error even without --metrics-out.
    // The debug limit arms the ErrorProfile assertion: no recorded
    // relative error may exceed the configured threshold by more than
    // the codec overshoot slack (WindowVaxx's per-word budget cap and
    // the TCAM don't-care rounding both legitimately land above e%).
    auto qor = std::make_shared<telemetry::ErrorProfile>();
    if (pt.threshold > 0)
        qor->setDebugLimit(pt.threshold / 100.0 *
                           telemetry::ErrorProfile::kDebugSlack);
    net.bindErrorProfile(qor.get());

    std::shared_ptr<telemetry::PhaseProfiler> prof;
    if (cfg.profile) {
        prof = std::make_shared<telemetry::PhaseProfiler>();
        sim.bindProfiler(prof.get());
        net.bindProfiler(prof.get());
    }

    // Telemetry bundle, owned by this point alone (lock-free). Its
    // artifact identity derives from the spec coordinates, never from
    // which worker ran the point, so --jobs=N runs produce identical
    // file sets. The sampler joins the simulator after the network
    // components so each row reads the committed state of its cycle.
    telemetry::TelemetryOptions topt;
    topt.metrics_dir = cfg.metrics_dir;
    topt.trace_dir = cfg.trace_dir;
    topt.sample_interval = cfg.sample_interval;
    topt.label = telemetry::PointTelemetry::pointLabel(
        pt.index, pt.benchmark, to_string(pt.scheme));
    topt.pid = static_cast<std::uint32_t>(pt.index);
    std::optional<telemetry::PointTelemetry> ptel;
    if (topt.enabled()) {
        ptel.emplace(topt);
        net.bindTelemetry(*ptel);
        if (ptel->tracer())
            ptel->tracer()->setProcessName(topt.label);
        if (ptel->sampler())
            sim.add(ptel->sampler());
    }

    // Replay at most the first max_records records, for bounded
    // runtime, and normalize the offered load of that portion.
    double natural =
        TraceLibrary::naturalLoad(trace, ncfg.nodes(), cfg.max_records);
    double time_scale =
        natural > 0 && pt.load > 0 ? natural / pt.load : 1.0;

    TraceReplay replay(net, trace, time_scale, pt.approx_ratio,
                       cfg.max_records);
    sim.add(&replay);

    bool done = sim.runUntil(
        [&] { return replay.done() && net.drained(); },
        static_cast<Cycle>(2e8));
    if (!done)
        // Thrown (not panicked) so a parallel sweep reports this point
        // as a failed cell and keeps going.
        throw std::runtime_error("replay failed to drain within bound");

    const NetworkStats &s = net.stats();
    ReplayResult r;
    r.queue_lat = s.queue_lat.mean();
    r.net_lat = s.net_lat.mean();
    r.decode_lat = s.decode_lat.mean();
    r.total_lat = s.total_lat.mean();
    r.quality = s.quality.dataQuality();
    r.exact_fraction = s.quality.exactEncodedFraction();
    r.approx_fraction = s.quality.approxEncodedFraction();
    r.compression_ratio = s.quality.compressionRatio();
    r.data_flits = net.dataFlitsInjected();
    r.packets = s.packets_delivered.value();
    r.elapsed = sim.now();
    PowerModel pm;
    r.dynamic_power_mw = pm.dynamicPowerMw(net, sim.now());

    if (ptel) {
        if (telemetry::Sampler *smp = ptel->sampler()) {
            // Final snapshot, unless the last epoch already landed on
            // the end cycle.
            if (smp->sampleCycles().empty() ||
                smp->sampleCycles().back() != sim.now())
                smp->sample(sim.now());
        }
        net.collectTelemetry(*ptel->metrics());
        ptel->metrics()->counter("sim.elapsed_cycles").inc(sim.now());
        qor->exportTo(*ptel->metrics(),
                      "qor." + telemetry::sanitize_component(
                                   to_string(pt.scheme)));
        ptel->write();
        r.metrics = ptel->metrics();
        if (topt.metricsEnabled()) {
            telemetry::write_json_artifact(
                topt.metrics_dir, topt.label + ".qor.json",
                [&](std::ostream &os) { qor->writeJson(os); });
            if (prof)
                telemetry::write_json_artifact(
                    topt.metrics_dir, topt.label + ".profile.json",
                    [&](std::ostream &os) { prof->writeJson(os); });
        }
    }
    r.qor = qor;
    r.profile = prof;
    return r;
}

} // namespace approxnoc::harness
