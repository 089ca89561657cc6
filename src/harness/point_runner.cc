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
run_replay(const CommTrace &trace, const ReplayJob &job)
{
    NocConfig ncfg; // Table 1
    if (job.flit_bits)
        ncfg.flit_bits = job.flit_bits;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = job.threshold;
    if (job.pmt_entries)
        cc.dict.pmt_entries = job.pmt_entries;
    auto codec = CodecFactory::create(job.scheme, cc);

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
    if (job.threshold > 0)
        qor->setDebugLimit(job.threshold / 100.0 *
                           telemetry::ErrorProfile::kDebugSlack);
    net.bindErrorProfile(qor.get());

    std::shared_ptr<telemetry::PhaseProfiler> prof;
    if (job.profile) {
        prof = std::make_shared<telemetry::PhaseProfiler>();
        sim.bindProfiler(prof.get());
        net.bindProfiler(prof.get());
    }

    // Telemetry bundle, owned by this point alone (lock-free). The
    // sampler joins the simulator after the network components so each
    // row reads the committed state of its cycle.
    std::optional<telemetry::PointTelemetry> pt;
    if (job.telemetry.enabled()) {
        pt.emplace(job.telemetry);
        net.bindTelemetry(*pt);
        if (pt->tracer())
            pt->tracer()->setProcessName(job.telemetry.label);
        if (pt->sampler())
            sim.add(pt->sampler());
    }

    // Cap the replayed portion of the trace for bounded runtime.
    CommTrace capped;
    if (trace.size() > job.max_records) {
        // Rebuild the prefix (block indices are preserved by copying
        // the pool wholesale).
        for (const auto &b : trace.blocks())
            capped.addBlock(b);
        for (std::size_t i = 0; i < job.max_records; ++i)
            capped.add(trace.records()[i]);
    }
    const CommTrace &use = trace.size() > job.max_records ? capped : trace;

    // Normalize the offered load of the *replayed* portion.
    double natural = TraceLibrary::naturalLoad(use, ncfg.nodes());
    double time_scale =
        natural > 0 && job.load > 0 ? natural / job.load : 1.0;

    TraceReplay replay(net, use, time_scale, job.approx_ratio);
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

    if (pt) {
        if (telemetry::Sampler *smp = pt->sampler()) {
            // Final snapshot, unless the last epoch already landed on
            // the end cycle.
            if (smp->sampleCycles().empty() ||
                smp->sampleCycles().back() != sim.now())
                smp->sample(sim.now());
        }
        net.collectTelemetry(*pt->metrics());
        pt->metrics()->counter("sim.elapsed_cycles").inc(sim.now());
        qor->exportTo(*pt->metrics(),
                      "qor." + telemetry::sanitize_component(
                                   to_string(job.scheme)));
        pt->write();
        r.metrics = pt->metrics();
        if (job.telemetry.metricsEnabled()) {
            telemetry::write_json_artifact(
                job.telemetry.metrics_dir, job.telemetry.label + ".qor.json",
                [&](std::ostream &os) { qor->writeJson(os); });
            if (prof)
                telemetry::write_json_artifact(
                    job.telemetry.metrics_dir,
                    job.telemetry.label + ".profile.json",
                    [&](std::ostream &os) { prof->writeJson(os); });
        }
    }
    r.qor = qor;
    r.profile = prof;
    return r;
}

ReplayResult
run_replay_point(const CommTrace &trace, const ExperimentPoint &pt,
                 const ExperimentConfig &cfg)
{
    ReplayJob job;
    job.scheme = pt.scheme;
    job.threshold = pt.threshold;
    job.approx_ratio = pt.approx_ratio;
    job.load = pt.load;
    job.max_records = cfg.max_records;
    job.seed = pt.seed;
    job.profile = cfg.profile;

    // Per-point artifact identity derives from the spec coordinates,
    // never from which worker ran the point, so --jobs=N runs produce
    // identical file sets.
    job.telemetry.metrics_dir = cfg.metrics_dir;
    job.telemetry.trace_dir = cfg.trace_dir;
    job.telemetry.sample_interval = cfg.sample_interval;
    job.telemetry.label = telemetry::PointTelemetry::pointLabel(
        pt.index, pt.benchmark, to_string(pt.scheme));
    job.telemetry.pid = static_cast<std::uint32_t>(pt.index);
    return run_replay(trace, job);
}

} // namespace approxnoc::harness
