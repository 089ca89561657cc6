#include "harness/point_runner.h"

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

RunInstruments::RunInstruments(Simulator &sim, Network &net,
                               double threshold_pct,
                               const telemetry::TelemetryOptions &topt,
                               bool profile)
    : sim_(sim), net_(net),
      qor_(std::make_shared<telemetry::ErrorProfile>())
{
    // QoR error telemetry is always on: the error ledger walks every
    // delivered block anyway, and the figure executors need the
    // mean/worst-case relative error even without --metrics-out.
    // The debug limit arms the ErrorProfile assertion: no recorded
    // relative error may exceed the configured threshold by more than
    // the codec overshoot slack (WindowVaxx's per-word budget cap and
    // the TCAM don't-care rounding both legitimately land above e%).
    if (threshold_pct > 0)
        qor_->setDebugLimit(threshold_pct / 100.0 *
                            telemetry::ErrorProfile::kDebugSlack);
    net_.bindErrorProfile(qor_.get());

    if (profile) {
        prof_ = std::make_shared<telemetry::PhaseProfiler>();
        sim_.bindProfiler(prof_.get());
        net_.bindProfiler(prof_.get());
    }

    if (topt.enabled()) {
        ptel_.emplace(topt);
        net_.bindTelemetry(*ptel_);
        if (ptel_->tracer())
            ptel_->tracer()->setProcessName(topt.label);
        if (ptel_->sampler())
            sim_.add(ptel_->sampler());
    }
}

void
RunInstruments::finish(const std::string &stem)
{
    if (!ptel_)
        return;
    const Cycle now = sim_.now();
    if (telemetry::Sampler *smp = ptel_->sampler()) {
        // Final snapshot, unless the last epoch already landed on the
        // end cycle.
        if (smp->sampleCycles().empty() || smp->sampleCycles().back() != now)
            smp->sample(now);
    }
    telemetry::MetricRegistry &reg = *ptel_->metrics();
    net_.collectTelemetry(reg);
    reg.counter("sim.elapsed_cycles").inc(now - net_.windowStart());
    const std::string scheme = to_string(net_.codec().scheme());
    qor_->exportTo(reg, "qor." + telemetry::sanitize_component(scheme));
    ptel_->write();

    const telemetry::TelemetryOptions &topt = ptel_->options();
    if (!topt.metricsEnabled())
        return;
    telemetry::write_json_artifact(
        topt.metrics_dir, stem + "qor.json",
        [&](std::ostream &os) { qor_->writeJson(os); });
    if (prof_)
        telemetry::write_json_artifact(
            topt.metrics_dir, stem + "profile.json",
            [&](std::ostream &os) { prof_->writeJson(os); });
}

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

    // Named by spec coordinates, never by the worker that runs the
    // point, so any --jobs writes the same files.
    telemetry::TelemetryOptions topt;
    topt.metrics_dir = cfg.metrics_dir;
    topt.trace_dir = cfg.trace_dir;
    topt.sample_interval = cfg.sample_interval;
    topt.label = telemetry::PointTelemetry::pointLabel(
        pt.index, pt.benchmark, to_string(pt.scheme));
    topt.pid = static_cast<std::uint32_t>(pt.index);
    RunInstruments inst(sim, net, pt.threshold, topt, cfg.profile);

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

    inst.finish(topt.label + ".");
    r.metrics = inst.metrics();
    r.qor = inst.qor();
    r.profile = inst.profile();
    return r;
}

} // namespace approxnoc::harness
