/**
 * @file
 * The standard experiment point executor: replay one benchmark trace
 * through a freshly built, fully isolated Simulator + Network +
 * CodecSystem triple and reduce the run to the scalar metrics the
 * paper figures plot. Every run is self-contained, so any number of
 * points can execute concurrently.
 */
#ifndef APPROXNOC_HARNESS_POINT_RUNNER_H
#define APPROXNOC_HARNESS_POINT_RUNNER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/types.h"
#include "telemetry/telemetry.h"
#include "traffic/trace.h"

namespace approxnoc {
class Network;
class Simulator;
} // namespace approxnoc

namespace approxnoc::telemetry {
class ErrorProfile;
class PhaseProfiler;
} // namespace approxnoc::telemetry

namespace approxnoc::harness {

struct ExperimentConfig;
struct ExperimentPoint;

/** Scalar metrics of one trace replay through the NoC. */
struct ReplayResult {
    double queue_lat = 0.0;
    double net_lat = 0.0;
    double decode_lat = 0.0;
    double total_lat = 0.0;
    double quality = 1.0;           ///< data value quality
    double exact_fraction = 0.0;    ///< Fig. 10a
    double approx_fraction = 0.0;   ///< Fig. 10a
    double compression_ratio = 1.0; ///< Fig. 10b
    std::uint64_t data_flits = 0;   ///< Fig. 11
    std::uint64_t packets = 0;
    double dynamic_power_mw = 0.0;  ///< Fig. 15
    Cycle elapsed = 0;

    /**
     * The point's hierarchical metrics, null unless the job ran with
     * telemetry. Shared (immutable once the point completes) so the
     * harness can fold per-point registries in spec order after the
     * sweep — byte-identical merged output at any --jobs.
     */
    std::shared_ptr<const telemetry::MetricRegistry> metrics;

    /**
     * The point's QoR error profile — always present: one signed
     * relative error per delivered word that differs from its precise
     * word, recorded by the error ledger (QualityTracker::record) at
     * delivery. Immutable once the point completes; the harness merges
     * the per-point profiles in spec order for the sweep-level
     * qor.json.
     */
    std::shared_ptr<const telemetry::ErrorProfile> qor;

    /** Phase timings, null unless the job ran with profile = true.
     * Wall-clock — outside the byte-identical determinism contract. */
    std::shared_ptr<const telemetry::PhaseProfiler> profile;
};

/**
 * One run's instruments, armed, bound and written in one place for
 * every grid point and every approxnoc_sim run. Borrows @p sim and
 * @p net, which must outlive it.
 */
class RunInstruments
{
  public:
    /**
     * Arm the error profile at @p threshold_pct x kDebugSlack and bind
     * it, bind a PhaseProfiler under @p profile, then bind the bundle
     * @p topt enables (its trace process named topt.label) and add its
     * sampler. The profile binds first so the sampler gets live `qor.*`
     * probes. Call after net.attach(sim) and before any traffic source
     * joins @p sim, so each sample row reads its cycle's committed state.
     */
    RunInstruments(Simulator &sim, Network &net, double threshold_pct,
                   const telemetry::TelemetryOptions &topt, bool profile);

    /**
     * With telemetry on: take the last time-series row, collect the
     * network's window (its counts, `sim.elapsed_cycles` since
     * Network::startWindow) and `qor.<scheme>.*`, and
     * write the bundle's `<label>.*` files plus `<stem>qor.json` and,
     * when profiling, `<stem>profile.json`. Grid points and --compare
     * lanes pass `<label>.`; a single approxnoc_sim run passes "".
     */
    void finish(const std::string &stem);

    /** Always present. */
    std::shared_ptr<const telemetry::ErrorProfile> qor() const { return qor_; }
    /** Null unless profiling. */
    std::shared_ptr<const telemetry::PhaseProfiler> profile() const
    {
        return prof_;
    }
    /** Null unless telemetry is on. */
    std::shared_ptr<const telemetry::MetricRegistry> metrics() const
    {
        return ptel_ ? ptel_->metrics() : nullptr;
    }

  private:
    Simulator &sim_;
    Network &net_;
    std::shared_ptr<telemetry::ErrorProfile> qor_;
    std::shared_ptr<telemetry::PhaseProfiler> prof_;
    std::optional<telemetry::PointTelemetry> ptel_;
};

/**
 * Replay @p trace on the paper's 4x4 cmesh at grid point @p pt: its
 * scheme, threshold, approximable ratio, load, flit width and PMT
 * size, with the replay cap, telemetry and profiling of @p cfg. Throws
 * std::runtime_error if the replay fails to drain (the runner reports
 * the point as a failed cell instead of aborting the sweep).
 */
ReplayResult run_replay_point(const CommTrace &trace,
                              const ExperimentPoint &pt,
                              const ExperimentConfig &cfg);

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_POINT_RUNNER_H
