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

#include "common/types.h"
#include "telemetry/telemetry.h"
#include "traffic/trace.h"

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
 * Everything one replay run needs beyond the trace itself. The
 * zero-valued hardware knobs fall back to the Table 1 defaults.
 */
struct ReplayJob {
    Scheme scheme = Scheme::FpVaxx;
    double threshold = 10.0;     ///< error threshold e%
    double approx_ratio = 0.75;  ///< approximable packet fraction
    double load = 0.04;          ///< offered data flits/cycle/node
    std::size_t max_records = 20000;
    std::uint64_t seed = 0;      ///< per-point stream seed
    unsigned flit_bits = 0;      ///< 0 = NocConfig default (64)
    std::size_t pmt_entries = 0; ///< 0 = DictionaryConfig default (8)

    /** Telemetry collection; default-constructed = everything off. */
    telemetry::TelemetryOptions telemetry;

    /** Self-profiling: time the simulator/codec phases and (with
     * metrics enabled) write `<label>.profile.json`. */
    bool profile = false;
};

/**
 * Replay @p trace on the paper's 4x4 cmesh under @p job. Throws
 * std::runtime_error if the replay fails to drain (the runner reports
 * the point as a failed cell instead of aborting the sweep).
 */
ReplayResult run_replay(const CommTrace &trace, const ReplayJob &job);

/** Map a grid point onto a ReplayJob and run it. */
ReplayResult run_replay_point(const CommTrace &trace,
                              const ExperimentPoint &pt,
                              const ExperimentConfig &cfg);

} // namespace approxnoc::harness

#endif // APPROXNOC_HARNESS_POINT_RUNNER_H
