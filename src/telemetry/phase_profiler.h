/**
 * @file
 * Self-profiling for the simulator: one phase clock over the fixed
 * table of phases `profile.json` reports. Header-only (no dependencies
 * beyond the standard library) so that `src/sim` — which
 * `approxnoc_telemetry` itself links against — can be instrumented
 * without creating a library cycle.
 *
 * The clock runs in at most one phase at a time. Each switch reads it
 * once and charges the time since the previous switch to the phase it
 * leaves, so every phase holds self time: a `Scope` opened inside
 * another phase takes its time out of that phase and hands the clock
 * back when it closes. The phases add up to `totalNs()`, the profiled
 * time. While no phase runs (between simulator sweeps, in the harness
 * outside trace generation) the clock is stopped and nothing is
 * charged.
 *
 * Cost model: every instrumentation site holds a possibly-null
 * `PhaseProfiler *`. A `Scope` from a null profiler is one branch and
 * no clock read. When enabled, a scope is two clock reads, and the
 * simulator reads the clock once per change of phase in a sweep.
 *
 * A profiler belongs to one simulation and is used by one thread;
 * the harness gives every grid point its own and merges them
 * afterwards.
 *
 * Reported numbers are wall-clock and therefore inherently
 * non-deterministic; `profile.json` is a tuning artifact, explicitly
 * outside the byte-identical determinism contract that metrics and
 * `qor.json` honor.
 */
#ifndef APPROXNOC_TELEMETRY_PHASE_PROFILER_H
#define APPROXNOC_TELEMETRY_PHASE_PROFILER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace approxnoc::telemetry {

/** The profiled phases, in name (and report key) order. */
enum class Phase : std::uint8_t {
    CodecApplyPending, ///< dictionary deferred-update merge
    HarnessTraceGen,   ///< trace generation before a grid's replays
    NiDecode,          ///< codec decode at ejection
    NiEncode,          ///< codec encode at injection
    SimNetwork,        ///< the network's own step
    SimNi,             ///< NI steps
    SimOther,          ///< other components (traffic sources, ...)
    SimRouter,         ///< router steps
    SimSampler,        ///< time-series sampler
};

inline constexpr std::size_t kPhaseCount = 9;

/** `profile.json` key of each Phase, indexed by its value. */
inline constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "codec.apply_pending", "harness.trace_gen", "ni.decode",
    "ni.encode",           "sim.network",       "sim.ni",
    "sim.other",           "sim.router",        "sim.sampler"};

/** Accumulates (self ns, calls) per phase; merge adds phase by phase. */
class PhaseProfiler
{
  public:
    /** Snapshot row for reporting. */
    struct Row {
        std::string name;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    /**
     * Run the clock in @p p, charging the time since the last switch
     * to the phase it leaves. Entering the running phase does nothing.
     */
    void enter(Phase p) { switchTo(index(p)); }

    /** Charge the running phase and stop the clock. */
    void stop() { switchTo(kStopped); }

    /** Count one call of @p p. */
    void count(Phase p) { ++cells_[index(p)].calls; }

    /** Record @p ns nanoseconds and @p calls calls against @p p. */
    void
    add(Phase p, std::uint64_t ns, std::uint64_t calls = 1)
    {
        Cell &c = cells_[index(p)];
        c.ns += ns;
        c.calls += calls;
    }

    /**
     * Counts one call of its phase and runs the clock in it until it
     * closes, then returns the clock to the phase it found running.
     * `Scope(nullptr, p)` is inert: the null check is the only work,
     * which is what keeps disabled profiling off the hot-path cost
     * profile.
     */
    class Scope
    {
      public:
        Scope(PhaseProfiler *p, Phase ph) : p_(p)
        {
            if (p_) {
                outer_ = p_->running_;
                p_->enter(ph);
                p_->count(ph);
            }
        }

        ~Scope()
        {
            if (p_)
                p_->switchTo(outer_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        PhaseProfiler *p_;
        std::size_t outer_ = kStopped;
    };

    /** Fold @p o into this profiler, phase by phase. */
    void
    merge(const PhaseProfiler &o)
    {
        if (&o == this)
            return;
        for (std::size_t i = 0; i < kPhaseCount; ++i)
            add(static_cast<Phase>(i), o.cells_[i].ns, o.cells_[i].calls);
    }

    /** The profiled time: the sum of every phase's self time. */
    std::uint64_t
    totalNs() const
    {
        std::uint64_t t = 0;
        for (const Cell &c : cells_)
            t += c.ns;
        return t;
    }

    /** One row per phase, sorted by name. */
    std::vector<Row>
    snapshot() const
    {
        std::vector<Row> out;
        out.reserve(kPhaseCount);
        for (std::size_t i = 0; i < kPhaseCount; ++i)
            out.push_back(Row{std::string(kPhaseNames[i]), cells_[i].ns,
                              cells_[i].calls});
        return out;
    }

    /**
     * JSON summary: per-phase ns/calls/avg plus the share of the
     * profiled time. Keys sorted; values are timings and thus not
     * byte-stable across runs.
     */
    void
    writeJson(std::ostream &os) const
    {
        const std::vector<Row> rows = snapshot();
        const std::uint64_t total = totalNs();
        os << "{\n  \"schema\": \"approxnoc-phase-profile-v1\",\n";
        os << "  \"total_ns\": " << total << ",\n  \"phases\": {";
        bool first = true;
        for (const Row &ph : rows) {
            if (!first)
                os << ",";
            first = false;
            const double avg =
                ph.calls == 0
                    ? 0.0
                    : static_cast<double>(ph.ns) /
                          static_cast<double>(ph.calls);
            const double share =
                total == 0 ? 0.0
                           : static_cast<double>(ph.ns) /
                                 static_cast<double>(total);
            os << "\n    \"" << ph.name << "\": {\"ns\": " << ph.ns
               << ", \"calls\": " << ph.calls << ", \"avg_ns\": "
               << static_cast<std::uint64_t>(avg) << ", \"share\": ";
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.4f", share);
            os << buf << "}";
        }
        os << "\n  }\n}\n";
    }

  private:
    // anoc-lint: allow(D1) -- the PhaseProfiler IS the sanctioned wall-clock boundary; its output never enters deterministic artifacts
    using Clock = std::chrono::steady_clock;

    struct Cell {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    /** running_ while the clock is stopped. */
    static constexpr std::size_t kStopped = kPhaseCount;

    static constexpr std::size_t index(Phase p) { return std::size_t(p); }

    /** The one clock read: charge the running phase, run @p next. */
    void
    switchTo(std::size_t next)
    {
        if (next == running_)
            return;
        const Clock::time_point t = Clock::now();
        if (running_ != kStopped)
            cells_[running_].ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - since_)
                    .count());
        since_ = t;
        running_ = next;
    }

    std::array<Cell, kPhaseCount> cells_{};
    std::size_t running_ = kStopped;
    Clock::time_point since_{};
};

} // namespace approxnoc::telemetry

#endif // APPROXNOC_TELEMETRY_PHASE_PROFILER_H
