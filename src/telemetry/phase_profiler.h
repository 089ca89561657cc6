/**
 * @file
 * Lightweight self-profiling for the simulator: named phases, scoped
 * steady-clock timers, plain per-phase sums. Header-only (no
 * dependencies beyond the standard library) so that `src/sim` — which
 * `approxnoc_telemetry` itself links against — can be instrumented
 * without creating a library cycle.
 *
 * Cost model: every instrumentation site holds a possibly-null
 * `PhaseProfiler *`. A `Scope` constructed from a null profiler is a
 * single branch and no clock read — the disabled overhead the perf
 * gate bounds at <1%. When enabled, a scope is two `steady_clock`
 * reads and two adds.
 *
 * A profiler belongs to one simulation and is used by one thread;
 * the harness gives every grid point its own and merges them by name
 * afterwards. Define every phase during setup (binding time), then
 * profile freely.
 *
 * Reported numbers are wall-clock and therefore inherently
 * non-deterministic; `profile.json` is a tuning artifact, explicitly
 * outside the byte-identical determinism contract that metrics and
 * `qor.json` honor.
 */
#ifndef APPROXNOC_TELEMETRY_PHASE_PROFILER_H
#define APPROXNOC_TELEMETRY_PHASE_PROFILER_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace approxnoc::telemetry {

/** Accumulates (ns, calls) per named phase; merge folds by name. */
class PhaseProfiler
{
  public:
    using PhaseId = std::size_t;

    /** Snapshot row for reporting. */
    struct Phase {
        std::string name;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    PhaseProfiler() = default;

    /** Register (or look up) a phase by name. Setup-time only. */
    PhaseId
    definePhase(const std::string &name)
    {
        auto it = by_name_.find(name);
        if (it != by_name_.end())
            return it->second;
        PhaseId id = names_.size();
        names_.push_back(name);
        cells_.emplace_back(); // deque: no reference invalidation
        by_name_.emplace(name, id);
        return id;
    }

    /** Record @p ns nanoseconds / @p calls invocations against @p id. */
    void
    add(PhaseId id, std::uint64_t ns, std::uint64_t calls = 1)
    {
        Cell &c = cells_[id];
        c.ns += ns;
        c.calls += calls;
    }

    /**
     * RAII phase timer. `Scope(nullptr, id)` is inert: the null check
     * is the only work, which is what keeps disabled profiling off the
     * hot-path cost profile.
     */
    class Scope
    {
      public:
        Scope(PhaseProfiler *p, PhaseId id) : p_(p), id_(id)
        {
            if (p_)
                // anoc-lint: allow(D1) -- the PhaseProfiler IS the sanctioned wall-clock boundary; its output never enters deterministic artifacts
                start_ = std::chrono::steady_clock::now();
        }

        ~Scope()
        {
            if (p_) {
                // anoc-lint: allow(D1) -- the PhaseProfiler IS the sanctioned wall-clock boundary; its output never enters deterministic artifacts
                auto end = std::chrono::steady_clock::now();
                p_->add(id_, static_cast<std::uint64_t>(
                                 std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(end - start_)
                                     .count()));
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        PhaseProfiler *p_;
        PhaseId id_;
        std::chrono::steady_clock::time_point start_; // anoc-lint: allow(D1) -- profiler-internal timestamp type, wall-clock boundary
    };

    /** Fold @p o into this profiler, matching phases by name. */
    void
    merge(const PhaseProfiler &o)
    {
        if (&o == this)
            return;
        for (PhaseId i = 0; i < o.names_.size(); ++i) {
            PhaseId id = definePhase(o.names_[i]);
            add(id, o.cells_[i].ns, o.cells_[i].calls);
        }
    }

    std::size_t phases() const { return names_.size(); }

    std::uint64_t
    totalNs() const
    {
        std::uint64_t t = 0;
        for (const Cell &c : cells_)
            t += c.ns;
        return t;
    }

    /** Rows sorted by name (deterministic key order for reports). */
    std::vector<Phase>
    snapshot() const
    {
        std::map<std::string, Phase> sorted;
        for (PhaseId i = 0; i < names_.size(); ++i)
            sorted[names_[i]] =
                Phase{names_[i], cells_[i].ns, cells_[i].calls};
        std::vector<Phase> out;
        out.reserve(sorted.size());
        for (auto &[name, ph] : sorted)
            out.push_back(ph);
        return out;
    }

    /**
     * JSON summary: per-phase ns/calls/avg plus the share of the
     * summed phase time. Keys sorted; values are timings and thus not
     * byte-stable across runs.
     */
    void
    writeJson(std::ostream &os) const
    {
        const std::vector<Phase> rows = snapshot();
        const std::uint64_t total = totalNs();
        os << "{\n  \"schema\": \"approxnoc-phase-profile-v1\",\n";
        os << "  \"total_ns\": " << total << ",\n  \"phases\": {";
        bool first = true;
        for (const Phase &ph : rows) {
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
        os << (rows.empty() ? "" : "\n  ") << "}\n}\n";
    }

  private:
    struct Cell {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    std::vector<std::string> names_;
    std::map<std::string, PhaseId> by_name_;
    std::deque<Cell> cells_;
};

} // namespace approxnoc::telemetry

#endif // APPROXNOC_TELEMETRY_PHASE_PROFILER_H
