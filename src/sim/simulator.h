/**
 * @file
 * The cycle-driven simulation loop: fires due events, then runs the
 * two-phase (evaluate/advance) update over all registered components.
 */
#ifndef APPROXNOC_SIM_SIMULATOR_H
#define APPROXNOC_SIM_SIMULATOR_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/clocked.h"
#include "sim/event_queue.h"

namespace approxnoc {

namespace telemetry {
class PhaseProfiler;
} // namespace telemetry

/**
 * Owns simulated time. Components are registered by raw pointer; the
 * caller keeps ownership (components typically live inside a Network
 * or testbench object that outlives the Simulator loop).
 */
class Simulator
{
  public:
    /** Register a component to be stepped every cycle. */
    void add(Clocked *c);

    /** The shared event queue (delayed callbacks). */
    EventQueue &events() { return events_; }

    Cycle now() const { return now_; }

    /** Run exactly @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Run until @p done returns true or @p max_cycles elapse.
     * @return true when @p done fired, false on cycle-limit timeout.
     *
     * @p check_interval throttles the (potentially expensive) @p done
     * predicate: it is evaluated before every burst of that many
     * cycles rather than every cycle, so completion can overshoot by
     * up to `check_interval - 1` cycles of extra simulation — never
     * past @p max_cycles. 1 (the default) checks every cycle.
     */
    bool runUntil(const std::function<bool()> &done, Cycle max_cycles,
                  Cycle check_interval = 1);

    /** Advance a single cycle. */
    void step();

    /**
     * Attach a self-profiler. Subsequent cycles are stepped through a
     * phase-timed path: the event queue and each contiguous run of
     * same-kind components (routers, NIs, the network, the sampler)
     * are timed under `sim.*` phases. Components are classified once,
     * lazily, by their Clocked name prefix. Null (the default)
     * restores the untimed fast path — `step()` pays one pointer test.
     */
    void bindProfiler(telemetry::PhaseProfiler *profiler);

  private:
    /** One profiled cycle (profiler_ non-null). */
    void stepProfiled();
    /** One timed evaluate-or-advance sweep over every component. */
    void profiledSweep(bool advance);
    /** Phase id for component @p i, classified on first use. */
    std::size_t phaseOf(std::size_t i);

    Cycle now_ = 0;
    std::vector<Clocked *> components_;
    EventQueue events_;
    telemetry::PhaseProfiler *profiler_ = nullptr;
    std::size_t ph_event_queue_ = 0;
    std::size_t ph_other_ = 0;
    /** Cached phase per component index; kNoPhase = not classified.
     *  Invariant: same length as components_ (add() appends a
     *  kNoPhase slot, so registration never reclassifies the rest). */
    std::vector<std::size_t> phase_of_;
};

} // namespace approxnoc

#endif // APPROXNOC_SIM_SIMULATOR_H
