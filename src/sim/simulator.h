/**
 * @file
 * The cycle-driven simulation loop: the two-phase (evaluate/advance)
 * update over the active set, the registered components that hold
 * work.
 */
#ifndef APPROXNOC_SIM_SIMULATOR_H
#define APPROXNOC_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/clocked.h"

namespace approxnoc {

namespace telemetry {
class PhaseProfiler;
} // namespace telemetry

/**
 * Owns simulated time. Components are registered by raw pointer; the
 * caller keeps ownership (components typically live inside a Network
 * or testbench object that outlives the Simulator loop).
 *
 * The active set follows Garnet2.0's wakeup discipline. It is a
 * bitmap over registration slots, fixed when a cycle begins and
 * walked in ascending slot order in both phases, so the components
 * that are stepped are stepped in registration order. Output equals
 * stepping every component every cycle as long as each sleep()
 * follows Clocked's rule and a component is woken only between
 * cycles, in the advance phase, or by a component registered after
 * it: a component that is asleep when a cycle begins is not
 * evaluated until the next one.
 */
class Simulator
{
  public:
    Simulator() = default;
    /** Registered components point into this object: it stays put. */
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Register a component, in the active set from the next cycle on.
     * Panics if @p c is already registered, here or elsewhere.
     */
    void add(Clocked *c);

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
     * phase-timed path over the same active set: each contiguous run
     * of same-kind components stepped (routers, NIs, the network, the
     * sampler) is timed under a `sim.*` phase, with one call counted
     * per evaluate or advance. Components are classified once, lazily,
     * by their Clocked name prefix. Null (the default) restores the
     * untimed fast path — `step()` pays one pointer test.
     */
    void bindProfiler(telemetry::PhaseProfiler *profiler);

  private:
    /** One timed evaluate-or-advance sweep over this cycle's set. */
    void profiledSweep(bool advance);
    /** Phase id for component @p i, classified on first use. */
    std::size_t phaseOf(std::size_t i);

    Cycle now_ = 0;
    std::vector<Clocked *> components_;
    /** Bit i: components_[i] is stepped next cycle. Clocked::wake()
     *  and sleep() edit it. */
    std::vector<std::uint64_t> next_;
    /** This cycle's set: next_ as it stood when the cycle began. */
    std::vector<std::uint64_t> cur_;
    telemetry::PhaseProfiler *profiler_ = nullptr;
    std::size_t ph_other_ = 0;
    /** Cached phase per component index; kNoPhase = not classified.
     *  Invariant: same length as components_ (add() appends a
     *  kNoPhase slot, so registration never reclassifies the rest). */
    std::vector<std::size_t> phase_of_;
};

} // namespace approxnoc

#endif // APPROXNOC_SIM_SIMULATOR_H
