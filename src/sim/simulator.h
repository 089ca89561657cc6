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
enum class Phase : std::uint8_t;
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
     * Its profile phase follows from its Clocked name prefix ("router",
     * "ni", "network", "sampler"; `sim.other` otherwise).
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
     * Attach a self-profiler: from the next cycle on, the clock runs in
     * each stepped component's `sim.*` phase and one call is counted
     * per evaluate or advance. Null (the default) restores the untimed
     * sweep — `step()` pays one pointer test.
     */
    void bindProfiler(telemetry::PhaseProfiler *profiler)
    {
        profiler_ = profiler;
    }

  private:
    /** One evaluate (or advance) pass over this cycle's set, in slot
     *  order; the profiled instantiation also switches phases. */
    template <bool Profiled, bool Advance> void sweep();

    Cycle now_ = 0;
    std::vector<Clocked *> components_;
    /** Bit i: components_[i] is stepped next cycle. Clocked::wake()
     *  and sleep() edit it. */
    std::vector<std::uint64_t> next_;
    /** This cycle's set: next_ as it stood when the cycle began. */
    std::vector<std::uint64_t> cur_;
    /** Profile phase of components_[i], set by add(). */
    std::vector<telemetry::Phase> phases_;
    telemetry::PhaseProfiler *profiler_ = nullptr;
};

} // namespace approxnoc

#endif // APPROXNOC_SIM_SIMULATOR_H
