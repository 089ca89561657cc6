/**
 * @file
 * Clocked: base class for the components the Simulator steps. NoC
 * simulators conventionally use a two-phase update — every stepped
 * component reads inputs (evaluate) before any commits outputs
 * (advance) — which makes evaluation order-independent.
 *
 * A registered component is stepped every cycle until it calls
 * sleep(), and wake() brings it back. A component may sleep only
 * while the evaluate/advance calls it would miss change nothing, so
 * that skipping them leaves every output as dense stepping would.
 */
#ifndef APPROXNOC_SIM_CLOCKED_H
#define APPROXNOC_SIM_CLOCKED_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace approxnoc {

/** A component stepped by the Simulator while it is in the active set. */
class Clocked
{
  public:
    explicit Clocked(std::string name) : name_(std::move(name)) {}
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /**
     * Phase 1: read current inputs, compute internal decisions.
     * Must not mutate state observable by other components this cycle.
     */
    virtual void evaluate(Cycle now) = 0;

    /** Phase 2: commit outputs computed in evaluate(). */
    virtual void advance(Cycle now) = 0;

    const std::string &name() const { return name_; }

    /**
     * Join the active set from the next cycle on: a wake() during
     * cycle t first evaluates the component at t + 1, one between
     * cycles at the next step(). A no-op for a component no Simulator
     * has registered, which its owner steps directly.
     */
    void
    wake()
    {
        if (active_)
            (*active_)[slot_ / 64] |= std::uint64_t{1} << (slot_ % 64);
    }

  protected:
    /** Leave the active set after this cycle, until the next wake(). */
    void
    sleep()
    {
        if (active_)
            (*active_)[slot_ / 64] &= ~(std::uint64_t{1} << (slot_ % 64));
    }

  private:
    friend class Simulator;

    /** The registering Simulator's next-cycle set; null until then. */
    std::vector<std::uint64_t> *active_ = nullptr;
    std::size_t slot_ = 0; ///< this component's bit in *active_
    std::string name_;
};

} // namespace approxnoc

#endif // APPROXNOC_SIM_CLOCKED_H
