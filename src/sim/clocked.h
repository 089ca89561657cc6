/**
 * @file
 * Clocked: base class for components evaluated once per cycle by the
 * Simulator. NoC simulators conventionally use a two-phase update —
 * every component reads inputs (evaluate) before any component commits
 * outputs (advance) — which makes evaluation order-independent.
 */
#ifndef APPROXNOC_SIM_CLOCKED_H
#define APPROXNOC_SIM_CLOCKED_H

#include <string>

#include "common/types.h"

namespace approxnoc {

/** A component stepped by the Simulator each cycle. */
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

  private:
    std::string name_;
};

} // namespace approxnoc

#endif // APPROXNOC_SIM_CLOCKED_H
