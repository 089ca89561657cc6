#include "sim/simulator.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

namespace {

/** The `sim.*` phase of a component named @p name. */
telemetry::Phase
phase_of(const std::string &name)
{
    using telemetry::Phase;
    if (name.starts_with("router"))
        return Phase::SimRouter;
    if (name.starts_with("ni"))
        return Phase::SimNi;
    if (name.starts_with("network"))
        return Phase::SimNetwork;
    if (name.starts_with("sampler"))
        return Phase::SimSampler;
    return Phase::SimOther;
}

} // namespace

void
Simulator::add(Clocked *c)
{
    ANOC_ASSERT(c->active_ == nullptr, "component ", c->name(),
                " is already registered with a simulator");
    const std::size_t slot = components_.size();
    components_.push_back(c);
    phases_.push_back(phase_of(c->name()));
    if (slot % 64 == 0) {
        next_.push_back(0);
        cur_.push_back(0);
    }
    c->active_ = &next_;
    c->slot_ = slot;
    c->wake();
}

template <bool Profiled, bool Advance>
void
Simulator::sweep()
{
    for (std::size_t w = 0; w < cur_.size(); ++w)
        for (std::uint64_t b = cur_[w]; b; b &= b - 1) {
            const std::size_t i =
                w * 64 + static_cast<std::size_t>(std::countr_zero(b));
            if constexpr (Profiled) {
                profiler_->enter(phases_[i]);
                profiler_->count(phases_[i]);
            }
            if constexpr (Advance)
                components_[i]->advance(now_);
            else
                components_[i]->evaluate(now_);
        }
    if constexpr (Profiled)
        profiler_->stop();
}

void
Simulator::step()
{
    cur_ = next_;
    if (profiler_) {
        sweep<true, false>();
        sweep<true, true>();
    } else {
        sweep<false, false>();
        sweep<false, true>();
    }
    ++now_;
}

void
Simulator::run(Cycle cycles)
{
    Cycle end = now_ + cycles;
    while (now_ < end)
        step();
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles,
                    Cycle check_interval)
{
    if (check_interval < 1)
        check_interval = 1;
    Cycle end = now_ + max_cycles;
    while (now_ < end) {
        if (done())
            return true;
        Cycle burst = std::min(check_interval, end - now_);
        while (burst--)
            step();
    }
    return done();
}

} // namespace approxnoc
