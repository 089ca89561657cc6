#include "sim/simulator.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

namespace {

constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

} // namespace

void
Simulator::add(Clocked *c)
{
    components_.push_back(c);
    // Explicit cache maintenance instead of the old lazy size-check:
    // the new component starts unclassified while every existing
    // classification survives, so registering mid-run can never
    // silently re-derive (and reshuffle) the phase table.
    phase_of_.push_back(kNoPhase);
}

void
Simulator::step()
{
    if (profiler_) {
        stepProfiled();
        return;
    }
    events_.runUntil(now_);
    for (Clocked *c : components_)
        c->evaluate(now_);
    for (Clocked *c : components_)
        c->advance(now_);
    ++now_;
}

void
Simulator::bindProfiler(telemetry::PhaseProfiler *profiler)
{
    profiler_ = profiler;
    phase_of_.assign(components_.size(), kNoPhase);
    if (profiler_) {
        ph_event_queue_ = profiler_->definePhase("sim.event_queue");
        ph_other_ = profiler_->definePhase("sim.other");
        // Pre-register the classification targets so phaseOf never
        // defines a phase mid-run (definePhase is setup-time only).
        profiler_->definePhase("sim.router");
        profiler_->definePhase("sim.ni");
        profiler_->definePhase("sim.network");
        profiler_->definePhase("sim.sampler");
    }
}

std::size_t
Simulator::phaseOf(std::size_t i)
{
    ANOC_ASSERT(phase_of_.size() == components_.size(),
                "phase cache out of sync with component registry");
    std::size_t &ph = phase_of_[i];
    if (ph == kNoPhase) {
        const std::string &n = components_[i]->name();
        if (n.rfind("router", 0) == 0)
            ph = profiler_->definePhase("sim.router");
        else if (n.rfind("ni", 0) == 0)
            ph = profiler_->definePhase("sim.ni");
        else if (n.rfind("network", 0) == 0)
            ph = profiler_->definePhase("sim.network");
        else if (n.rfind("sampler", 0) == 0)
            ph = profiler_->definePhase("sim.sampler");
        else
            ph = ph_other_;
    }
    return ph;
}

void
Simulator::profiledSweep(bool advance)
{
    // Time contiguous same-phase runs, not individual components: the
    // network registers its routers and NIs in blocks, so one cycle
    // costs a handful of clock reads instead of one per component.
    // anoc-lint: allow(D1) -- profiled-sweep wall clock; feeds only the profile artifact, outside the byte-identical contract
    using clock = std::chrono::steady_clock;
    const std::size_t end = components_.size();
    std::size_t i = 0;
    while (i < end) {
        const std::size_t ph = phaseOf(i);
        const auto t0 = clock::now();
        std::size_t j = i;
        while (j < end && phaseOf(j) == ph) {
            if (advance)
                components_[j]->advance(now_);
            else
                components_[j]->evaluate(now_);
            ++j;
        }
        const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - t0);
        profiler_->add(ph, static_cast<std::uint64_t>(dt.count()), j - i);
        i = j;
    }
}

void
Simulator::stepProfiled()
{
    {
        telemetry::PhaseProfiler::Scope s(profiler_, ph_event_queue_);
        events_.runUntil(now_);
    }
    profiledSweep(/*advance=*/false);
    profiledSweep(/*advance=*/true);
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
