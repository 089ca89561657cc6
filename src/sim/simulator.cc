#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/log.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

namespace {

constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

/** Call @p f on the index of each set bit of @p bits, in ascending
 *  order. */
template <typename F>
void
for_each_bit(const std::vector<std::uint64_t> &bits, F &&f)
{
    for (std::size_t w = 0; w < bits.size(); ++w)
        for (std::uint64_t b = bits[w]; b; b &= b - 1)
            f(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
}

} // namespace

void
Simulator::add(Clocked *c)
{
    ANOC_ASSERT(c->active_ == nullptr, "component ", c->name(),
                " is already registered with a simulator");
    const std::size_t slot = components_.size();
    components_.push_back(c);
    // Explicit cache maintenance instead of the old lazy size-check:
    // the new component starts unclassified while every existing
    // classification survives, so registering mid-run can never
    // silently re-derive (and reshuffle) the phase table.
    phase_of_.push_back(kNoPhase);
    if (slot % 64 == 0) {
        next_.push_back(0);
        cur_.push_back(0);
    }
    c->active_ = &next_;
    c->slot_ = slot;
    c->wake();
}

void
Simulator::step()
{
    cur_ = next_;
    if (profiler_) {
        profiledSweep(/*advance=*/false);
        profiledSweep(/*advance=*/true);
    } else {
        for_each_bit(cur_, [this](std::size_t i) {
            components_[i]->evaluate(now_);
        });
        for_each_bit(cur_, [this](std::size_t i) {
            components_[i]->advance(now_);
        });
    }
    ++now_;
}

void
Simulator::bindProfiler(telemetry::PhaseProfiler *profiler)
{
    profiler_ = profiler;
    phase_of_.assign(components_.size(), kNoPhase);
    if (profiler_) {
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
    // Time contiguous same-phase runs of the active set, not
    // individual components: the network registers its routers and NIs
    // in blocks, so one cycle costs a handful of clock reads instead of
    // one per component. The read that closes a run opens the next.
    // anoc-lint: allow(D1) -- profiled-sweep wall clock; feeds only the profile artifact, outside the byte-identical contract
    using clock = std::chrono::steady_clock;
    std::size_t ph = kNoPhase; // phase of the open run
    std::uint64_t calls = 0;   // components stepped in the open run
    clock::time_point t0;
    auto close_run = [&](clock::time_point t) {
        if (calls > 0)
            profiler_->add(ph,
                           static_cast<std::uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(t - t0)
                                   .count()),
                           calls);
        calls = 0;
        t0 = t;
    };
    for_each_bit(cur_, [&](std::size_t i) {
        const std::size_t p = phaseOf(i);
        if (p != ph) {
            close_run(clock::now());
            ph = p;
        }
        if (advance)
            components_[i]->advance(now_);
        else
            components_[i]->evaluate(now_);
        ++calls;
    });
    close_run(clock::now());
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
