/** Simulation kernel tests: two-phase stepping and the active set. */
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "telemetry/phase_profiler.h"

using namespace approxnoc;

namespace {

/** Records the phase interleaving across two components. */
class PhaseProbe : public Clocked
{
  public:
    PhaseProbe(std::vector<std::string> &log, std::string tag)
        : Clocked("probe" + tag), log_(log), tag_(std::move(tag))
    {}
    void evaluate(Cycle) override { log_.push_back("e" + tag_); }
    void advance(Cycle) override { log_.push_back("a" + tag_); }

  private:
    std::vector<std::string> &log_;
    std::string tag_;
};

} // namespace

TEST(Simulator, TwoPhaseOrdering)
{
    Simulator sim;
    std::vector<std::string> log;
    PhaseProbe p1(log, "1"), p2(log, "2");
    sim.add(&p1);
    sim.add(&p2);
    sim.step();
    EXPECT_EQ(log, (std::vector<std::string>{"e1", "e2", "a1", "a2"}))
        << "all evaluates must precede all advances";
    EXPECT_EQ(sim.now(), 1u);
}

TEST(Simulator, RunCounts)
{
    Simulator sim;
    sim.run(100);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilPredicate)
{
    Simulator sim;
    bool ok = sim.runUntil([&] { return sim.now() >= 10; }, 1000);
    EXPECT_TRUE(ok);
    EXPECT_EQ(sim.now(), 10u);
    ok = sim.runUntil([] { return false; }, 5);
    EXPECT_FALSE(ok);
}

TEST(Simulator, RunUntilCheckIntervalBurstsAndOvershoots)
{
    // With check_interval=10 the predicate runs before each burst of
    // 10 cycles: done-at-5 is noticed at 10 (documented overshoot).
    Simulator sim;
    int checks = 0;
    bool ok = sim.runUntil(
        [&] {
            ++checks;
            return sim.now() >= 5;
        },
        1000, /*check_interval=*/10);
    EXPECT_TRUE(ok);
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(checks, 2);

    // The burst never runs past max_cycles.
    ok = sim.runUntil([] { return false; }, 15, /*check_interval=*/10);
    EXPECT_FALSE(ok);
    EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, ProfilerSurvivesLateRegistration)
{
    // Regression test: a lazily filled per-component phase cache once
    // indexed out of bounds for a component registered after the first
    // profiled step. That cache is gone: add() derives each
    // component's phase once, at registration.
    Simulator sim;
    telemetry::PhaseProfiler prof;
    std::vector<std::string> log;
    PhaseProbe p1(log, "1");
    sim.add(&p1);
    sim.bindProfiler(&prof);
    sim.step();

    PhaseProbe p2(log, "2");
    sim.add(&p2);
    sim.step();
    EXPECT_EQ(log, (std::vector<std::string>{"e1", "a1", "e1", "e2",
                                             "a1", "a2"}));
}

namespace {

/**
 * Logs each cycle it is evaluated at, then goes back to sleep: a
 * component that is stepped only when woken.
 */
class Sleeper : public Clocked
{
  public:
    Sleeper() : Clocked("sleeper") {}
    void evaluate(Cycle now) override { evaluated.push_back(now); }
    void advance(Cycle) override { sleep(); }

    std::vector<Cycle> evaluated;
};

/** Wakes @p target at cycle @p at, in the evaluate or advance phase. */
class Waker : public Clocked
{
  public:
    Waker(Clocked &target, Cycle at, bool in_advance)
        : Clocked("waker"), target_(target), at_(at), in_advance_(in_advance)
    {}
    void
    evaluate(Cycle now) override
    {
        if (now == at_ && !in_advance_)
            target_.wake();
    }
    void
    advance(Cycle now) override
    {
        if (now == at_ && in_advance_)
            target_.wake();
    }

  private:
    Clocked &target_;
    Cycle at_;
    bool in_advance_;
};

} // namespace

TEST(Simulator, SleepingComponentIsSkippedUntilWoken)
{
    Simulator sim;
    Sleeper s;
    sim.add(&s); // registered components start in the active set
    sim.run(10);
    EXPECT_EQ(s.evaluated, (std::vector<Cycle>{0}));

    s.wake(); // between cycles: stepped by the next step()
    sim.run(10);
    EXPECT_EQ(s.evaluated, (std::vector<Cycle>{0, 10}));
}

TEST(Simulator, WakeDuringCycleTakesEffectNextCycle)
{
    // The set is fixed when a cycle begins. A component woken during
    // cycle 5 is first evaluated at 6, whichever phase woke it and
    // whether its waker was registered before or after it.
    for (bool waker_first : {true, false}) {
        for (bool in_advance : {false, true}) {
            Simulator sim;
            Sleeper s;
            Waker w(s, 5, in_advance);
            if (waker_first) {
                sim.add(&w);
                sim.add(&s);
            } else {
                sim.add(&s);
                sim.add(&w);
            }
            sim.run(10);
            EXPECT_EQ(s.evaluated, (std::vector<Cycle>{0, 6}))
                << "waker first " << waker_first << ", in advance "
                << in_advance;
        }
    }
}

TEST(Simulator, RegisteringWithTwoSimulatorsPanics)
{
    Simulator a, b;
    Sleeper s;
    a.add(&s);
    EXPECT_DEATH(b.add(&s), "already registered");
    EXPECT_DEATH(a.add(&s), "already registered");
}
