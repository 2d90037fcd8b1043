/**
 * @file
 * Unit tests for the discrete-event simulation core: event queue
 * ordering and cancellation, virtual clock semantics, deterministic RNG,
 * and the sampling distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/distributions.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace reqobs::sim {
namespace {

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(now, 30);
}

TEST(EventQueueTest, TiesBreakInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelledEventsDoNotRun)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(id.pending());
    id.cancel();
    EXPECT_FALSE(id.pending());
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, NextTickSkipsCancelled)
{
    EventQueue q;
    EventId early = q.schedule(5, [] {});
    q.schedule(10, [] {});
    early.cancel();
    EXPECT_EQ(q.nextTick(), 10);
}

TEST(EventQueueTest, EmptyQueueReportsTickMax)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), kTickMax);
    Tick now = 0;
    EXPECT_FALSE(q.popAndRun(now));
}

TEST(EventQueueTest, EventsCanRescheduleThemselves)
{
    EventQueue q;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5)
            q.schedule(static_cast<Tick>(count * 10), tick);
    };
    q.schedule(0, tick);
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.executedCount(), 5u);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    Tick now = 0;
    q.popAndRun(now);
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

// ----------------------------------------------------- EventQueue re-arm

TEST(EventQueueRearmTest, RearmedEventRunsBeforeLaterSameTickSchedules)
{
    // A re-arm takes its sequence number at the call: an event scheduled
    // for the same tick earlier runs first, one scheduled after the
    // re-arm runs second.
    EventQueue q;
    std::vector<char> order;
    int runs = 0;
    q.schedule(10, [&] {
        order.push_back('A');
        if (++runs == 1) {
            q.rearmCurrent(20);
            q.schedule(20, [&] { order.push_back('B'); });
        }
    });
    q.schedule(20, [&] { order.push_back('C'); });
    Tick now = 0;
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_EQ(q.nextTick(), 20);
    EXPECT_EQ(q.size(), 3u);
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'A', 'B'}));
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kTickMax);
    EXPECT_EQ(q.slabSize(), 3u);
    EXPECT_EQ(q.executedCount(), 4u);
}

TEST(EventQueueRearmTest, RearmToNowRunsAfterEventsQueuedForNow)
{
    EventQueue q;
    std::vector<char> order;
    int runs = 0;
    q.schedule(10, [&] {
        order.push_back('A');
        if (++runs == 1)
            q.rearmCurrent(10);
    });
    q.schedule(10, [&] { order.push_back('B'); });
    q.schedule(10, [&] { order.push_back('C'); });
    Tick now = 0;
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_EQ(q.nextTick(), 10);
    EXPECT_EQ(q.size(), 3u);
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'A'}));
    EXPECT_EQ(now, 10);
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueRearmTest, RearmedThenCancelledNeverRunsAndFreesItsSlot)
{
    EventQueue q;
    int runs = 0;
    q.schedule(10, [&] {
        ++runs;
        EventId next = q.rearmCurrent(50);
        next.cancel();
        EXPECT_FALSE(next.pending());
    });
    Tick now = 0;
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kTickMax);
    EXPECT_TRUE(q.empty());

    // The slot went back to the free list: the next event reuses it.
    bool later = false;
    q.schedule(60, [&] { later = true; });
    EXPECT_EQ(q.slabSize(), 1u);
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(later);
    EXPECT_EQ(now, 60);
}

TEST(EventQueueRearmTest, CancelOfBuriedRearmedEventIsLazy)
{
    // A re-armed event cancelled by another event later on stays in the
    // heap until it reaches the top, like any cancelled entry.
    EventQueue q;
    int runs = 0;
    EventId rearmed;
    q.schedule(10, [&] {
        ++runs;
        rearmed = q.rearmCurrent(50);
    });
    q.schedule(20, [&] { rearmed.cancel(); });
    Tick now = 0;
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_TRUE(rearmed.pending());
    EXPECT_EQ(q.nextTick(), 20);
    EXPECT_EQ(q.size(), 2u);
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_FALSE(rearmed.pending());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), kTickMax);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.popAndRun(now));
    EXPECT_EQ(runs, 1);
}

TEST(EventQueueRearmTest, HandleToFiredIncarnationIsInertAfterRearm)
{
    EventQueue q;
    EventId first;
    EventId second;
    int runs = 0;
    first = q.schedule(10, [&] {
        if (++runs > 1)
            return;
        EXPECT_TRUE(first.running());
        EXPECT_FALSE(first.pending());
        second = q.rearmCurrent(30);
        EXPECT_FALSE(first.running());
        EXPECT_TRUE(second.running());
        EXPECT_TRUE(second.pending());
        first.cancel(); // names the fired incarnation: no effect
        EXPECT_TRUE(second.pending());
    });
    Tick now = 0;
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_FALSE(first.pending());
    EXPECT_FALSE(first.running());
    EXPECT_TRUE(second.pending());
    EXPECT_FALSE(second.running());
    EXPECT_EQ(q.nextTick(), 30);
    EXPECT_EQ(q.size(), 1u);
    first.cancel();
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(now, 30);
    EXPECT_FALSE(second.pending());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueRearmTest, PeriodicTimerKeepsOneSlot)
{
    Simulation sim;
    std::vector<Tick> fired;
    sim.schedule(5, [&] {
        fired.push_back(sim.now());
        if (fired.size() < 4)
            sim.rearmCurrent(10);
    });
    sim.run();
    EXPECT_EQ(fired, (std::vector<Tick>{5, 15, 25, 35}));
    EXPECT_EQ(sim.events().slabSize(), 1u);
    EXPECT_EQ(sim.executedEvents(), 4u);
}

TEST(EventQueueRearmDeathTest, RearmingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [&] { q.rearmCurrent(50); });
    Tick now = 0;
    EXPECT_DEATH(q.popAndRun(now), "past");
}

TEST(EventQueueRearmDeathTest, RearmOutsideACallbackPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.rearmCurrent(10), "no event is running");
}

// ------------------------------------------------------------ Simulation

TEST(SimulationTest, ClockFollowsEvents)
{
    Simulation sim;
    Tick seen = -1;
    sim.schedule(milliseconds(5), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, milliseconds(5));
    EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(SimulationTest, RunUntilStopsAtDeadline)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(10, [&] { ++ran; });
    sim.schedule(20, [&] { ++ran; });
    sim.schedule(30, [&] { ++ran; });
    sim.runUntil(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.run();
    EXPECT_EQ(ran, 3);
}

TEST(SimulationTest, RunUntilAdvancesClockWithoutEvents)
{
    Simulation sim;
    sim.runUntil(seconds(2));
    EXPECT_EQ(sim.now(), seconds(2));
}

TEST(SimulationTest, RunForIsRelative)
{
    Simulation sim;
    sim.runFor(100);
    sim.runFor(100);
    EXPECT_EQ(sim.now(), 200);
}

TEST(SimulationTest, StepExecutesOneEvent)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(1, [&] { ++ran; });
    sim.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 1);
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformIntStaysInRange)
{
    Rng rng(9);
    std::vector<int> hits(7, 0);
    for (int i = 0; i < 70000; ++i)
        ++hits[rng.uniformInt(7)];
    for (int h : hits)
        EXPECT_NEAR(h, 10000, 500);
}

TEST(RngTest, NormalHasUnitMoments)
{
    Rng rng(11);
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic)
{
    Rng parent1(5), parent2(5);
    Rng child1 = parent1.fork();
    Rng child2 = parent2.fork();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(child1.next(), child2.next());
    // Child and parent streams differ.
    Rng p(5);
    Rng c = p.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += p.next() == c.next();
    EXPECT_LT(same, 3);
}

// ---------------------------------------------------------- Distributions

struct DistCase
{
    const char *name;
    std::shared_ptr<const Distribution> dist;
    double tolerance; ///< relative tolerance on the sample mean
};

class DistributionMeanTest : public ::testing::TestWithParam<DistCase>
{};

TEST_P(DistributionMeanTest, SampleMeanMatchesAnalyticMean)
{
    const DistCase &c = GetParam();
    Rng rng(1234);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const Tick s = c.dist->sample(rng);
        ASSERT_GE(s, 0);
        sum += static_cast<double>(s);
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, c.dist->mean(),
                c.tolerance * std::max(1.0, c.dist->mean()));
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMeanTest,
    ::testing::Values(
        DistCase{"fixed", std::make_shared<FixedDist>(12345), 1e-9},
        DistCase{"exp", std::make_shared<ExponentialDist>(microseconds(50)),
                 0.02},
        DistCase{"lognormal",
                 std::make_shared<LogNormalDist>(milliseconds(2), 0.5), 0.02},
        DistCase{"uniform",
                 std::make_shared<UniformDist>(100, 300), 0.02},
        DistCase{"pareto",
                 std::make_shared<BoundedParetoDist>(1000, 1000000, 1.5),
                 0.05},
        DistCase{"mixture",
                 std::make_shared<MixtureDist>(
                     std::make_shared<FixedDist>(100),
                     std::make_shared<FixedDist>(1000), 0.25),
                 0.02}),
    [](const auto &info) { return info.param.name; });

TEST(DistributionTest, BoundedParetoRespectsBounds)
{
    BoundedParetoDist d(500, 5000, 2.0);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const Tick s = d.sample(rng);
        ASSERT_GE(s, 499); // floor truncation slack
        ASSERT_LE(s, 5000);
    }
}

TEST(DistributionTest, LogNormalSigmaZeroIsDegenerate)
{
    LogNormalDist d(1000, 0.0);
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(static_cast<double>(d.sample(rng)), 1000.0, 1.0);
}

TEST(DistributionTest, DescribeMentionsFamily)
{
    EXPECT_NE(ExponentialDist(1000).describe().find("exp"),
              std::string::npos);
    EXPECT_NE(LogNormalDist(1000, 0.3).describe().find("lognormal"),
              std::string::npos);
}

TEST(DistributionDeathTest, InvalidParametersAreFatal)
{
    EXPECT_DEATH(ExponentialDist(0), "positive");
    EXPECT_DEATH(BoundedParetoDist(100, 50, 2.0), "min");
    EXPECT_DEATH(UniformDist(10, 5), "lo");
}

// ------------------------------------------------------------------- time

TEST(TimeTest, UnitHelpers)
{
    EXPECT_EQ(microseconds(1), 1000);
    EXPECT_EQ(milliseconds(1), 1000000);
    EXPECT_EQ(seconds(1), 1000000000);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(3)), 3.0);
}

TEST(TimeTest, FormatPicksUnits)
{
    EXPECT_EQ(formatTicks(12), "12ns");
    EXPECT_EQ(formatTicks(microseconds(2)), "2.00us");
    EXPECT_EQ(formatTicks(milliseconds(3)), "3.00ms");
    EXPECT_EQ(formatTicks(seconds(4)), "4.000s");
}

} // namespace
} // namespace reqobs::sim
