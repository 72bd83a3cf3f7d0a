/**
 * @file
 * Tests of the fluid resource-sharing network: solo rates, fair
 * sharing, water-filling (work conservation), accounting, and the
 * NIC-vs-core HBM contention scenario the TPU model depends on.
 */
#include <gtest/gtest.h>

#include "sim/fluid.hpp"
#include "sim/simulator.hpp"

namespace meshslice {
namespace {

class FluidTest : public ::testing::Test
{
  protected:
    Simulator sim;
    FluidNetwork net{sim};
};

TEST_F(FluidTest, SoloFlowRunsAtCapacity)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end = -1.0;
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end = sim.now(); });
    sim.run();
    EXPECT_NEAR(end, 10.0, 1e-9);
}

TEST_F(FluidTest, DemandCoefficientScalesRate)
{
    ResourceId r = net.addResource("hbm", 100.0);
    Time end = -1.0;
    // 2 units of resource per flow unit -> rate 50 -> 1000/50 = 20s.
    net.startFlow(1000.0, {{r, 2.0}}, [&] { end = sim.now(); });
    sim.run();
    EXPECT_NEAR(end, 20.0, 1e-9);
}

TEST_F(FluidTest, TwoEqualFlowsShareFairly)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end1 = -1.0, end2 = -1.0;
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end1 = sim.now(); });
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end2 = sim.now(); });
    sim.run();
    EXPECT_NEAR(end1, 20.0, 1e-9);
    EXPECT_NEAR(end2, 20.0, 1e-9);
}

TEST_F(FluidTest, FinishedFlowReleasesBandwidth)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end_small = -1.0, end_big = -1.0;
    net.startFlow(500.0, {{r, 1.0}}, [&] { end_small = sim.now(); });
    net.startFlow(1500.0, {{r, 1.0}}, [&] { end_big = sim.now(); });
    sim.run();
    // Shared at 50 each until t=10 (small done); big then runs at 100:
    // remaining 1000 -> done at t=20.
    EXPECT_NEAR(end_small, 10.0, 1e-9);
    EXPECT_NEAR(end_big, 20.0, 1e-9);
}

TEST_F(FluidTest, WaterFillingIsWorkConserving)
{
    // A small flow capped elsewhere must not strand shared capacity.
    ResourceId link = net.addResource("link", 10.0);
    ResourceId hbm = net.addResource("hbm", 100.0);
    Time end_link = -1.0, end_heavy = -1.0;
    // Flow A: limited by its link to rate 10, also uses hbm.
    net.startFlow(100.0, {{link, 1.0}, {hbm, 1.0}},
                  [&] { end_link = sim.now(); });
    // Flow B: only hbm; should get the remaining 90, not a "fair" 50.
    net.startFlow(900.0, {{hbm, 1.0}}, [&] { end_heavy = sim.now(); });
    sim.run();
    EXPECT_NEAR(end_link, 10.0, 1e-9);
    EXPECT_NEAR(end_heavy, 10.0, 1e-9);
}

TEST_F(FluidTest, OversubscribedResourceSplitsEvenly)
{
    ResourceId hbm = net.addResource("hbm", 100.0);
    int done = 0;
    for (int i = 0; i < 4; ++i)
        net.startFlow(250.0, {{hbm, 1.0}}, [&] { ++done; });
    sim.run();
    EXPECT_EQ(done, 4);
    // 4 flows at 25 each -> all finish at t=10.
    EXPECT_NEAR(sim.now(), 10.0, 1e-9);
}

TEST_F(FluidTest, MultiResourceBottleneckIsTheMinimum)
{
    ResourceId a = net.addResource("a", 100.0);
    ResourceId b = net.addResource("b", 30.0);
    Time end = -1.0;
    net.startFlow(300.0, {{a, 1.0}, {b, 1.0}}, [&] { end = sim.now(); });
    sim.run();
    EXPECT_NEAR(end, 10.0, 1e-9);
}

TEST_F(FluidTest, NicComputeHbmContentionScenario)
{
    // TPU-like: links 45, HBM 1200. Two NIC transfers (45 each) plus a
    // compute stream demanding 1500 B/flop-units must squeeze into the
    // leftover 1110.
    ResourceId l1 = net.addResource("l1", 45.0);
    ResourceId l2 = net.addResource("l2", 45.0);
    ResourceId hbm = net.addResource("hbm", 1200.0);
    Time end1 = -1, end2 = -1, endc = -1;
    net.startFlow(45.0, {{l1, 1.0}, {hbm, 1.0}}, [&] { end1 = sim.now(); });
    net.startFlow(45.0, {{l2, 1.0}, {hbm, 1.0}}, [&] { end2 = sim.now(); });
    // Compute flow: wants hbm at 1500/s (solo would be capped at 1200).
    net.startFlow(1110.0, {{hbm, 1.0}}, [&] { endc = sim.now(); });
    sim.run();
    EXPECT_NEAR(end1, 1.0, 1e-9);
    EXPECT_NEAR(end2, 1.0, 1e-9);
    // Compute gets 1200 - 90 = 1110 while transfers are active.
    EXPECT_NEAR(endc, 1.0, 1e-6);
}

TEST_F(FluidTest, ZeroSizeFlowCompletesImmediately)
{
    net.addResource("r", 1.0);
    bool fired = false;
    net.startFlow(0.0, {}, [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST_F(FluidTest, ResourceAccountingTracksConsumption)
{
    ResourceId r = net.addResource("link", 100.0);
    net.startFlow(1000.0, {{r, 1.0}}, [] {});
    sim.run();
    ResourceStats stats = net.resourceStats(r);
    EXPECT_NEAR(stats.totalConsumed, 1000.0, 1e-6);
    EXPECT_NEAR(stats.busyTime, 10.0, 1e-6);
    EXPECT_EQ(stats.activeFlows, 0);
}

TEST_F(FluidTest, ChainedFlowsAdvanceTime)
{
    ResourceId r = net.addResource("link", 10.0);
    Time end = -1.0;
    net.startFlow(100.0, {{r, 1.0}}, [&] {
        net.startFlow(50.0, {{r, 1.0}}, [&] { end = sim.now(); });
    });
    sim.run();
    EXPECT_NEAR(end, 15.0, 1e-9);
}

TEST_F(FluidTest, RatesRecomputeOnArrival)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end_first = -1.0;
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end_first = sim.now(); });
    // At t=5, a second flow arrives; first has 500 left, now at rate 50
    // -> finishes at t = 5 + 10 = 15.
    sim.schedule(5.0, [&] { net.startFlow(5000.0, {{r, 1.0}}, [] {}); });
    sim.run();
    EXPECT_NEAR(end_first, 15.0, 1e-9);
}

/**
 * Two resources tie exactly at load/capacity 2 and the waterfill order
 * changes the answer, so the pick must break the tie by lowest id.
 *   a (cap 4): x1, x2 (each held to 2 by its own cap-2 limiter), y
 *   b (cap 4): y, z
 * a first cuts x1, x2, y to 4/3; b then gives z the rest, 4 - 4/3.
 * b first would cut y and z to 2; a then cuts x1, x2, y to 4/3 and
 * z keeps 2.
 */
void
expectLowestIdBreaksTie(bool a_has_lower_id)
{
    Simulator sim;
    FluidNetwork net{sim};
    const ResourceId first = net.addResource("first", 4.0);
    const ResourceId second = net.addResource("second", 4.0);
    const ResourceId a = a_has_lower_id ? first : second;
    const ResourceId b = a_has_lower_id ? second : first;
    const ResourceId lim1 = net.addResource("lim1", 2.0);
    const ResourceId lim2 = net.addResource("lim2", 2.0);
    const FlowId x1 = net.startFlow(1e9, {{a, 1.0}, {lim1, 1.0}}, [] {});
    const FlowId x2 = net.startFlow(1e9, {{a, 1.0}, {lim2, 1.0}}, [] {});
    const FlowId y = net.startFlow(1e9, {{a, 1.0}, {b, 1.0}}, [] {});
    const FlowId z = net.startFlow(1e9, {{b, 1.0}}, [] {});
    sim.runUntil(0.0);
    EXPECT_EQ(net.waterfillCounters().picks, 2u);
    EXPECT_EQ(net.flowRate(x1), 4.0 / 3.0);
    EXPECT_EQ(net.flowRate(x2), 4.0 / 3.0);
    EXPECT_EQ(net.flowRate(y), 4.0 / 3.0);
    if (a_has_lower_id)
        EXPECT_EQ(net.flowRate(z), 4.0 - 4.0 / 3.0);
    else
        EXPECT_EQ(net.flowRate(z), 2.0);
}

TEST(FluidTieBreak, EqualOversubscriptionPicksLowestIdFirst)
{
    expectLowestIdBreaksTie(true);
    expectLowestIdBreaksTie(false);
}

TEST_F(FluidTest, WaterfillCountersCountWork)
{
    // One oversubscribed resource: two members summed at seeding, one
    // pick; the cut flows touch no other oversubscribed member.
    ResourceId hbm = net.addResource("hbm", 100.0);
    ResourceId link = net.addResource("link", 1000.0);
    net.startFlow(1000.0, {{hbm, 1.0}, {link, 1.0}}, [] {});
    net.startFlow(1000.0, {{hbm, 1.0}}, [] {});
    sim.runUntil(0.0);
    const auto &wf = net.waterfillCounters();
    EXPECT_EQ(wf.recomputes, 1u);
    EXPECT_EQ(wf.members, 2u);
    EXPECT_EQ(wf.picks, 1u);
    EXPECT_EQ(wf.memberSums, 2u);
}

} // namespace
} // namespace meshslice
