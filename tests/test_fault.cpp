/**
 * @file
 * Tests of the fault/straggler injection subsystem: degraded-ring
 * collective costs against hand arithmetic, seeded bit-identical
 * replay, the empty-scenario identity, accounting conservation under
 * time-varying capacity, the stall watchdog, scenario JSON round-trip
 * plus malformed-input rejection, detour-ring structure, the robust
 * tuner objective, and the negative-path validation added with the
 * subsystem (spec shapes, chip configs, unmatched fault patterns).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/executor.hpp"
#include "core/fault_study.hpp"
#include "net/collectives.hpp"
#include "net/topology.hpp"
#include "sim/fault.hpp"
#include "tuner/robust.hpp"
#include "util/parallel.hpp"

namespace meshslice {
namespace {

/** Round numbers for hand-checkable cost arithmetic (matches
 *  test_collectives.cpp). */
ChipConfig
simpleConfig()
{
    ChipConfig cfg;
    cfg.iciLinkBandwidth = 100.0; // 100 B/s
    cfg.hbmBandwidth = 1e9;       // never the bottleneck here
    cfg.syncLatency = 1.0;        // 1 s
    cfg.launchOverhead = 10.0;    // 10 s
    cfg.bidirectionalIci = false;
    return cfg;
}

/** Ring fixture with an optional armed fault scenario. */
struct FaultedRing
{
    FaultedRing(const ChipConfig &cfg, int chips,
                const FaultScenario &scenario)
        : cluster(cfg, chips), net(cluster),
          injector(cluster.sim(), cluster.net(), scenario)
    {
        injector.arm();
        cluster.attachFaults(&injector);
    }

    CommStats
    run(std::function<void(CommDone)> op)
    {
        CommStats out;
        bool done = false;
        op([&](const CommStats &stats) {
            out = stats;
            done = true;
        });
        cluster.sim().run();
        EXPECT_TRUE(done);
        return out;
    }

    Cluster cluster;
    RingNetwork net;
    FaultInjector injector;
};

FaultScenario
linkDownScenario(const std::string &pattern, double factor = 0.0)
{
    FaultScenario s;
    s.faults.push_back(CapacityFault{pattern, factor, 0.0, -1.0});
    return s;
}

Gemm2DSpec
studySpec()
{
    Gemm2DSpec spec;
    spec.m = 4096;
    spec.k = 2048;
    spec.n = 4096;
    spec.rows = 4;
    spec.cols = 4;
    spec.sliceCount = 4;
    return spec;
}

// ---------------------------------------------------------------------
// Degraded-ring collective costs.

TEST(FaultInjection, DeadForwardLinkFallsBackToSingleChainHandCost)
{
    // Bidirectional 4-ring AG, shard 1000 B: nominally two
    // counter-rotating chains of ceil(3/2)=2 / floor(3/2)=1 steps ->
    // 10 + 2 * (1 + 10) = 32 s. One dead CW link kills the whole
    // forward chain, so the op degrades to a single CCW chain of
    // P-1 = 3 steps: 10 + 3 * (1 + 10) = 43 s.
    ChipConfig cfg = simpleConfig();
    cfg.bidirectionalIci = true;
    {
        FaultedRing nominal(cfg, 4, FaultScenario{});
        CommStats stats = nominal.run([&](CommDone done) {
            ringAllGather(nominal.cluster, nominal.net.ring(), 1000, 0,
                          std::move(done));
        });
        EXPECT_NEAR(stats.total, 32.0, 1e-6);
    }
    FaultedRing f(cfg, 4, linkDownScenario("link.CW.1"));
    CommStats stats = f.run([&](CommDone done) {
        ringAllGather(f.cluster, f.net.ring(), 1000, 0, std::move(done));
    });
    EXPECT_NEAR(stats.total, 43.0, 1e-6);
    EXPECT_EQ(stats.syncCount, 3);
    EXPECT_EQ(stats.bytesPerLink, 3000);
}

TEST(FaultInjection, HalfBandwidthLinksDoubleTransferTime)
{
    // Unidirectional 4-ring AG at full bandwidth: 10 + 3*(1+10) = 43.
    // Every CW link at factor 0.5 -> per-step transfer 20 s:
    // 10 + 3 * (1 + 20) = 73.
    FaultedRing f(simpleConfig(), 4, linkDownScenario("link.CW.", 0.5));
    CommStats stats = f.run([&](CommDone done) {
        ringAllGather(f.cluster, f.net.ring(), 1000, 0, std::move(done));
    });
    EXPECT_NEAR(stats.total, 73.0, 1e-6);
    EXPECT_NEAR(stats.transfer, 60.0, 1e-6);
}

TEST(FaultInjection, ExpiringFaultWindowRestoresNominalCost)
{
    // The degradation window [0, 5) ends before the first transfer
    // finishes; only the overlap of the window with the transfer slows
    // it. Nominal unidirectional AG = 43 s. The first step's transfer
    // starts at t=11 (launch 10 + sync 1) — after the window closed —
    // so the run must cost exactly the nominal 43 s and the injector
    // must still have armed the window.
    FaultScenario s;
    s.faults.push_back(CapacityFault{"link.CW.", 0.5, 0.0, 5.0});
    FaultedRing f(simpleConfig(), 4, s);
    EXPECT_GT(f.injector.armedWindowCount(), 0);
    CommStats stats = f.run([&](CommDone done) {
        ringAllGather(f.cluster, f.net.ring(), 1000, 0, std::move(done));
    });
    EXPECT_NEAR(stats.total, 43.0, 1e-6);
}

TEST(FaultInjectionDeathTest, BothDirectionsDeadIsFatalNotAHang)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ChipConfig cfg = simpleConfig();
    EXPECT_DEATH(
        {
            FaultedRing f(cfg, 4, linkDownScenario("link.C"));
            f.run([&](CommDone done) {
                ringAllGather(f.cluster, f.net.ring(), 1000, 0,
                              std::move(done));
            });
        },
        "no usable direction");
}

TEST(FaultInjectionDeathTest, UnmatchedPatternIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ChipConfig cfg = simpleConfig();
    EXPECT_DEATH(FaultedRing(cfg, 4, linkDownScenario("link.bogus")),
                 "matche[sd] no resource");
}

// ---------------------------------------------------------------------
// Determinism: empty-scenario identity, seeded replay, thread count.

TEST(FaultInjection, EmptyScenarioBitIdenticalToNoInjector)
{
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = studySpec();
    const FaultScenario empty;
    ASSERT_TRUE(empty.empty());
    for (Algorithm algo :
         {Algorithm::kMeshSlice, Algorithm::kSumma, Algorithm::kFsdp}) {
        const GemmRunResult none =
            runGemmUnderScenario(cfg, algo, spec, nullptr);
        const GemmRunResult with =
            runGemmUnderScenario(cfg, algo, spec, &empty);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(none.time, with.time) << algorithmName(algo);
        EXPECT_EQ(none.exposedComm, with.exposedComm)
            << algorithmName(algo);
        EXPECT_EQ(none.computeBusy, with.computeBusy)
            << algorithmName(algo);
    }
}

FaultScenario
messyScenario()
{
    FaultScenario s;
    s.seed = 42;
    s.maxLaunchJitter = 2e-6;
    s.faults.push_back(CapacityFault{"link.E", 0.4, 0.0, -1.0});
    s.faults.push_back(CapacityFault{"link.S", 0.7, 1e-4, 5e-4});
    s.stragglers.push_back(StragglerFault{3, 0.6, 0.8, 0.0, -1.0});
    return s;
}

TEST(FaultInjection, SeededScenarioReplaysBitIdentically)
{
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = studySpec();
    const FaultScenario s = messyScenario();
    const GemmRunResult a =
        runGemmUnderScenario(cfg, Algorithm::kMeshSlice, spec, &s);
    const GemmRunResult b =
        runGemmUnderScenario(cfg, Algorithm::kMeshSlice, spec, &s);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.exposedComm, b.exposedComm);
    EXPECT_EQ(a.computeBusy, b.computeBusy);
    EXPECT_GT(a.time,
              runGemmUnderScenario(cfg, Algorithm::kMeshSlice, spec,
                                   nullptr)
                  .time);
}

TEST(FaultInjection, RobustTuneInvariantUnderThreadCount)
{
    // The robust tuner's shortlist ranking uses the thread pool; the
    // result must not depend on the worker count.
    const ChipConfig cfg = tpuV4Config();
    const LlmAutotuner tuner(CostModel::calibrated(cfg));
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train{32, 2048};
    RobustTuneConfig rcfg;
    rcfg.topK = 3;
    rcfg.numScenarios = 2;
    rcfg.maxGemmsPerEval = 2;

    const auto tune = [&] {
        return tuneRobust(tuner, Algorithm::kMeshSlice,
                          tuner.rankShapes(Algorithm::kMeshSlice, model,
                                           train, 16, rcfg.topK),
                          16, rcfg);
    };
    ThreadPool::setGlobalThreads(1);
    const RobustTuneResult serial = tune();
    ThreadPool::setGlobalThreads(8);
    const RobustTuneResult threaded = tune();
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());

    ASSERT_EQ(serial.candidates.size(), threaded.candidates.size());
    EXPECT_EQ(serial.pickedIndex, threaded.pickedIndex);
    for (size_t i = 0; i < serial.candidates.size(); ++i) {
        EXPECT_EQ(serial.candidates[i].plan.rows,
                  threaded.candidates[i].plan.rows);
        EXPECT_EQ(serial.candidates[i].plan.cols,
                  threaded.candidates[i].plan.cols);
        EXPECT_EQ(serial.candidates[i].objective,
                  threaded.candidates[i].objective);
    }
}

// ---------------------------------------------------------------------
// Accounting conservation under time-varying capacity.

TEST(FaultInjection, ConservationHoldsUnderTimeVaryingCapacity)
{
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = studySpec();
    Cluster cluster(cfg, spec.chips());
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    FaultScenario s;
    // Windows that open and close mid-run.
    s.faults.push_back(CapacityFault{"link.E", 0.3, 1e-5, 2e-4});
    s.faults.push_back(CapacityFault{"link.N", 0.5, 5e-5, 1e-4});
    s.stragglers.push_back(StragglerFault{5, 0.7, 0.7, 2e-5, 3e-4});
    FaultInjector inj(cluster.sim(), cluster.net(), s);
    inj.arm();
    cluster.attachFaults(&inj);
    GemmExecutor exec(mesh);
    exec.run(Algorithm::kMeshSlice, spec);

    const Time now = cluster.sim().now();
    bool saw_degraded = false;
    for (size_t id = 0; id < cluster.net().resourceCount(); ++id) {
        const ResourceStats rs =
            cluster.net().resourceStats(static_cast<ResourceId>(id));
        const double wall = now - rs.createdAt;
        EXPECT_NEAR(rs.busyTime + rs.idleTime, wall, 1e-12) << rs.name;
        saw_degraded = saw_degraded || rs.degradedTime > 0.0;
    }
    EXPECT_TRUE(saw_degraded);
}

// ---------------------------------------------------------------------
// Watchdog: a drained queue with parked flows aborts, never hangs.

TEST(FaultInjectionDeathTest, WatchdogAbortsOnPermanentlyParkedFlow)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Simulator sim;
            FluidNetwork net(sim);
            const ResourceId r = net.addResource("link.only", 100.0);
            net.startFlow(1000.0, {Demand{r, 1.0}}, [] {});
            // Take the only resource down mid-flow, forever.
            sim.schedule(1.0,
                         [&net, r] { net.setAvailable(r, false); });
            sim.run();
        },
        "watchdog");
}

// ---------------------------------------------------------------------
// Scenario JSON round-trip and rejection of malformed input.

TEST(FaultScenarioJson, RoundTripPreservesEverything)
{
    const FaultScenario s = messyScenario();
    const FaultScenario back =
        FaultScenario::fromJson(s.toJson(), "round-trip");
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_EQ(back.maxLaunchJitter, s.maxLaunchJitter);
    ASSERT_EQ(back.faults.size(), s.faults.size());
    for (size_t i = 0; i < s.faults.size(); ++i) {
        EXPECT_EQ(back.faults[i].pattern, s.faults[i].pattern);
        EXPECT_EQ(back.faults[i].factor, s.faults[i].factor);
        EXPECT_EQ(back.faults[i].start, s.faults[i].start);
        EXPECT_EQ(back.faults[i].duration, s.faults[i].duration);
    }
    ASSERT_EQ(back.stragglers.size(), s.stragglers.size());
    EXPECT_EQ(back.stragglers[0].chip, s.stragglers[0].chip);
    EXPECT_EQ(back.stragglers[0].computeFactor,
              s.stragglers[0].computeFactor);
    // Serialization is canonical: a second trip is textually stable.
    EXPECT_EQ(back.toJson(), s.toJson());
}

TEST(FaultScenarioJsonDeathTest, MalformedInputsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(FaultScenario::fromJson("{", "t"), "t");
    EXPECT_DEATH(FaultScenario::fromJson("[]", "t"), "t");
    EXPECT_DEATH(FaultScenario::fromJson("{\"sed\":1}", "t"), "sed");
    EXPECT_DEATH(FaultScenario::fromJson(
                     "{\"faults\":[{\"pattern\":\"x\",\"factor\":1.5}]}",
                     "t"),
                 "factor");
    EXPECT_DEATH(FaultScenario::fromJson("{\"seed\":-3}", "t"), "seed");
}

// ---------------------------------------------------------------------
// Detour rings around a failed chip.

TEST(DetourRing, RowRingWithoutSkipsChipAndAddsDetourLinks)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 16);
    TorusMesh mesh(cluster, 4, 4);
    const Ring ring = mesh.rowRingWithout(1, 2);
    ASSERT_EQ(ring.size(), 3);
    for (int chip : ring.chips)
        EXPECT_NE(chip, mesh.chipAt(1, 2));
    // The hop that passed through the failed chip is a fresh detour
    // resource at a third of the link bandwidth (3-hop reroute).
    bool saw_detour = false;
    for (ResourceId id : ring.fwd) {
        const std::string &name = cluster.net().resourceName(id);
        if (name.find("detour") != std::string::npos) {
            saw_detour = true;
            EXPECT_NEAR(cluster.net().capacity(id) * 3.0,
                        cfg.iciLinkBandwidth / cfg.logicalMeshContention,
                        cfg.iciLinkBandwidth * 1e-9);
        }
    }
    EXPECT_TRUE(saw_detour);
    // The degraded ring still routes a collective to completion.
    bool done = false;
    ringAllGather(cluster, ring, 1 << 20, 0,
                  [&done](const CommStats &) { done = true; });
    cluster.sim().run();
    EXPECT_TRUE(done);
}

TEST(DetourRingDeathTest, SingleRowMeshCannotDetour)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 4);
    TorusMesh mesh(cluster, 1, 4);
    EXPECT_DEATH(mesh.rowRingWithout(0, 1), "adjacent");
}

// ---------------------------------------------------------------------
// Robust objective and scenario sampling.

TEST(RobustTuner, QuantileObjective)
{
    const std::vector<Time> times{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(robustObjective(times, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(robustObjective(times, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(robustObjective(times, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(robustObjective({}, 1.0), 0.0);
}

TEST(RobustTuner, SampledScenariosAreDeterministic)
{
    RobustTuneConfig cfg;
    cfg.numScenarios = 5;
    cfg.seed = 7;
    const auto a = sampleScenarios(cfg, 16);
    const auto b = sampleScenarios(cfg, 16);
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), 5u);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].toJson(), b[i].toJson());
}

TEST(RobustTuner, PickedObjectiveNeverWorseThanNominalCandidate)
{
    const ChipConfig cfg = tpuV4Config();
    const LlmAutotuner tuner(CostModel::calibrated(cfg));
    RobustTuneConfig rcfg;
    rcfg.topK = 3;
    rcfg.numScenarios = 2;
    rcfg.maxGemmsPerEval = 2;
    const RobustTuneResult result = tuneRobust(
        tuner, Algorithm::kMeshSlice,
        tuner.rankShapes(Algorithm::kMeshSlice, gpt3Config(),
                         TrainingConfig{32, 2048}, 16, rcfg.topK),
        16, rcfg);
    ASSERT_FALSE(result.candidates.empty());
    EXPECT_LE(result.picked().objective, result.nominal().objective);
    for (const RobustCandidate &cand : result.candidates)
        EXPECT_EQ(cand.scenarioTimes.size(), result.scenarios.size());
}

// ---------------------------------------------------------------------
// Input-validation hardening (negative paths).

TEST(ValidationDeathTest, SpecShapesAreChecked)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Gemm2DSpec spec = studySpec();
    spec.m = 0;
    EXPECT_DEATH(validateSpec(spec), "positive");
    spec = studySpec();
    spec.rows = 3; // 4096 % 3 != 0
    EXPECT_DEATH(validateSpec(spec), "divisible");
    spec = studySpec();
    spec.sliceCount = 3; // K=2048 % 3 != 0
    EXPECT_DEATH(validateSpec(spec), "sliceCount");
    spec = studySpec();
    spec.bytesPerElement = 0;
    EXPECT_DEATH(validateSpec(spec), "bytesPerElement");

    Gemm1DSpec one;
    EXPECT_DEATH(validateSpec(one), "positive");
}

TEST(ValidationDeathTest, ChipConfigIsChecked)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ChipConfig cfg = tpuV4Config();
    cfg.peakFlops = 0.0;
    EXPECT_DEATH(validateChipConfig(cfg), "peakFlops");
    cfg = tpuV4Config();
    cfg.iciLinkBandwidth = -1.0;
    EXPECT_DEATH(validateChipConfig(cfg), "iciLinkBandwidth");
    cfg = tpuV4Config();
    cfg.syncLatency = -1e-9;
    EXPECT_DEATH(validateChipConfig(cfg), "syncLatency");
}

} // namespace
} // namespace meshslice
