/**
 * @file
 * PlanEngine subsystem tests: content-addressed key stability and
 * sensitivity, deterministic plan JSON round-trips, LRU cache
 * behavior, persistence and load validation, phase dispatch,
 * cache-hit / single-flight / incremental serving identity, thread
 * invariance, and the concurrency safety of the comm-calibration
 * memoization the engine hammers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "engine/plan_cache.hpp"
#include "engine/plan_engine.hpp"
#include "engine/plan_json.hpp"
#include "tuner/cost_model.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace meshslice {
namespace {

/** A query small enough to cold-tune in tens of milliseconds. */
PlanQuery
tinyQuery(std::uint64_t fault_seed = 7)
{
    PlanQuery q;
    q.model.name = "tiny-test";
    q.model.layers = 2;
    q.model.hiddenDim = 1024;
    q.model.heads = 8;
    q.model.ffnDim = 4096;
    q.chips = 8;
    q.train = TrainingConfig::weakScaling(q.chips);
    q.chip = tpuV4Config();
    q.runRobust = true;
    q.robust.topK = 2;
    q.robust.numScenarios = 2;
    q.robust.maxGemmsPerEval = 2;
    q.robust.seed = fault_seed;
    q.runRecovery = true;
    q.recovery.chipMtbf = 30.0 * 24 * 3600;
    q.recovery.checkpointBytesPerChip = GiB(1.0);
    q.recovery.topK = 2;
    return q;
}

/** A typed cache entry built from real tuner output: the plan a cold
 *  serve of `tinyQuery(fault_seed)` returns and its shortlist. */
CachedPlanPtr
tinyEntry(std::uint64_t fault_seed = 7)
{
    const PlanQuery q = tinyQuery(fault_seed);
    const LlmAutotuner tuner(CostModel::calibrated(q.chip));
    PlanEngine engine;
    return makeCachedPlan(engine.plan(q).plan,
                          tuner.rankShapes(q.algo, q.model, q.train,
                                           q.chips, shortlistSizeFor(q),
                                           q.optimizeDataflow));
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

TEST(PlanKey, StableAcrossThreadCounts)
{
    ThreadPool::setGlobalThreads(1);
    const PlanKey serial = planKeyOf(tinyQuery());
    ThreadPool::setGlobalThreads(8);
    const PlanKey threaded = planKeyOf(tinyQuery());
    EXPECT_EQ(serial.full(), threaded.full());
    EXPECT_EQ(serial.digest(), threaded.digest());
}

TEST(PlanKey, ChipConfigFingerprintSeesEveryField)
{
    ChipConfig a = tpuV4Config();
    ChipConfig b = a;
    EXPECT_EQ(chipConfigFingerprint(a), chipConfigFingerprint(b));
    // A relative perturbation far below any decimal print precision
    // must still change the key (hex-float encoding is exact).
    b.syncLatency *= 1.0 + 1e-15;
    EXPECT_NE(chipConfigFingerprint(a), chipConfigFingerprint(b));
}

TEST(PlanKey, EveryComponentIsSensitive)
{
    const PlanKey base = planKeyOf(tinyQuery());

    PlanQuery q = tinyQuery();
    q.model.hiddenDim += 128;
    EXPECT_NE(planKeyOf(q).model, base.model);
    EXPECT_NE(planKeyOf(q).base(), base.base());

    q = tinyQuery();
    q.chips = 16;
    q.train = TrainingConfig::weakScaling(q.chips);
    EXPECT_NE(planKeyOf(q).cluster, base.cluster);

    q = tinyQuery();
    q.chip.syncLatency *= 2.0;
    EXPECT_NE(planKeyOf(q).cluster, base.cluster);

    // Objective knobs live in the *tune* component: changing them is
    // not a fault-only delta and must not be incremental-eligible.
    q = tinyQuery();
    q.recovery.chipMtbf *= 2.0;
    EXPECT_NE(planKeyOf(q).tune, base.tune);
    EXPECT_NE(planKeyOf(q).base(), base.base());

    q = tinyQuery();
    q.robust.quantile = 0.9;
    EXPECT_NE(planKeyOf(q).base(), base.base());
}

TEST(PlanKey, FaultOnlyDeltaIsIncrementalEligible)
{
    const PlanKey base = planKeyOf(tinyQuery(7));
    const PlanKey reseeded = planKeyOf(tinyQuery(8));
    EXPECT_EQ(reseeded.base(), base.base());
    EXPECT_NE(reseeded.fault, base.fault);
    EXPECT_NE(reseeded.full(), base.full());

    // Explicit scenarios key on their full content: nudging one fault
    // window start is a (fault-only) different key.
    PlanQuery qa = tinyQuery();
    FaultScenario scenario;
    scenario.faults.push_back({"link.E", 0.5, 0.0, 1.0});
    qa.robust.scenarios.push_back(scenario);
    PlanQuery qb = qa;
    qb.robust.scenarios[0].faults[0].start = 1e-9;
    const PlanKey ka = planKeyOf(qa), kb = planKeyOf(qb);
    EXPECT_EQ(kb.base(), ka.base());
    EXPECT_NE(kb.fault, ka.fault);
}

TEST(PlanKey, ShortlistSizeIsMaxOfEnabledConsumers)
{
    PlanQuery q = tinyQuery();
    q.robust.topK = 2;
    q.recovery.topK = 5;
    EXPECT_EQ(shortlistSizeFor(q), 5);
    q.runRecovery = false;
    EXPECT_EQ(shortlistSizeFor(q), 2);
    q.runRobust = false;
    EXPECT_EQ(shortlistSizeFor(q), 1);
}

TEST(PlanJson, PlanRoundTripIsByteIdentical)
{
    PlanEngine engine;
    const PlanResult r = engine.plan(tinyQuery());
    EXPECT_TRUE(r.plan.hasRobust);
    EXPECT_TRUE(r.plan.hasRecovery);
    const EnginePlan parsed = enginePlanFromJson(r.planJson, "test");
    EXPECT_EQ(enginePlanToJson(parsed), r.planJson);

    // The pipeline section round-trips too (filled by hand so the test
    // does not pay for a 3D tune).
    EnginePlan withPipeline = parsed;
    withPipeline.hasPipeline = true;
    withPipeline.axes.tpRows = 2;
    withPipeline.axes.tpCols = 2;
    withPipeline.axes.pp = 2;
    withPipeline.axes.dp = 1;
    withPipeline.axes.microBatches = 8;
    withPipeline.axes.schedule = PipelineSchedule::k1F1B;
    withPipeline.pipelineEstTotal = 0.125;
    withPipeline.pipelineSimTotal = 0.25;
    withPipeline.stageMemoryBytes = 1 << 20;
    withPipeline.peakStash = 3;
    const std::string json = enginePlanToJson(withPipeline);
    EXPECT_EQ(enginePlanToJson(enginePlanFromJson(json, "test")), json);
}

TEST(PlanJson, ShortlistRoundTripIsByteIdentical)
{
    const PlanQuery q = tinyQuery();
    const LlmAutotuner tuner(CostModel::calibrated(q.chip));
    const std::vector<AutotuneResult> shortlist =
        tuner.rankShapes(q.algo, q.model, q.train, q.chips, 3, true);
    ASSERT_FALSE(shortlist.empty());
    const std::string json = shortlistToJson(shortlist);
    const std::vector<AutotuneResult> parsed =
        shortlistFromJson(json, "test");
    EXPECT_EQ(parsed.size(), shortlist.size());
    EXPECT_EQ(shortlistToJson(parsed), json);
}

/** Seeded generator of plans that stress the canonical writer: every
 *  optional section on and off, every enum value, escaped strings and
 *  subnormal, huge and negative doubles. */
class RandomPlans
{
  public:
    explicit RandomPlans(std::uint64_t seed) : rng_(seed) {}

    EnginePlan
    plan(int trial)
    {
        EnginePlan p;
        p.cluster.dp = integer();
        p.cluster.pp = integer();
        p.cluster.tpRows = integer();
        p.cluster.tpCols = integer();
        p.cluster.oneD = (trial & 8) != 0;
        p.pickedBy = text();
        p.tp = tp();
        p.hasRobust = (trial & 1) != 0;
        if (p.hasRobust) {
            p.robustObjective = real();
            p.robustPickIndex = integer();
        }
        p.hasRecovery = (trial & 2) != 0;
        if (p.hasRecovery) {
            p.checkpointInterval = real();
            p.goodput = real();
            p.effectiveStepTime = real();
        }
        p.hasPipeline = (trial & 4) != 0;
        if (p.hasPipeline) {
            p.axes.tpRows = integer();
            p.axes.tpCols = integer();
            p.axes.pp = integer();
            p.axes.dp = integer();
            p.axes.microBatches = integer();
            p.axes.chunks = integer();
            p.axes.schedule = pick<PipelineSchedule>(3, seenSchedules_);
            p.axes.recompute = rng_() % 2 == 0;
            p.pipelineEstTotal = real();
            p.pipelineSimTotal = real();
            p.stageMemoryBytes = integer64();
            p.peakStash = integer();
        }
        return p;
    }

    AutotuneResult
    tp()
    {
        AutotuneResult r;
        r.rows = integer();
        r.cols = integer();
        r.blockFcTime = real();
        for (std::uint64_t i = rng_() % 4; i > 0; --i) {
            FcLayerPlan layer;
            layer.fcLayer = integer();
            layer.stationary = pick<Stationary>(3, seenStationary_);
            for (std::uint64_t j = rng_() % 4; j > 0; --j) {
                GemmPlan g;
                g.gemm.name = text();
                g.gemm.m = integer64();
                g.gemm.k = integer64();
                g.gemm.n = integer64();
                g.gemm.pass = pick<Pass>(3, seenPasses_);
                g.gemm.fcLayer = integer();
                g.dataflow = pick<Dataflow>(3, seenDataflows_);
                g.sliceCount = integer();
                g.estTime = real();
                layer.passes.push_back(std::move(g));
            }
            r.layers.push_back(std::move(layer));
        }
        return r;
    }

    /** True once every value of every plan enum has been drawn. */
    bool
    sawEveryEnumValue() const
    {
        return seenSchedules_ == 7 && seenStationary_ == 7 &&
               seenPasses_ == 7 && seenDataflows_ == 7;
    }

  private:
    template <class E>
    E
    pick(unsigned count, unsigned &seen)
    {
        const unsigned v = static_cast<unsigned>(rng_() % count);
        seen |= 1u << v;
        return static_cast<E>(v);
    }

    int
    integer()
    {
        switch (rng_() % 4) {
          case 0:
            return std::numeric_limits<int>::min();
          case 1:
            return std::numeric_limits<int>::max();
          default:
            return static_cast<int>(rng_() % 2001) - 1000;
        }
    }

    /** Int64 values within +-2^53: JSON numbers are doubles. */
    std::int64_t
    integer64()
    {
        const std::int64_t mag = static_cast<std::int64_t>(rng_() >> 11);
        return rng_() % 2 == 0 ? mag : -mag;
    }

    double
    real()
    {
        const double unit = std::ldexp(static_cast<double>(rng_() >> 11),
                                       -53);
        switch (rng_() % 6) {
          case 0: // subnormal
            return std::numeric_limits<double>::denorm_min() *
                   static_cast<double>(rng_() % 4096 + 1);
          case 1: // huge
            return std::ldexp(1.0 + unit, 1000 + static_cast<int>(
                                                     rng_() % 23));
          case 2:
            return -unit * 1e6;
          case 3:
            return rng_() % 2 == 0 ? -0.0
                                   : std::numeric_limits<double>::max();
          default:
            return unit;
        }
    }

    std::string
    text()
    {
        static const char *const kTexts[] = {
            "", "fc1", "quote\" back\\slash", "tab\tnew\nline",
            "ctl\x01\x1f", "utf8 \xc3\xa9\xe2\x82\xac"};
        return kTexts[rng_() % (sizeof(kTexts) / sizeof(kTexts[0]))];
    }

    std::mt19937_64 rng_;
    unsigned seenSchedules_ = 0, seenStationary_ = 0, seenPasses_ = 0,
             seenDataflows_ = 0;
};

TEST(PlanJson, SeededPlansRoundTripByteIdentically)
{
    RandomPlans gen(20261020);
    for (int trial = 0; trial < 64; ++trial) {
        const std::string json = enginePlanToJson(gen.plan(trial));
        EXPECT_EQ(enginePlanToJson(enginePlanFromJson(json, "fuzz")), json)
            << "trial " << trial;
    }
    EXPECT_TRUE(gen.sawEveryEnumValue());
}

TEST(PlanJson, SeededShortlistsRoundTripByteIdentically)
{
    RandomPlans gen(20261021);
    for (int trial = 0; trial < 32; ++trial) {
        std::vector<AutotuneResult> shortlist(static_cast<size_t>(trial % 4));
        for (AutotuneResult &r : shortlist)
            r = gen.tp();
        const std::string json = shortlistToJson(shortlist);
        EXPECT_EQ(shortlistToJson(shortlistFromJson(json, "fuzz")), json)
            << "trial " << trial;
    }
}

TEST(PlanJson, QueryParsesEverySchemaKey)
{
    const std::string json =
        "{\"id\": \"every-key\","
        " \"model\": {\"name\": \"wide\", \"layers\": 3,"
        " \"hiddenDim\": 2048, \"heads\": 16, \"ffnDim\": 8192,"
        " \"vocab\": 32000},"
        " \"train\": {\"batch\": 12, \"seqLen\": 1024},"
        " \"chips\": 32, \"algo\": \"SUMMA\", \"optimizeDataflow\": false,"
        " \"robust\": {\"topK\": 5, \"numScenarios\": 6, \"seed\": 9,"
        " \"linkDegradeFactor\": 0.25, \"faultsPerScenario\": 2,"
        " \"stragglerProb\": 0.125, \"stragglerFactor\": 0.375,"
        " \"maxLaunchJitter\": 1e-6, \"quantile\": 0.75,"
        " \"maxGemmsPerEval\": 3},"
        " \"recovery\": {\"chipMtbf\": 3600, \"checkpointBytesPerChip\":"
        " 1073741824, \"detectionLatency\": 0.25, \"restartTime\": 30,"
        " \"topK\": 2},"
        " \"pipeline\": {\"schedule\": \"Interleaved1F1B\", \"chunks\": 2,"
        " \"maxMicroBatches\": 16, \"topK\": 3, \"recompute\": true,"
        " \"dpOverlap\": 0.125}}";
    PlanQuery want;
    want.model = {"wide", 3, 2048, 16, 8192, 32000};
    want.train = {12, 1024};
    want.chips = 32;
    want.chip = tpuV4Config();
    want.algo = Algorithm::kSumma;
    want.optimizeDataflow = false;
    want.runRobust = true;
    want.robust.topK = 5;
    want.robust.numScenarios = 6;
    want.robust.seed = 9;
    want.robust.linkDegradeFactor = 0.25;
    want.robust.faultsPerScenario = 2;
    want.robust.stragglerProb = 0.125;
    want.robust.stragglerFactor = 0.375;
    want.robust.maxLaunchJitter = 1e-6;
    want.robust.quantile = 0.75;
    want.robust.maxGemmsPerEval = 3;
    want.runRecovery = true;
    want.recovery.chipMtbf = 3600;
    want.recovery.checkpointBytesPerChip = 1073741824;
    want.recovery.detectionLatency = 0.25;
    want.recovery.restartTime = 30;
    want.recovery.topK = 2;
    want.runPipeline = true;
    want.pipeline.schedule = PipelineSchedule::kInterleaved1F1B;
    want.pipeline.chunks = 2;
    want.pipeline.maxMicroBatches = 16;
    want.pipeline.topK = 3;
    want.pipeline.recompute = true;
    want.pipeline.dpOverlap = 0.125;
    const PlanQuery parsed = planQueryFromJson(json, tpuV4Config(), "q");
    EXPECT_EQ(planKeyOf(parsed).full(), planKeyOf(want).full());
}

TEST(PlanJson, QueryPresetTakesEveryDefault)
{
    PlanQuery want;
    want.model = gpt3Config();
    want.train = TrainingConfig::weakScaling(want.chips);
    want.chip = tpuV4Config();
    const PlanQuery parsed =
        planQueryFromJson("{\"model\": \"gpt3\"}", tpuV4Config(), "q");
    EXPECT_EQ(planKeyOf(parsed).full(), planKeyOf(want).full());
}

TEST(PlanJsonDeathTest, ErrorsArePositionalAndNamed)
{
    EXPECT_DEATH(enginePlanFromJson("{\"cluster\":", "unit test"),
                 "at byte");
    EXPECT_DEATH(enginePlanFromJson("{}", "unit test"), "cluster");
    EXPECT_DEATH(shortlistFromJson("[{\"rows\": true}]", "unit test"),
                 "rows");
    EXPECT_DEATH(
        planQueryFromJson("{\"mdoel\": \"gpt3\"}", tpuV4Config(), "q.json"),
        "mdoel");

    // Integers outside their target type are rejected, not truncated.
    EXPECT_DEATH(planQueryFromJson("{\"model\":\"gpt3\",\"chips\":4294967312}",
                                   tpuV4Config(), "q.json"),
                 "chips");
    EXPECT_DEATH(planQueryFromJson("{\"model\":\"gpt3\","
                                   "\"robust\":{\"topK\":4294967299}}",
                                   tpuV4Config(), "q.json"),
                 "robust.topK");
    // A repeated key is an error, not "first one wins".
    EXPECT_DEATH(planQueryFromJson("{\"model\":\"gpt3\",\"chips\":8,"
                                   "\"chips\":16}",
                                   tpuV4Config(), "q.json"),
                 "duplicate key \"chips\"");
    // Plans and shortlists reject keys their writers never emit.
    std::string plan = enginePlanToJson(EnginePlan{});
    plan.insert(plan.size() - 1, ",\"extra\":1");
    EXPECT_DEATH(enginePlanFromJson(plan, "unit test"),
                 "unknown key \"extra\"");
    std::string nested = enginePlanToJson(EnginePlan{});
    nested.insert(nested.find("\"oneD\""), "\"dp\":2,");
    EXPECT_DEATH(enginePlanFromJson(nested, "unit test"),
                 "duplicate key \"cluster.dp\"");
    std::string list = shortlistToJson({AutotuneResult{}});
    list.insert(list.size() - 2, ",\"colz\":2");
    EXPECT_DEATH(shortlistFromJson(list, "unit test"),
                 "unknown key \".*colz\"");
}

TEST(PlanCacheTest, LruEvictionAndCounters)
{
    StatsRegistry stats;
    stats.enable(true);
    PlanCache cache(2, &stats);
    const CachedPlanPtr a = tinyEntry(), b = tinyEntry(), c = tinyEntry();
    cache.insert("a#f1", "a", a);
    cache.insert("b#f1", "b", b);

    const CachedPlanPtr hit = cache.lookup("a#f1"); // touches a → b is LRU
    EXPECT_EQ(hit, a);
    EXPECT_EQ(hit->planJson, enginePlanToJson(hit->plan));
    cache.insert("c#f1", "c", c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup("b#f1"), nullptr); // evicted
    EXPECT_EQ(cache.lookup("c#f1"), c);

    EXPECT_EQ(stats.counter("engine/cache/insert"), 3.0);
    EXPECT_EQ(stats.counter("engine/cache/eviction"), 1.0);
    EXPECT_EQ(stats.counter("engine/cache/miss"), 1.0);
    EXPECT_EQ(stats.counter("engine/cache/hit"), 2.0);

    EXPECT_EQ(cache.findBase("a"), a);
    EXPECT_EQ(cache.findBase("b"), nullptr);
    EXPECT_EQ(stats.counter("engine/cache/base_hit"), 1.0);
}

TEST(PlanCacheTest, PersistenceRoundTripIsByteIdentical)
{
    PlanCache cache(8, nullptr);
    cache.insert("zeta#f", "zeta", tinyEntry(7));
    cache.insert("alpha#f", "alpha", tinyEntry(8));
    const std::string text = cache.serialize();

    PlanCache reloaded(8, nullptr);
    reloaded.load(text, "unit test");
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.serialize(), text); // sorted by key, stable
    EXPECT_EQ(reloaded.lookup("alpha#f")->planJson,
              cache.lookup("alpha#f")->planJson);
    EXPECT_EQ(shortlistToJson(reloaded.findBase("zeta")->shortlist),
              shortlistToJson(cache.findBase("zeta")->shortlist));

    const std::string path = tempPath("plan_cache_roundtrip.json");
    cache.saveFile(path);
    PlanCache from_disk(8, nullptr);
    EXPECT_TRUE(from_disk.loadFileIfExists(path));
    EXPECT_EQ(from_disk.serialize(), text);
    std::remove(path.c_str());
    PlanCache missing(8, nullptr);
    EXPECT_FALSE(missing.loadFileIfExists(path));
}

TEST(PlanCacheDeathTest, LoadRejectsMalformedPlanOrShortlist)
{
    // The entry below starts the global thread pool; a forked child
    // could not exit cleanly past it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const CachedPlanPtr entry = tinyEntry();
    const std::string shortlist = shortlistToJson(entry->shortlist);
    const auto file = [](const std::string &plan,
                         const std::string &list) {
        return "{\"entries\": [{\"key\": \"k#f\", \"base\": \"k\", "
               "\"plan\": " + jsonString(plan) + ", \"shortlist\": " +
               jsonString(list) + "}]}";
    };
    PlanCache cache(4, nullptr);
    cache.load(file(entry->planJson, shortlist), "good.json");
    EXPECT_EQ(cache.size(), 1u);

    EXPECT_DEATH(cache.load(file(entry->planJson.substr(0, 40), shortlist),
                            "bad.json"),
                 "EnginePlan: .* at byte [0-9]+ of bad.json entry 0 plan");
    EXPECT_DEATH(cache.load(file(entry->planJson, shortlist.substr(0, 40)),
                            "bad.json"),
                 "Shortlist: .* at byte [0-9]+ of bad.json entry 0 "
                 "shortlist");
    EXPECT_DEATH(cache.load(file(entry->planJson, "[]"), "bad.json"),
                 "bad.json entry 0: empty shortlist");

    // Cache files reject keys the writer never emits.
    EXPECT_DEATH(cache.load("{\"entries\": [], \"version\": 1}", "bad.json"),
                 "unknown key \"version\"");
    std::string extra = file(entry->planJson, shortlist);
    extra.insert(extra.find("\"plan\""), "\"note\": \"x\", ");
    EXPECT_DEATH(cache.load(extra, "bad.json"), "unknown key .*note");
    std::string twice = file(entry->planJson, shortlist);
    twice.insert(twice.find("\"plan\""), "\"key\": \"k2#f\", ");
    EXPECT_DEATH(cache.load(twice, "bad.json"), "duplicate key .*key");
}

TEST(PlanEngineTest, PhaseSequenceIsDeclared)
{
    const std::vector<std::string> names = PlanEngine::phaseNames();
    const std::vector<std::string> want = {
        "phase1-shortlist", "phase2-dataflow-slice", "robust-rerank",
        "recovery-pricing", "pipeline-3d"};
    EXPECT_EQ(names, want);
}

TEST(PlanEngineTest, DispatchRunsEachEnabledPhaseOnce)
{
    PlanEngine engine;
    const auto runs = [&engine](const char *phase) {
        return engine.stats().counter(std::string("engine/phase/") +
                                      phase + "/runs");
    };
    const PlanResult cold = engine.plan(tinyQuery(7)); // robust+recovery
    ASSERT_EQ(cold.source, PlanSource::kCold);
    EXPECT_EQ(runs("phase1-shortlist"), 1.0);
    EXPECT_EQ(runs("phase2-dataflow-slice"), 1.0);
    EXPECT_EQ(runs("robust-rerank"), 1.0);
    EXPECT_EQ(runs("recovery-pricing"), 1.0);
    EXPECT_EQ(runs("pipeline-3d"), 0.0);
    EXPECT_EQ(cold.plan.pickedBy, "recovery-pricing");

    // A fault-only delta reuses the cached shortlist.
    const PlanResult incremental = engine.plan(tinyQuery(8));
    ASSERT_EQ(incremental.source, PlanSource::kIncremental);
    EXPECT_EQ(runs("phase1-shortlist"), 1.0);
    EXPECT_EQ(runs("phase2-dataflow-slice"), 2.0);
    EXPECT_EQ(runs("robust-rerank"), 2.0);
    EXPECT_EQ(runs("recovery-pricing"), 2.0);
    EXPECT_EQ(runs("pipeline-3d"), 0.0);
    EXPECT_EQ(incremental.plan.pickedBy, "recovery-pricing");

    // `pickedBy` names the last decision phase that ran.
    PlanQuery robust_only = tinyQuery();
    robust_only.runRecovery = false;
    EXPECT_EQ(engine.plan(robust_only).plan.pickedBy, "robust-rerank");
    PlanQuery nominal = robust_only;
    nominal.runRobust = false;
    const PlanResult nominal_plan = engine.plan(nominal);
    EXPECT_EQ(nominal_plan.plan.pickedBy, "phase2-dataflow-slice");
    EXPECT_FALSE(nominal_plan.plan.hasRobust);
    EXPECT_EQ(runs("robust-rerank"), 3.0);
    EXPECT_EQ(runs("recovery-pricing"), 2.0);
}

TEST(PlanEngineTest, CacheHitIsByteIdenticalAndComputesOnce)
{
    PlanEngine engine;
    const PlanResult cold = engine.plan(tinyQuery());
    EXPECT_EQ(cold.source, PlanSource::kCold);
    const PlanResult hit = engine.plan(tinyQuery());
    EXPECT_EQ(hit.source, PlanSource::kCacheHit);
    EXPECT_EQ(hit.planJson, cold.planJson);
    EXPECT_EQ(hit.key.full(), cold.key.full());
    EXPECT_EQ(engine.computedCount(), 1);
    EXPECT_EQ(engine.stats().counter("engine/cache/hit"), 1.0);
}

TEST(PlanEngineTest, IncrementalRetuneMatchesColdBitIdentically)
{
    PlanEngine::Options options;
    options.verifyIncremental = true; // panics internally on mismatch
    PlanEngine engine(options);
    const PlanResult cold = engine.plan(tinyQuery(7));
    EXPECT_EQ(cold.source, PlanSource::kCold);
    const PlanResult incremental = engine.plan(tinyQuery(8));
    EXPECT_EQ(incremental.source, PlanSource::kIncremental);
    EXPECT_EQ(
        engine.stats().counter("engine/serve/incremental_verified"), 1.0);

    // Independent cross-check: a fresh engine cold-tunes the variant.
    PlanEngine fresh;
    const PlanResult fresh_cold = fresh.plan(tinyQuery(8));
    EXPECT_EQ(fresh_cold.source, PlanSource::kCold);
    EXPECT_EQ(incremental.planJson, fresh_cold.planJson);
}

TEST(PlanEngineTest, SingleFlightComputesIdenticalQueriesOnce)
{
    ThreadPool::setGlobalThreads(8);
    PlanEngine engine;
    const std::vector<PlanQuery> queries(8, tinyQuery());
    const std::vector<PlanResult> results = engine.planMany(queries);
    ASSERT_EQ(results.size(), queries.size());
    EXPECT_EQ(engine.computedCount(), 1);
    for (const PlanResult &r : results)
        EXPECT_EQ(r.planJson, results[0].planJson);
}

TEST(PlanEngineTest, PlanManyIsThreadCountInvariant)
{
    const std::vector<PlanQuery> queries = {tinyQuery(7), tinyQuery(8),
                                            tinyQuery(7), tinyQuery(9)};
    ThreadPool::setGlobalThreads(1);
    PlanEngine serial;
    const std::vector<PlanResult> a = serial.planMany(queries);
    ThreadPool::setGlobalThreads(8);
    PlanEngine threaded;
    const std::vector<PlanResult> b = threaded.planMany(queries);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].planJson, b[i].planJson) << "query " << i;
}

TEST(PlanEngineTest, WarmStartsFromPersistedCache)
{
    const std::string path = tempPath("plan_engine_warmstart.json");
    std::remove(path.c_str());
    PlanEngine::Options options;
    options.persistPath = path;
    std::string cold_json;
    {
        PlanEngine writer(options);
        cold_json = writer.plan(tinyQuery()).planJson;
        writer.persist();
    }
    PlanEngine reader(options);
    const PlanResult r = reader.plan(tinyQuery());
    EXPECT_EQ(r.source, PlanSource::kCacheHit);
    EXPECT_EQ(r.planJson, cold_json);
    EXPECT_EQ(reader.computedCount(), 0);
    std::remove(path.c_str());
}

TEST(PlanEngineTest, CalibrationMemoizationIsConcurrencySafe)
{
    // The engine calibrates a CostModel per serve; distinct chip
    // configs must calibrate exactly once each no matter how many
    // threads race (run under TSan in the sanitizer CI leg).
    clearCalibrationCache();
    const long before = calibrationRunCount();
    std::vector<ChipConfig> configs(3, tpuV4Config());
    configs[1].syncLatency *= 1.5;
    configs[2].launchOverhead *= 1.5;

    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t)
        threads.emplace_back([&configs] {
            for (const ChipConfig &cfg : configs)
                CostModel::calibrated(cfg);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(calibrationRunCount() - before, 3);
}

} // namespace
} // namespace meshslice
