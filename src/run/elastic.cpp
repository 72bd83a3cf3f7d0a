#include "run/elastic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_study.hpp"
#include "core/reshard_exec.hpp"
#include "gemm/reshard.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "sim/abandon.hpp"
#include "sim/stats.hpp"
#include "tuner/robust.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Per-step weight-update scale of the functional state. Elementwise,
 *  so the result is bit-exact across shard layouts and re-shards. */
constexpr float kElasticLr = 0.5f;

/** Chips of @p run's cluster when each step runs on @p spec's mesh:
 *  one mesh per pipeline stage, or the one mesh. */
int
clusterChips(const ElasticRunConfig &run, const Gemm2DSpec &spec)
{
    return run.pipeline.enabled ? run.pipeline.stages * spec.chips()
                                : spec.chips();
}

/** Linear chip id of a `"chip<i>."` kill pattern; fatal on anything
 *  else — the elastic runtime recovers from whole-chip fail-stops
 *  only (a link kill retires no chip and has no survivor geometry). */
int
chipOfKillPattern(const std::string &pattern, int chips)
{
    const std::string prefix = "chip";
    bool ok = pattern.size() > prefix.size() &&
              pattern.compare(0, prefix.size(), prefix) == 0;
    size_t i = prefix.size();
    int chip = 0;
    bool digits = false;
    while (ok && i < pattern.size() && pattern[i] >= '0' &&
           pattern[i] <= '9') {
        chip = chip * 10 + (pattern[i] - '0');
        digits = true;
        ++i;
    }
    if (!ok || !digits || i != pattern.size() - 1 || pattern[i] != '.')
        fatal("runElastic: kill pattern \"%s\" is not a whole-chip kill "
              "(\"chip<i>.\") — the elastic runtime recovers from chip "
              "fail-stops only", pattern.c_str());
    if (chip < 0 || chip >= chips)
        fatal("runElastic: kill pattern \"%s\" addresses a chip outside "
              "the %d-chip cluster", pattern.c_str(), chips);
    return chip;
}

/** Closed-form checkpoint span matching `runCheckpoint` when nothing
 *  else contends: per-chip rate = min(HBM, target/chips). */
Time
checkpointModelCost(const ChipConfig &cfg, int chips, Bytes bytes_per_chip,
                    Rate target_bw)
{
    const Rate rate = std::min(cfg.hbmBandwidth,
                               target_bw / static_cast<double>(chips));
    return cfg.launchOverhead +
           static_cast<double>(bytes_per_chip) / rate + cfg.syncLatency;
}

/** Outcome of one phase simulation (step / checkpoint / re-shard). */
struct PhaseOut
{
    Time span = 0.0; ///< committed span, or kill + detection if failed
    std::uint64_t events = 0;
    bool failed = false;
    Cluster::Failure failure;
    double cat[kSpanCategoryCount] = {0, 0, 0, 0, 0, 0, 0};
};

void
foldProfile(Cluster &cluster, PhaseOut &out)
{
    if (!cluster.profiler().enabled())
        return;
    const Attribution attr =
        extractCriticalPath(cluster.profiler().nodes());
    for (int i = 0; i < kSpanCategoryCount; ++i)
        out.cat[i] = attr.byCategory[i];
}

/** The single kill of @p sliced, or a negative time when none. */
Time
killTimeOf(const FaultScenario *sliced)
{
    if (sliced == nullptr || sliced->kills.empty())
        return -1.0;
    return sliced->kills.front().at;
}

/**
 * Classify a finished phase: a kill that fired before the phase's
 * measured end consumed it (abort paths measure exactly
 * kill + detection; a schedule that absorbed the kill — OneSided —
 * completed but its corpse-resident results are lost). The recovery
 * transaction starts at kill + detection either way.
 */
void
classifyKill(const FaultScenario *sliced, int chips, Time measured,
             bool handler_failed, const Cluster::Failure &handler_failure,
             PhaseOut &out)
{
    const Time kill_at = killTimeOf(sliced);
    const bool killed =
        handler_failed || (kill_at >= 0.0 && kill_at < measured);
    if (!killed) {
        out.span = measured;
        return;
    }
    out.failed = true;
    out.span = kill_at + sliced->detectionLatency;
    if (handler_failed) {
        out.failure = handler_failure;
        if (out.failure.deadChip < 0)
            out.failure.deadChip =
                chipOfKillPattern(sliced->kills.front().pattern, chips);
    } else {
        out.failure.op = "elastic.watchdog";
        out.failure.deadResource = sliced->kills.front().pattern;
        out.failure.deadChip =
            chipOfKillPattern(sliced->kills.front().pattern, chips);
        out.failure.detectedAt = out.span;
    }
}

/**
 * Arm the runtime's own detection watchdog: a kill the schedule
 * absorbs (OneSided) or parks on (a compute-only tail with no
 * collective fail-stop watch live) would otherwise drain to the
 * quiescence abort. Fires at kill + detection; a no-op when the
 * simulator already stopped (a collective's abort won the race —
 * deterministic: same time, lower sequence number wins).
 */
void
armElasticWatchdog(Cluster &cluster, const FaultScenario &sliced)
{
    if (sliced.kills.empty())
        return;
    const Time at =
        sliced.kills.front().at + sliced.detectionLatency;
    Cluster *cl = &cluster;
    cluster.sim().scheduleAfter(at, [cl] {
        if (!cl->sim().stopRequested())
            cl->sim().requestStop();
    });
}

/** One GeMM training step on a fresh cluster at local t = 0. */
PhaseOut
runGemmStepPhase(const ChipConfig &cfg, Algorithm algo,
                 const Gemm2DSpec &spec, const FaultScenario *sliced,
                 bool profile)
{
    PhaseOut out;
    Cluster cluster(cfg, spec.chips());
    // Declared after the cluster so the destructor sweep (reclaiming
    // ring ops / joins orphaned by a mid-schedule abort) runs while
    // the cluster is still alive.
    AbandonRegistry abandoned;
    ScopedAbandonRegistry abandonScope(abandoned);
    if (profile)
        cluster.enableProfiler(true);
    bool handler_failed = false;
    Cluster::Failure handler_failure;
    cluster.setFailStopHandler([&](const Cluster::Failure &f) {
        if (!handler_failed) {
            handler_failed = true;
            handler_failure = f;
        }
    });
    const GemmRunResult res = runGemmOnCluster(
        cluster, algo, spec, sliced,
        [&] { armElasticWatchdog(cluster, *sliced); });
    out.events = cluster.sim().eventsProcessed();
    classifyKill(sliced, spec.chips(), res.time, handler_failed,
                 handler_failure, out);
    foldProfile(cluster, out);
    return out;
}

/** One pipeline step on a fresh cluster (kill-free by validation). */
PhaseOut
runPipelineStepPhase(const ChipConfig &cfg, const Gemm2DSpec &spec,
                     const ElasticPipelineSpec &pipe,
                     const FaultScenario *sliced, bool profile)
{
    PhaseOut out;
    const int chips = pipe.stages * spec.rows * spec.cols;
    Cluster cluster(cfg, chips);
    AbandonRegistry abandoned;
    ScopedAbandonRegistry abandonScope(abandoned);
    if (profile)
        cluster.enableProfiler(true);
    PipelineCluster pc(cluster, pipe.stages, spec.rows, spec.cols);
    FaultInjector injector(cluster.sim(), cluster.net(),
                           sliced ? *sliced : FaultScenario{});
    if (sliced) {
        injector.arm();
        cluster.attachFaults(&injector);
    }
    const PipelineRunResult res = runPipeline(pc, pipe.exec);
    out.span = res.time;
    out.events = cluster.sim().eventsProcessed();
    foldProfile(cluster, out);
    return out;
}

/**
 * One timed checkpoint on a fresh cluster. Checkpoint flows touch only
 * HBMs and the shared target, so link-pattern windows are filtered out
 * of the armed scenario (they could not resolve on this link-less
 * cluster and could not bind its flows anyway); chip-addressed windows,
 * stragglers and the kill stay live.
 */
PhaseOut
runCheckpointPhase(const ChipConfig &cfg, int chips,
                   const CheckpointSpec &spec, const FaultScenario *sliced,
                   bool profile)
{
    PhaseOut out;
    FaultScenario filtered;
    bool armed = false;
    if (sliced) {
        filtered = *sliced;
        std::vector<CapacityFault> chip_faults;
        for (const CapacityFault &f : filtered.faults)
            if (f.pattern.compare(0, 4, "chip") == 0)
                chip_faults.push_back(f);
        filtered.faults = std::move(chip_faults);
        armed = !filtered.empty();
    }
    Cluster cluster(cfg, chips);
    AbandonRegistry abandoned;
    ScopedAbandonRegistry abandonScope(abandoned);
    if (profile)
        cluster.enableProfiler(true);
    FaultInjector injector(cluster.sim(), cluster.net(), filtered);
    if (armed) {
        injector.arm();
        cluster.attachFaults(&injector);
    }
    bool done = false;
    Time span = 0.0;
    if (armed)
        armElasticWatchdog(cluster, filtered);
    runCheckpoint(cluster, spec, [&](Time t) {
        done = true;
        span = t;
    });
    cluster.sim().run();
    if (!done) {
        if (!cluster.sim().stopRequested())
            panic("runElastic: checkpoint phase did not drain");
        // The watchdog stopped a checkpoint parked on a corpse.
        span = killTimeOf(sliced) + sliced->detectionLatency;
    }
    out.events = cluster.sim().eventsProcessed();
    classifyKill(sliced, chips, span, false, Cluster::Failure{}, out);
    foldProfile(cluster, out);
    return out;
}

/** Exact combined re-shard plan of the three live operands. */
ReshardPlan
liveStatePlan(const Gemm2DSpec &spec, const SurvivorMesh &sv)
{
    const ReshardPlan a =
        planReshard(spec.m, spec.k, spec.bytesPerElement, sv);
    const ReshardPlan b =
        planReshard(spec.k, spec.n, spec.bytesPerElement, sv);
    const ReshardPlan w =
        planReshard(spec.m, spec.n, spec.bytesPerElement, sv);
    ReshardPlan out;
    out.from = a.from;
    out.to = a.to;
    for (const ReshardPlan *p : {&a, &b, &w}) {
        out.moves.insert(out.moves.end(), p->moves.begin(),
                         p->moves.end());
        out.totalBytes += p->totalBytes;
        out.localBytes += p->localBytes;
    }
    for (const ReshardChipTraffic &t : reshardChipTraffic(out)) {
        out.maxChipIngress = std::max(out.maxChipIngress, t.ingress);
        out.maxChipEgress = std::max(out.maxChipEgress, t.egress);
    }
    return out;
}

/** The enacted recovery re-shard on a fresh old-shape cluster. */
PhaseOut
runRecoveryReshardPhase(const ChipConfig &cfg, const Gemm2DSpec &spec,
                        const ReshardPlan &plan, int dead_chip,
                        Rate restore_bw, bool profile)
{
    PhaseOut out;
    Cluster cluster(cfg, spec.chips());
    AbandonRegistry abandoned;
    ScopedAbandonRegistry abandonScope(abandoned);
    if (profile) {
        cluster.enableProfiler(true);
        const int marker = cluster.profiler().addNode(
            "fail-stop abort", SpanCategory::kRecovery, 0.0, 0.0, {},
            dead_chip);
        cluster.profiler().beginRecovery(marker);
    }
    bool done = false;
    Time span = 0.0;
    runRecoveryReshard(cluster, plan, dead_chip, restore_bw,
                       [&](Time t) {
                           done = true;
                           span = t;
                       });
    cluster.sim().run();
    if (profile)
        cluster.profiler().endRecovery();
    if (!done)
        panic("runElastic: recovery re-shard did not drain");
    out.span = span;
    out.events = cluster.sim().eventsProcessed();
    foldProfile(cluster, out);
    return out;
}

/** Functional training state: A, B and the weight accumulator W are
 *  live `DistMatrix`es; P = A*B is the dense per-step update. */
struct FunctionalState
{
    Matrix aFull, bFull, pFull, w0Full;
    DistMatrix a, b, w, p;
    DistMatrix ckptW; ///< W snapshot at the last checkpoint
};

void
initFunctional(FunctionalState &fs, const Gemm2DSpec &spec,
               std::uint64_t seed)
{
    const MeshShape mesh{spec.rows, spec.cols};
    fs.aFull = Matrix::random(spec.m, spec.k, seed);
    fs.bFull = Matrix::random(spec.k, spec.n, seed + 1);
    fs.w0Full = Matrix::random(spec.m, spec.n, seed + 2);
    fs.pFull = Matrix::gemm(fs.aFull, fs.bFull);
    fs.a = DistMatrix::scatter(fs.aFull, mesh);
    fs.b = DistMatrix::scatter(fs.bFull, mesh);
    fs.w = DistMatrix::scatter(fs.w0Full, mesh);
    fs.p = DistMatrix::scatter(fs.pFull, mesh);
    fs.ckptW = fs.w;
}

/** W += lr * P, shard-wise (elementwise, so layout-independent). */
void
applyStepUpdate(DistMatrix &w, const DistMatrix &p)
{
    for (int r = 0; r < w.mesh().rows; ++r) {
        for (int c = 0; c < w.mesh().cols; ++c) {
            Matrix &ws = w.shardAt(r, c);
            const Matrix &ps = p.shardAt(r, c);
            float *wd = ws.data();
            const float *pd = ps.data();
            const std::int64_t n = ws.rows() * ws.cols();
            for (std::int64_t i = 0; i < n; ++i)
                wd[i] += kElasticLr * pd[i];
        }
    }
}

/** The serial reference of the final W: W0 then `steps` elementwise
 *  updates, the exact per-element operation sequence the distributed
 *  run applies regardless of shard layout or mid-run re-shards. */
Matrix
referenceFinalW(const FunctionalState &fs, int steps)
{
    Matrix ref = fs.w0Full;
    float *rd = ref.data();
    const float *pd = fs.pFull.data();
    const std::int64_t n = ref.rows() * ref.cols();
    for (int s = 0; s < steps; ++s)
        for (std::int64_t i = 0; i < n; ++i)
            rd[i] += kElasticLr * pd[i];
    return ref;
}

void
recordPhase(std::vector<ElasticPhase> &phases, StatsRegistry &agg,
            ElasticPhase::Kind kind, int index, Time start,
            const PhaseOut &out)
{
    ElasticPhase ph;
    ph.kind = kind;
    ph.index = index;
    ph.start = start;
    ph.span = out.span;
    ph.events = out.events;
    ph.committed = !out.failed;
    const std::string base =
        strprintf("elastic/phase%03d", static_cast<int>(phases.size()));
    agg.set(base + "/kind", static_cast<double>(kind));
    agg.set(base + "/index", index);
    agg.set(base + "/span_s", out.span);
    agg.set(base + "/events", static_cast<double>(out.events));
    agg.set(base + "/committed", out.failed ? 0.0 : 1.0);
    phases.push_back(ph);
}

void
validateElasticConfig(const ElasticRunConfig &run, int chips0)
{
    if (run.steps <= 0)
        fatal("runElastic: steps must be positive (got %d)", run.steps);
    if (run.pipeline.enabled) {
        if (run.pipeline.stages < 1)
            fatal("runElastic: pipeline stages must be >= 1 (got %d)",
                  run.pipeline.stages);
        if (run.functionalState)
            fatal("runElastic: functional state is defined for the GeMM "
                  "step body, not pipeline schedules");
    }
    if (run.haveScenario) {
        validateScenario(run.scenario, "runElastic scenario");
        if (run.scenario.kills.size() > 1)
            fatal("runElastic: the elastic runtime recovers from at most "
                  "one fail-stop per run (scenario has %d kills)",
                  static_cast<int>(run.scenario.kills.size()));
        if (!run.scenario.kills.empty()) {
            if (run.pipeline.enabled)
                fatal("runElastic: fail-stop recovery is not implemented "
                      "for pipeline step bodies (stage retirement needs "
                      "a schedule re-plan) — use a kill-free scenario");
            chipOfKillPattern(run.scenario.kills.front().pattern, chips0);
            if (!(run.scenario.detectionLatency > 0.0))
                fatal("runElastic: fail-stop recovery requires a "
                      "strictly positive detection latency");
            if (!(run.checkpointTargetBandwidth > 0.0))
                fatal("runElastic: recovery restores the corpse's blocks "
                      "from the checkpoint target — "
                      "checkpointTargetBandwidth must be positive when "
                      "the scenario kills a chip");
            if (!shapeFeasible(run.spec, run.spec.rows, run.spec.cols))
                fatal("runElastic: fail-stop recovery re-shards all "
                      "three operands exactly, so m, k and n must "
                      "divide both mesh axes");
        }
    }
    if (run.functionalState &&
        !shapeFeasible(run.spec, run.spec.rows, run.spec.cols))
        fatal("runElastic: functional state scatters A, B and W, so m, "
              "k and n must divide both mesh axes");
}

} // namespace

const char *
elasticPhaseKindName(ElasticPhase::Kind kind)
{
    switch (kind) {
      case ElasticPhase::Kind::kStep:
        return "step";
      case ElasticPhase::Kind::kCheckpoint:
        return "checkpoint";
      case ElasticPhase::Kind::kRecovery:
        return "recovery";
    }
    return "?";
}

ElasticRunResult
runElastic(const ChipConfig &cfg, const ElasticRunConfig &run)
{
    const int chips0 = clusterChips(run, run.spec);
    validateElasticConfig(run, chips0);

    const bool ckpt_on = run.checkpointBytesPerChip > 0 &&
                         run.checkpointTargetBandwidth > 0.0;
    const double live_bytes = run.spec.liveStateBytes();

    // Checkpoint interval: explicit, or the Young–Daly optimum of this
    // cluster's recovery economics.
    Time interval = 0.0;
    if (ckpt_on) {
        if (run.checkpointInterval > 0.0) {
            interval = run.checkpointInterval;
        } else {
            if (!(run.chipMtbf > 0.0))
                fatal("runElastic: set checkpointInterval or a positive "
                      "chipMtbf to solve the Young-Daly interval");
            TrainingRunModel m;
            m.checkpointBytesPerChip = run.checkpointBytesPerChip;
            m.chipMtbf = run.chipMtbf;
            m.chips = chips0;
            m.detectionLatency =
                run.haveScenario ? run.scenario.detectionLatency : 0.5;
            m.restartTime = run.restartTime;
            const std::vector<SurvivorMesh> opts = survivorOptionsForChip(
                MeshShape{run.spec.rows, run.spec.cols}, 0);
            m.reshardTime = reshardTimeModel(
                cfg, reshardBytesModel(live_bytes, opts.front()),
                opts.front().to().chips());
            interval = evaluateTrainingRun(cfg, m).optimalInterval;
        }
    }

    StatsRegistry agg;
    agg.enable(true);

    FunctionalState fs;
    if (run.functionalState)
        initFunctional(fs, run.spec, run.functionalSeed);

    ElasticRunResult result;
    result.finalSpec = run.spec;
    result.finalAlgo = run.algo;

    // Fault-free probe: the measured full-mesh step time anchoring
    // both the goodput denominator and the analytic prediction. Runs
    // on its own cluster; the main loop's phases are unaffected.
    {
        const PhaseOut probe =
            run.pipeline.enabled
                ? runPipelineStepPhase(cfg, run.spec, run.pipeline,
                                       nullptr, false)
                : runGemmStepPhase(cfg, run.algo, run.spec, nullptr,
                                   false);
        result.stepTimeFullMesh = probe.span;
    }

    FaultScenario live = run.scenario; // global-time; remapped on shrink
    Gemm2DSpec spec_cur = run.spec;
    Algorithm algo_cur = run.algo;
    Time wall = 0.0;
    Time useful_since_ckpt = 0.0;
    int step = 0;
    int last_ckpt_step = 0;
    Time survivor_step_est = 0.0;
    Time survivor_reshard_est = 0.0;

    while (step < run.steps) {
        const std::uint64_t step_seed =
            derivePhaseSeed(run.scenario.seed,
                            static_cast<std::uint64_t>(step));
        FaultScenario sliced;
        const FaultScenario *sp = nullptr;
        if (run.haveScenario) {
            sliced = sliceScenarioForPhase(live, wall, step_seed);
            sp = &sliced;
        }
        const PhaseOut out =
            run.pipeline.enabled
                ? runPipelineStepPhase(cfg, spec_cur, run.pipeline, sp,
                                       run.profile)
                : runGemmStepPhase(cfg, algo_cur, spec_cur, sp,
                                   run.profile);
        recordPhase(result.phases, agg, ElasticPhase::Kind::kStep, step,
                    wall, out);
        for (int i = 0; i < kSpanCategoryCount; ++i)
            result.pathSeconds[i] += out.cat[i];

        if (!out.failed) {
            wall += out.span;
            useful_since_ckpt += out.span;
            ++step;
            if (run.functionalState)
                applyStepUpdate(fs.w, fs.p);
            if (step < run.steps && ckpt_on &&
                useful_since_ckpt >= interval) {
                const std::uint64_t ckpt_seed = derivePhaseSeed(
                    run.scenario.seed,
                    0x10000u + static_cast<std::uint64_t>(
                                   result.checkpoints));
                FaultScenario csliced;
                const FaultScenario *cp = nullptr;
                if (run.haveScenario) {
                    csliced =
                        sliceScenarioForPhase(live, wall, ckpt_seed);
                    cp = &csliced;
                }
                CheckpointSpec cspec;
                cspec.bytesPerChip = run.checkpointBytesPerChip;
                cspec.targetBandwidth = run.checkpointTargetBandwidth;
                const PhaseOut cout = runCheckpointPhase(
                    cfg, clusterChips(run, spec_cur), cspec, cp,
                    run.profile);
                recordPhase(result.phases, agg,
                            ElasticPhase::Kind::kCheckpoint,
                            result.checkpoints, wall, cout);
                for (int i = 0; i < kSpanCategoryCount; ++i)
                    result.pathSeconds[i] += cout.cat[i];
                if (cout.failed) {
                    goto recovery; // NOLINT: single recovery funnel
                }
                wall += cout.span;
                ++result.checkpoints;
                useful_since_ckpt = 0.0;
                last_ckpt_step = step;
                if (run.functionalState)
                    fs.ckptW = fs.w;
            }
            continue;
        }

      recovery: {
        // The recovery transaction. Exactly one per run: the scenario
        // carries at most one kill, and a second fail-stop would have
        // no kill left to be attributed to.
        if (result.recovered)
            fatal("runElastic: a second fail-stop was observed — the "
                  "elastic runtime recovers from one kill per run");
        const ElasticPhase &aborted = result.phases.back();
        const int dead = aborted.kind == ElasticPhase::Kind::kStep
                             ? out.failure.deadChip
                             : chipOfKillPattern(
                                   live.kills.front().pattern,
                                   spec_cur.chips());
        result.recovered = true;
        result.deadChip = dead;
        result.redoneSteps = step - last_ckpt_step;
        result.detectionSpan = run.scenario.detectionLatency;
        wall += aborted.span; // local kill time + detection

        // Incremental re-plan: phase 1/2 (calibration, shape sweep)
        // are reused — only the survivor ranking is redone. Cannon
        // cannot survive a one-line shrink (squareness), so it
        // re-plans onto MeshSlice.
        const Algorithm post_algo = algo_cur == Algorithm::kCannon
                                        ? Algorithm::kMeshSlice
                                        : algo_cur;
        const CostModel cost = CostModel::calibrated(cfg);
        const ReplanResult rp = replanAfterFailure(
            cost, post_algo, spec_cur, dead, run.steps - last_ckpt_step);
        if (!rp.feasible())
            fatal("runElastic: no survivor mesh of %dx%d can host the "
                  "run after chip %d died", spec_cur.rows, spec_cur.cols,
                  dead);
        const ReplanCandidate &cand = rp.picked();
        const SurvivorMesh sv = cand.mesh;
        survivor_step_est = cand.stepTime;
        survivor_reshard_est = cand.reshardTime;
        result.replanSpan = run.restartTime;
        wall += run.restartTime;

        // The enacted re-shard: all three live operands, survivor
        // blocks over real links, corpse blocks from the checkpoint
        // target.
        const ReshardPlan plan = liveStatePlan(spec_cur, sv);
        const PhaseOut rout = runRecoveryReshardPhase(
            cfg, spec_cur, plan, dead, run.checkpointTargetBandwidth,
            run.profile);
        recordPhase(result.phases, agg, ElasticPhase::Kind::kRecovery, 0,
                    wall, rout);
        for (int i = 0; i < kSpanCategoryCount; ++i)
            result.pathSeconds[i] += rout.cat[i];
        result.reshardSpan = rout.span;
        wall += rout.span;
        agg.set("elastic/recovery/detect_s", result.detectionSpan);
        agg.set("elastic/recovery/replan_s", result.replanSpan);
        agg.set("elastic/recovery/reshard_s", result.reshardSpan);
        agg.set("elastic/recovery/reshard_bytes",
                static_cast<double>(plan.totalBytes));

        // Rollback: restore the last checkpoint's functional state and
        // re-shard everything onto the survivor mesh (bit-exact).
        if (run.functionalState) {
            fs.w = reshard(fs.ckptW, sv);
            fs.a = reshard(fs.a, sv);
            fs.b = reshard(fs.b, sv);
            fs.p = DistMatrix::scatter(fs.pFull, sv.to());
            fs.ckptW = fs.w;
            if (fs.a.gather().maxAbsDiff(fs.aFull) != 0.0 ||
                fs.b.gather().maxAbsDiff(fs.bFull) != 0.0)
                fatal("runElastic: functional re-shard corrupted A/B — "
                      "reshard() must be a bit-exact redistribution");
        }
        if (run.haveScenario) {
            FaultScenario stripped = live;
            stripped.kills.clear();
            live = remapScenarioChips(stripped, oldToNewChipMap(sv));
        }
        spec_cur = cand.spec;
        algo_cur = post_algo;
        result.finalSpec = spec_cur;
        result.finalAlgo = algo_cur;
        step = last_ckpt_step;
        useful_since_ckpt = 0.0;
      }
    }

    result.wall = wall;
    result.usefulTime = run.steps * result.stepTimeFullMesh;
    result.goodput = wall > 0.0 ? result.usefulTime / wall : 0.0;

    if (run.functionalState) {
        result.functionalChecked = true;
        const Matrix ref = referenceFinalW(fs, run.steps);
        result.functionalOk = fs.w.gather().maxAbsDiff(ref) == 0.0;
    }

    // Analytic mirror: measured full-mesh step time + closed-form
    // phase models walked through the same state machine.
    {
        ElasticPredictionInput pin;
        pin.steps = run.steps;
        pin.stepTime = result.stepTimeFullMesh;
        pin.survivorStepTime =
            result.recovered ? survivor_step_est : result.stepTimeFullMesh;
        if (ckpt_on) {
            pin.checkpointCost = checkpointModelCost(
                cfg, chips0, run.checkpointBytesPerChip,
                run.checkpointTargetBandwidth);
            pin.survivorCheckpointCost = checkpointModelCost(
                cfg, clusterChips(run, result.finalSpec),
                run.checkpointBytesPerChip,
                run.checkpointTargetBandwidth);
            pin.checkpointInterval = interval;
        }
        if (run.haveScenario && !run.scenario.kills.empty()) {
            pin.killTime = run.scenario.kills.front().at;
            pin.detectionLatency = run.scenario.detectionLatency;
            pin.replanTime = run.restartTime;
            pin.reshardTime = survivor_reshard_est;
        }
        result.predicted = predictElasticWall(pin);
        result.modelError =
            result.predicted.wall > 0.0
                ? std::abs(result.wall - result.predicted.wall) /
                      result.predicted.wall
                : 0.0;
    }

    agg.set("elastic/steps", run.steps);
    agg.set("elastic/wall_s", result.wall);
    agg.set("elastic/useful_s", result.usefulTime);
    agg.set("elastic/goodput", result.goodput);
    agg.set("elastic/step_full_mesh_s", result.stepTimeFullMesh);
    agg.set("elastic/checkpoints", result.checkpoints);
    agg.set("elastic/redone_steps", result.redoneSteps);
    agg.set("elastic/recovered", result.recovered ? 1.0 : 0.0);
    agg.set("elastic/predicted/wall_s", result.predicted.wall);
    agg.set("elastic/predicted/goodput", result.predicted.goodput);
    agg.set("elastic/predicted/checkpoints", result.predicted.checkpoints);
    agg.set("elastic/predicted/redone_steps",
            result.predicted.redoneSteps);
    agg.set("elastic/model_error", result.modelError);
    if (result.functionalChecked)
        agg.set("elastic/functional_ok",
                result.functionalOk ? 1.0 : 0.0);
    result.statsJson = agg.toJson();
    return result;
}

PlainRunResult
runPlainSteps(const ChipConfig &cfg, const ElasticRunConfig &run)
{
    if (run.steps <= 0)
        fatal("runPlainSteps: steps must be positive (got %d)",
              run.steps);

    PlainRunResult result;
    FunctionalState fs;
    if (run.functionalState) {
        if (run.pipeline.enabled)
            fatal("runPlainSteps: functional state is defined for the "
                  "GeMM step body, not pipeline schedules");
        initFunctional(fs, run.spec, run.functionalSeed);
    }
    Time wall = 0.0;
    StatsRegistry sink; // phases recorded for the caller, stats unused
    for (int step = 0; step < run.steps; ++step) {
        const std::uint64_t step_seed =
            derivePhaseSeed(run.scenario.seed,
                            static_cast<std::uint64_t>(step));
        FaultScenario sliced;
        const FaultScenario *sp = nullptr;
        if (run.haveScenario) {
            sliced = sliceScenarioForPhase(run.scenario, wall, step_seed);
            sp = &sliced;
        }
        const PhaseOut out =
            run.pipeline.enabled
                ? runPipelineStepPhase(cfg, run.spec, run.pipeline, sp,
                                       false)
                : runGemmStepPhase(cfg, run.algo, run.spec, sp, false);
        if (out.failed)
            fatal("runPlainSteps: a fail-stop fired inside step %d — "
                  "the plain loop has no recovery; use runElastic",
                  step);
        recordPhase(result.steps, sink, ElasticPhase::Kind::kStep, step,
                    wall, out);
        wall += out.span;
        if (run.functionalState)
            applyStepUpdate(fs.w, fs.p);
    }
    result.wall = wall;
    if (run.functionalState) {
        result.functionalChecked = true;
        const Matrix ref = referenceFinalW(fs, run.steps);
        result.functionalOk = fs.w.gather().maxAbsDiff(ref) == 0.0;
    }
    return result;
}

std::string
elasticTraceJson(const ElasticRunResult &r)
{
    std::string out;
    for (const ElasticPhase &ph : r.phases) {
        out += strprintf(
            "{\"phase\":%s,\"index\":%d,\"start_s\":%s,\"span_s\":%s,"
            "\"events\":%llu,\"committed\":%s}\n",
            jsonString(elasticPhaseKindName(ph.kind)).c_str(), ph.index,
            jsonNumber(ph.start).c_str(), jsonNumber(ph.span).c_str(),
            static_cast<unsigned long long>(ph.events),
            ph.committed ? "true" : "false");
    }
    out += strprintf(
        "{\"phase\":\"summary\",\"wall_s\":%s,\"goodput\":%s,"
        "\"checkpoints\":%d,\"redone_steps\":%d,\"recovered\":%s,"
        "\"predicted_wall_s\":%s,\"model_error\":%s}\n",
        jsonNumber(r.wall).c_str(), jsonNumber(r.goodput).c_str(),
        r.checkpoints, r.redoneSteps, r.recovered ? "true" : "false",
        jsonNumber(r.predicted.wall).c_str(),
        jsonNumber(r.modelError).c_str());
    return out;
}

void
writeElasticTrace(const ElasticRunResult &r, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("writeElasticTrace: cannot open %s", path.c_str());
    const std::string text = elasticTraceJson(r);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace meshslice
