#include "engine/plan_engine.hpp"

#include <utility>

#include "engine/plan_json.hpp"
#include "tuner/cost_model.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace meshslice {

const char *
planSourceName(PlanSource source)
{
    switch (source) {
      case PlanSource::kCold:
        return "cold";
      case PlanSource::kCacheHit:
        return "cache_hit";
      case PlanSource::kCoalesced:
        return "coalesced";
      case PlanSource::kIncremental:
        return "incremental";
    }
    return "?";
}

namespace {

// The phase names: `engine/phase/<name>/runs` counters and `pickedBy`.
constexpr const char *kShortlistPhase = "phase1-shortlist";
constexpr const char *kDataflowSlicePhase = "phase2-dataflow-slice";
constexpr const char *kRobustPhase = "robust-rerank";
constexpr const char *kRecoveryPhase = "recovery-pricing";
constexpr const char *kPipelinePhase = "pipeline-3d";

/** Set the plan's 2D TP decision (shape + per-GeMM plans), keeping the
 *  3D cluster axes in sync for the phases that run pre-pipeline. */
void
adoptTpPick(EnginePlan &plan, const AutotuneResult &pick,
            const char *phase_name)
{
    plan.tp = pick;
    plan.cluster.tpRows = pick.rows;
    plan.cluster.tpCols = pick.cols;
    plan.pickedBy = phase_name;
}

/**
 * Run the tuning phases of @p q in order, counting each phase that runs
 * in @p stats. A non-null @p cached_shortlist (the incremental path)
 * stands in for phase1-shortlist, whose output depends only on the
 * query's base key.
 */
CachedPlanPtr
runPhases(const PlanQuery &q,
          const std::vector<AutotuneResult> *cached_shortlist,
          StatsRegistry &stats)
{
    const auto ran = [&stats](const char *phase) {
        stats.add(std::string("engine/phase/") + phase + "/runs", 1.0);
    };
    const LlmAutotuner tuner(CostModel::calibrated(q.chip));

    // Phase 1+2 of the paper's autotuner: the ranked top-K mesh-shape
    // shortlist, each entry a complete plan (stationary selection,
    // tuned slice counts).
    std::vector<AutotuneResult> shortlist;
    if (cached_shortlist != nullptr) {
        shortlist = *cached_shortlist;
    } else {
        shortlist = tuner.rankShapes(q.algo, q.model, q.train, q.chips,
                                     shortlistSizeFor(q),
                                     q.optimizeDataflow);
        ran(kShortlistPhase);
    }

    // The nominal decision: the shortlist head, on a 2D mesh with
    // dp = pp = 1 (the `ClusterPlan` defaults). The phases below may
    // override it; this guarantees every plan has one.
    EnginePlan plan;
    adoptTpPick(plan, shortlist.front(), kDataflowSlicePhase);
    ran(kDataflowSlicePhase);

    if (q.runRobust) {
        const RobustTuneResult robust =
            tuneRobust(tuner, q.algo, shortlist, q.chips, q.robust);
        plan.hasRobust = true;
        plan.robustObjective = robust.picked().objective;
        plan.robustPickIndex = robust.pickedIndex;
        adoptTpPick(plan, robust.picked().plan, kRobustPhase);
        ran(kRobustPhase);
    }

    if (q.runRecovery) {
        const RecoveryTuneResult recovery =
            tuneWithRecovery(tuner, q.algo, shortlist, q.chips, q.recovery);
        const RecoveryCandidate &picked = recovery.picked();
        plan.hasRecovery = true;
        plan.checkpointInterval = picked.checkpointInterval;
        plan.goodput = picked.goodput;
        plan.effectiveStepTime = picked.effectiveStepTime;
        adoptTpPick(plan, picked.plan, kRecoveryPhase);
        ran(kRecoveryPhase);
    }

    // Phase-3 3D composition (pp x dp x tp) runs its own shape search
    // at the micro-batch size, so it replaces the 2D pick wholesale.
    if (q.runPipeline) {
        const PipelineTuneResult pipeline =
            tunePipeline(tuner, q.model, q.train, q.chips, q.pipeline);
        const PipelineCandidate &picked = pipeline.picked();
        plan.hasPipeline = true;
        plan.axes = picked.axes;
        plan.pipelineEstTotal = picked.estTotal;
        plan.pipelineSimTotal = picked.simTotal;
        plan.stageMemoryBytes = picked.stageMemoryBytes;
        plan.peakStash = picked.peakStash;
        plan.cluster.dp = picked.axes.dp;
        plan.cluster.pp = picked.axes.pp;
        adoptTpPick(plan, picked.tpPlan, kPipelinePhase);
        ran(kPipelinePhase);
    }
    return makeCachedPlan(std::move(plan), std::move(shortlist));
}

} // namespace

PlanEngine::PlanEngine() : PlanEngine(Options{}) {}

PlanEngine::PlanEngine(Options options)
    : options_(std::move(options)),
      cache_(options_.cacheCapacity, &stats_)
{
    stats_.enable(true);
    if (!options_.persistPath.empty())
        cache_.loadFileIfExists(options_.persistPath);
}

std::vector<std::string>
PlanEngine::phaseNames()
{
    return {kShortlistPhase, kDataflowSlicePhase, kRobustPhase,
            kRecoveryPhase, kPipelinePhase};
}

PlanResult
PlanEngine::plan(const PlanQuery &query)
{
    if (query.chips <= 0)
        fatal("PlanEngine: chips must be positive (got %d)", query.chips);
    PlanResult result;
    result.key = planKeyOf(query);
    const std::string full = result.key.full();

    bool waited = false;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (const CachedPlanPtr hit = cache_.lookup(full)) {
            lock.unlock();
            stats_.add(waited ? "engine/serve/coalesced"
                              : "engine/serve/cache_hit", 1.0);
            result.plan = hit->plan;
            result.planJson = hit->planJson;
            result.source = waited ? PlanSource::kCoalesced
                                   : PlanSource::kCacheHit;
            return result;
        }
        if (inflight_.count(full) == 0)
            break;
        waited = true;
        cv_.wait(lock);
    }
    inflight_.insert(full);
    const std::string base_key = result.key.base();
    const CachedPlanPtr base = cache_.findBase(base_key);
    lock.unlock();

    const bool incremental = base != nullptr;
    const CachedPlanPtr entry =
        runPhases(query, incremental ? &base->shortlist : nullptr, stats_);

    if (incremental && options_.verifyIncremental) {
        const CachedPlanPtr cold = runPhases(query, nullptr, stats_);
        if (cold->planJson != entry->planJson ||
            shortlistToJson(cold->shortlist) !=
                shortlistToJson(entry->shortlist))
            panic("PlanEngine: incremental re-tune of %s is not "
                  "bit-identical to the cold full tune",
                  result.key.digest().c_str());
        stats_.add("engine/serve/incremental_verified", 1.0);
    }

    lock.lock();
    cache_.insert(full, base_key, entry);
    inflight_.erase(full);
    lock.unlock();
    cv_.notify_all();
    stats_.add(incremental ? "engine/serve/incremental"
                           : "engine/serve/cold", 1.0);
    stats_.add("engine/serve/computed", 1.0);

    result.plan = entry->plan;
    result.planJson = entry->planJson;
    result.source =
        incremental ? PlanSource::kIncremental : PlanSource::kCold;
    return result;
}

std::vector<PlanResult>
PlanEngine::planMany(const std::vector<PlanQuery> &queries)
{
    std::vector<PlanResult> results(queries.size());
    parallelFor(static_cast<std::int64_t>(queries.size()), 1,
                [&](std::int64_t begin, std::int64_t end) {
                    for (std::int64_t i = begin; i < end; ++i)
                        results[static_cast<size_t>(i)] =
                            plan(queries[static_cast<size_t>(i)]);
                });
    return results;
}

void
PlanEngine::persist() const
{
    if (options_.persistPath.empty())
        fatal("PlanEngine: persist() requires Options::persistPath");
    std::unique_lock<std::mutex> lock(mu_);
    cache_.saveFile(options_.persistPath);
}

long
PlanEngine::computedCount() const
{
    return static_cast<long>(stats_.counter("engine/serve/computed"));
}

} // namespace meshslice
