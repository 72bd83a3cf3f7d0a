/**
 * @file
 * Phase-3 autotuning: compose MeshSlice 2D TP with pipeline and data
 * parallelism into a full 3D training plan.
 *
 * The search walks every structural decomposition of the cluster —
 * pp stages x dp replicas x tp chips with pp | layers, dp | batch and
 * micro-batch counts dividing the per-replica batch — and for each one
 * re-runs the two-phase MeshSlice autotuner at the micro-batch size
 * (so tp_rows x tp_cols are co-optimized per candidate, with their own
 * `"phase":"shape"` trace records). Candidates are scored by an
 * analytical model that is *structurally exact*: the longest path over
 * the same pipeline DAG the discrete-event executor runs
 * (`analyticalSpan`), plus the non-overlapped DP gradient all-reduce
 * (`dpAllReduce`, shared with `estimateClusterStep`), with
 * memory-infeasible schedules rejected via the activation-stash model.
 * The top-K shortlist is then ranked by full simulation of the
 * already-evaluated plans (`runPipeline`), which is also what guards
 * the model: for every simulated plan the analytical estimate must
 * land within a few percent, or the pipeline report's cross-check
 * fails.
 *
 * Every candidate — pruned or evaluated — emits a
 * `"phase":"pipeline"` JSONL record through `SearchTrace`, and the
 * final decision a `"phase":"pipeline_pick"` record.
 */
#ifndef MESHSLICE_TUNER_PIPELINE_TUNER_HPP_
#define MESHSLICE_TUNER_PIPELINE_TUNER_HPP_

#include <string>
#include <vector>

#include "pipeline/pipeline_exec.hpp"
#include "pipeline/stage_model.hpp"
#include "sim/critical_path.hpp"
#include "sim/stats.hpp"
#include "tuner/autotuner.hpp"

namespace meshslice {

/** Knobs of the phase-3 search. */
struct PipelineTuneConfig
{
    /** Micro-batch schedule of every candidate. */
    PipelineSchedule schedule = PipelineSchedule::k1F1B;
    /** Model chunks per stage (interleaved schedule only). */
    int chunks = 1;
    /** Cap on the micro-batch count sweep. */
    int maxMicroBatches = 64;
    /** Shortlist size re-ranked by simulation. */
    int topK = 4;
    /** Activation recompute knob applied to every candidate. */
    bool recompute = false;
    /** Fraction of the DP all-reduce hidden behind backward compute
     *  (the Sec 2.1 overlap assumption, as in `estimateClusterStep`). */
    double dpOverlap = 0.5;
    /**
     * Run the critical-path profiler during the shortlist simulations
     * and attach the analysis (`PipelineCandidate::explain`) to every
     * simulated candidate; `tunePipeline` additionally traces one
     * `"phase":"explain"` record per shortlisted candidate when the
     * search-trace sink is open. Observational only.
     */
    bool explain = false;
};

/** One (pp, dp, tp, m) decomposition, evaluated or pruned. */
struct PipelineCandidate
{
    PipelineAxes axes; ///< tpRows/tpCols filled by the phase-2 pick
    /** The 2D TP plan at the candidate's micro-batch size. */
    AutotuneResult tpPlan;
    Time blockFwd = 0.0; ///< one block's forward, one micro-batch
    Time blockBwd = 0.0; ///< the matching backward
    Time estPipeline = 0.0; ///< analytical span of the pipeline DAG
    Time estDp = 0.0;       ///< exposed DP all-reduce time
    Time estTotal = 0.0;    ///< analytic step: span + exposed DP
    /** Simulated step (span + the same DP term); < 0 = not in the
     *  shortlist, so never simulated. */
    Time simTotal = -1.0;
    /** Critical-path analysis of the simulated replica (only filled
     *  when simulated with `PipelineTuneConfig::explain`). */
    ExplainRecord explain;
    bool hasExplain = false;
    /** Peak per-chip bytes of the heaviest stage (stage 0). */
    Bytes stageMemoryBytes = 0;
    /** Peak in-flight micro-batches on stage 0 (the stash depth). */
    int peakStash = 0;
    bool feasible = false;
    std::string reason; ///< why the candidate was pruned ("" if not)
};

/** Phase-3 outcome. */
struct PipelineTuneResult
{
    /** Structurally feasible candidates, ranked by `estTotal`
     *  (entry 0 = analytic pick). */
    std::vector<PipelineCandidate> candidates;
    /** All pruned decompositions, with reasons. */
    std::vector<PipelineCandidate> pruned;
    /** Index into `candidates` of the simulation-ranked pick. */
    int pickedIndex = 0;

    const PipelineCandidate &
    picked() const
    {
        return candidates.at(static_cast<size_t>(pickedIndex));
    }
};

/**
 * Run the phase-3 search for @p chips chips. Fatal when no feasible
 * decomposition exists (e.g. chips does not factor against the model).
 * The returned candidates' `estTotal` ordering is deterministic (ties
 * broken by lower pp, then dp, then micro-batch count).
 *
 * Every decomposition is evaluated once (`evaluatePipelineCandidate`);
 * the top-K are then simulated (`simulatePipelineCandidate`)
 * concurrently on the global thread pool, each on a private cluster,
 * and their records, stats and the pick are folded in serial index
 * order, so the pick and the SearchTrace file are bit-identical to a
 * `MESHSLICE_THREADS=1` run. When @p stats is non-null each simulated
 * candidate's per-resource accounting is merged under
 * `pipeline/top<i>/...`.
 */
PipelineTuneResult tunePipeline(const LlmAutotuner &tuner,
                                const TransformerConfig &model,
                                const TrainingConfig &train, int chips,
                                const PipelineTuneConfig &cfg,
                                StatsRegistry *stats = nullptr);

/**
 * Analytic step of ONE fully specified decomposition (the building
 * block of `tunePipeline`, exposed for benches and tests): runs phase
 * 1+2 at the micro-batch size, sizes the stage memory (falling back to
 * recompute when the stash does not fit) and computes the analytical
 * span plus the exposed DP all-reduce (`dpAllReduce`). A pruned
 * decomposition comes back with `feasible` false and a `reason`.
 */
PipelineCandidate evaluatePipelineCandidate(const LlmAutotuner &tuner,
                                            const TransformerConfig &model,
                                            const TrainingConfig &train,
                                            const PipelineAxes &axes,
                                            const PipelineTuneConfig &cfg);

/**
 * Simulate an evaluated, feasible @p cand on a fresh pp x tpRows x
 * tpCols cluster, reusing its plan (nothing is re-tuned): sets
 * `simTotal` (the simulated span plus the same analytic DP term, since
 * one replica is simulated) and, with `cfg.explain`, the critical-path
 * analysis. A non-null @p sim_stats receives the cluster's
 * per-resource accounting. Returns the discrete-event run.
 */
PipelineRunResult simulatePipelineCandidate(const LlmAutotuner &tuner,
                                            const TransformerConfig &model,
                                            const TrainingConfig &train,
                                            PipelineCandidate &cand,
                                            const PipelineTuneConfig &cfg,
                                            StatsRegistry *sim_stats
                                            = nullptr);

} // namespace meshslice

#endif // MESHSLICE_TUNER_PIPELINE_TUNER_HPP_
