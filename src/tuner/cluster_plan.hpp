/**
 * @file
 * Whole-cluster (3D = DP x PP x TP) training-step estimator, used to
 * quantify the paper's Sec 2.2 argument: replacing 8-way 1D TP with
 * wide 2D TP shrinks per-chip DP traffic (each chip holds a smaller
 * weight shard) and/or the number of pipeline stages, improving
 * end-to-end utilization at the same chip count.
 *
 * The estimator composes:
 *  - TP: the simulated (or cost-model) per-block FC time plus the
 *    non-FC roofline (this repository's core machinery);
 *  - PP: a 1F1B-style bubble model — step time scales by
 *    (microbatches + stages - 1) / microbatches;
 *  - DP: a ring all-reduce of each chip's weight-gradient shard,
 *    overlappable with backward computation up to a configurable
 *    fraction.
 */
#ifndef MESHSLICE_TUNER_CLUSTER_PLAN_HPP_
#define MESHSLICE_TUNER_CLUSTER_PLAN_HPP_

#include "model/transformer.hpp"
#include "tuner/cost_model.hpp"

namespace meshslice {

/** One way to lay a model onto a cluster. */
struct ClusterPlan
{
    int dp = 1;      ///< data-parallel replicas
    int pp = 1;      ///< pipeline stages
    int tpRows = 1;  ///< TP mesh rows (1 for 1D TP)
    int tpCols = 1;  ///< TP mesh columns (ring size for 1D TP)
    bool oneD = false; ///< true: 1D TP ring instead of a 2D mesh

    int tpDegree() const { return tpRows * tpCols; }
    int chips() const { return dp * pp * tpDegree(); }
};

/** Cost breakdown of one training step under a plan. */
struct ClusterStepCost
{
    Time tpBlockTime = 0.0;   ///< per transformer block (fwd+bwd)
    Time computePerStage = 0.0; ///< all blocks of one pipeline stage
    Time pipelineTime = 0.0;  ///< with the 1F1B bubble factor
    Time dpTime = 0.0;        ///< non-overlapped gradient all-reduce
    Time stepTime = 0.0;      ///< total
    double utilization = 0.0; ///< model FLOPs / (step * cluster peak)
    Bytes dpBytesPerChip = 0; ///< gradient traffic per chip
};

/** The DP gradient all-reduce of one training step. */
struct DpAllReduce
{
    Bytes bytesPerChip = 0; ///< each chip's weight-gradient shard
    Time exposed = 0.0;     ///< non-overlapped all-reduce time
};

/**
 * The DP term of every step estimate: each chip's gradient shard
 * (the model's parameters over @p pp stages x @p tp TP chips) is
 * all-reduced (RdS + AG) around a ring of @p dp replicas, and
 * @p dp_overlap of it hides behind backward compute. Zero exposed
 * time for @p dp <= 1.
 */
DpAllReduce dpAllReduce(const CostModel &cost,
                        const TransformerConfig &model, int pp, int tp,
                        int dp, double dp_overlap);

/**
 * Estimate one training step of @p model under @p plan using the
 * analytical cost models (fast enough for plan sweeps).
 *
 * @p microbatches is the pipeline's in-flight microbatch count;
 * @p dp_overlap is the fraction of the DP all-reduce hidden behind
 * backward compute (0.5 by default — parameter-update comm of one
 * layer overlaps another layer's compute, Sec 2.1).
 */
ClusterStepCost estimateClusterStep(const CostModel &cost,
                                    const TransformerConfig &model,
                                    const TrainingConfig &train,
                                    const ClusterPlan &plan,
                                    int microbatches = 8,
                                    double dp_overlap = 0.5);

} // namespace meshslice

#endif // MESHSLICE_TUNER_CLUSTER_PLAN_HPP_
