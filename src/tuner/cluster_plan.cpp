#include "tuner/cluster_plan.hpp"

#include <algorithm>

#include "tuner/autotuner.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Analytic per-block FC time for Wang-overlapped 1D TP on a ring
 *  (8 slices per GeMM). */
Time
oneDBlockTime(const CostModel &cost, const TransformerConfig &model,
              const TrainingConfig &train, int chips)
{
    Time total = 0.0;
    for (const FcGemm &gemm : blockFcGemms(model, train)) {
        Gemm1DSpec spec = make1DSpec(gemm, Algorithm::kOneDTP, chips,
                                     cost.chip().bytesPerElement);
        spec.sliceCount = 8;
        total += estimate1DTime(cost, spec);
    }
    return total;
}

} // namespace

DpAllReduce
dpAllReduce(const CostModel &cost, const TransformerConfig &model, int pp,
            int tp, int dp, double dp_overlap)
{
    DpAllReduce out;
    const double params_per_chip =
        model.parameterCount() / static_cast<double>(pp * tp);
    out.bytesPerChip =
        static_cast<Bytes>(params_per_chip * cost.chip().bytesPerElement);
    if (dp > 1) {
        // AllReduce = RdS + AG of (bytes / dp) shards around the DP ring.
        const Time allreduce =
            2.0 * cost.collectiveTime(dp, out.bytesPerChip / dp);
        out.exposed = (1.0 - dp_overlap) * allreduce;
    }
    return out;
}

ClusterStepCost
estimateClusterStep(const CostModel &cost, const TransformerConfig &model,
                    const TrainingConfig &train, const ClusterPlan &plan,
                    int microbatches, double dp_overlap)
{
    const ChipConfig &cfg = cost.chip();
    if (model.layers % plan.pp != 0)
        panic("estimateClusterStep: pp %d must divide %lld layers",
              plan.pp, static_cast<long long>(model.layers));
    if (train.batch % plan.dp != 0)
        panic("estimateClusterStep: dp %d must divide batch %lld",
              plan.dp, static_cast<long long>(train.batch));

    TrainingConfig replica = train;
    replica.batch = train.batch / plan.dp;

    ClusterStepCost out;
    const int tp = plan.tpDegree();
    if (plan.oneD) {
        out.tpBlockTime = oneDBlockTime(cost, model, replica, tp) +
                          nonFcBlockTime(cfg, model, replica, tp);
    } else {
        LlmAutotuner tuner(cost);
        AutotuneResult fc = tuner.planAtShape(
            Algorithm::kMeshSlice, model, replica, plan.tpRows,
            plan.tpCols, true);
        out.tpBlockTime =
            fc.blockFcTime + nonFcBlockTime(cfg, model, replica, tp);
    }

    const std::int64_t blocks_per_stage = model.layers / plan.pp;
    out.computePerStage =
        out.tpBlockTime * static_cast<double>(blocks_per_stage);
    // 1F1B pipeline bubble: (m + p - 1) / m.
    out.pipelineTime = out.computePerStage *
                       (static_cast<double>(microbatches + plan.pp - 1) /
                        static_cast<double>(microbatches));

    const DpAllReduce dp =
        dpAllReduce(cost, model, plan.pp, tp, plan.dp, dp_overlap);
    out.dpBytesPerChip = dp.bytesPerChip;
    out.dpTime = dp.exposed;

    out.stepTime = out.pipelineTime + out.dpTime;
    const double step_flops =
        6.0 * model.parameterCount() * static_cast<double>(train.tokens());
    out.utilization =
        step_flops / (out.stepTime * cfg.peakFlops *
                      static_cast<double>(plan.chips()));
    return out;
}

} // namespace meshslice
