/**
 * @file
 * Figure 11: FLOP utilization of the distinct FC-layer GeMM shapes
 * (8 per model, 16 total) under the five 2D algorithms on a 256-chip
 * cluster. Each algorithm gets its own cost-model-optimal mesh shape
 * and slice count per GeMM, as in the paper's methodology.
 */
#include <iostream>

#include "bench/common.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

using namespace meshslice;

namespace {

/** Best (shape, S) for one GeMM under one algorithm, by cost model. */
Gemm2DSpec
bestSpecFor(const CostModel &cost, Algorithm algo, const FcGemm &gemm,
            Dataflow df, int chips)
{
    Gemm2DSpec best;
    Time best_t = 1e300;
    for (auto [rows, cols] : meshShapesOf(chips)) {
        if (algo == Algorithm::kCannon && rows != cols)
            continue;
        if (!shapeFeasible(gemm, static_cast<int>(rows),
                           static_cast<int>(cols)))
            continue;
        Gemm2DSpec spec = makeSpec(gemm, df, static_cast<int>(rows),
                                   static_cast<int>(cols));
        auto [s, t] = cost.tuneSliceCount(algo, spec);
        if (t < best_t) {
            best_t = t;
            spec.sliceCount = s;
            best = spec;
        }
    }
    if (best_t >= 1e300)
        fatal("no feasible shape for %s", gemm.name.c_str());
    return best;
}

} // namespace

int
main()
{
    const ChipConfig cfg = tpuV4Config();
    const int chips = 256;
    const CostModel cost = CostModel::calibrated(cfg);
    const std::vector<Algorithm> algos = all2DAlgorithms();

    std::cout << "Figure 11: per-GeMM FLOP utilization of the distinct "
                 "FC GeMM shapes (256 chips)\n\n";

    double sum_ms = 0.0, sum_coll = 0.0, sum_wang = 0.0;
    int count = 0;

    for (const TransformerConfig &model :
         {gpt3Config(), megatronNlgConfig()}) {
        const TrainingConfig train = TrainingConfig::weakScaling(chips);
        std::vector<std::string> header = {"GeMM (M,N,K)"};
        for (Algorithm algo : algos)
            header.push_back(algorithmName(algo));
        Table table(header);

        LlmAutotuner tuner(cost);
        AutotuneResult plan =
            tuner.tuneForAlgorithm(Algorithm::kMeshSlice, model, train,
                                   chips, true);
        // Map each distinct shape to its planned dataflow.
        for (const WeightedFcGemm &entry : distinctFcGemms(model, train)) {
            Dataflow df = Dataflow::kOS;
            for (const GemmPlan &p : plan.allPlans())
                if (p.gemm.name == entry.gemm.name)
                    df = p.dataflow;
            std::vector<std::string> row = {
                model.name + " " + entry.gemm.name + " (" +
                std::to_string(entry.gemm.m) + "," +
                std::to_string(entry.gemm.n) + "," +
                std::to_string(entry.gemm.k) + ")"};
            double u_ms = 0, u_coll = 0, u_wang = 0;
            for (Algorithm algo : algos) {
                const Dataflow adf =
                    runsOutputStationaryOnly(algo) ? Dataflow::kOS : df;
                Gemm2DSpec spec =
                    bestSpecFor(cost, algo, entry.gemm, adf, chips);
                GemmRunResult res = simulateOneGemm(cfg, algo, spec);
                const double util = res.utilization(cfg, chips);
                row.push_back(Table::pct(util));
                if (algo == Algorithm::kMeshSlice)
                    u_ms = util;
                if (algo == Algorithm::kCollective)
                    u_coll = util;
                if (algo == Algorithm::kWang)
                    u_wang = util;
            }
            table.addRow(row);
            sum_ms += u_ms;
            sum_coll += u_coll;
            sum_wang += u_wang;
            ++count;
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Average MeshSlice speedup over Collective: "
              << Table::pct(sum_ms / sum_coll - 1.0)
              << " (paper: 27.8%)\n";
    std::cout << "Average MeshSlice speedup over Wang:       "
              << Table::pct(sum_ms / sum_wang - 1.0)
              << " (paper: 19.1%)\n";
    return 0;
}
