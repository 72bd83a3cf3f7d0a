/**
 * @file
 * Plan pin: the tuners' decisions and estimates, recorded as hex floats
 * and compared as exact strings. It covers
 *  - the phase-2 pick of `tune` and `tuneForAlgorithm` for every 2D
 *    algorithm at 16, 64 and 256 chips, with and without phase-1
 *    dataflow selection;
 *  - the ranked shortlist `rankShapes(k = 4)`;
 *  - the phase-3 pipeline search on a tiny model: every candidate's
 *    analytic and simulated step and the pick;
 *  - `estimateClusterStep` on the Sec 2.2 plans of `sec22_3d_cluster`.
 *
 * A plan line carries the mesh shape, each GeMM's dataflow and slice
 * count, and the summed estimate (which folds in every per-GeMM
 * estimate). A refactor of the tuners must leave every line unchanged.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tuner/autotuner.hpp"
#include "tuner/cluster_plan.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "util/logging.hpp"

namespace meshslice {
namespace {

const LlmAutotuner &
pinTuner()
{
    static const LlmAutotuner tuner(CostModel::calibrated(tpuV4Config()));
    return tuner;
}

std::string
planLine(const std::string &what, const AutotuneResult &plan)
{
    std::string line = strprintf("%s: %dx%d fc=%a", what.c_str(), plan.rows,
                                 plan.cols, plan.blockFcTime);
    for (const GemmPlan &p : plan.allPlans())
        line += strprintf(" %s/%d", dataflowName(p.dataflow), p.sliceCount);
    return line;
}

/** Every pinned line, in a fixed order. */
std::vector<std::string>
planPinLines()
{
    const LlmAutotuner &tuner = pinTuner();
    const TransformerConfig gpt3 = gpt3Config();
    std::vector<std::string> lines;

    for (int chips : {16, 64, 256}) {
        const TrainingConfig train = TrainingConfig::weakScaling(chips);
        for (bool opt : {false, true}) {
            lines.push_back(planLine(
                strprintf("tune %d opt=%d", chips, opt),
                tuner.tune(gpt3, train, chips, opt)));
            for (Algorithm algo : all2DAlgorithms())
                lines.push_back(planLine(
                    strprintf("%s %d opt=%d", algorithmName(algo), chips,
                              opt),
                    tuner.tuneForAlgorithm(algo, gpt3, train, chips, opt)));
        }
    }

    for (Algorithm algo :
         {Algorithm::kMeshSlice, Algorithm::kWang, Algorithm::kSumma})
        for (int chips : {64, 256}) {
            const std::vector<AutotuneResult> ranked = tuner.rankShapes(
                algo, gpt3, TrainingConfig::weakScaling(chips), chips, 4);
            for (size_t i = 0; i < ranked.size(); ++i)
                lines.push_back(planLine(
                    strprintf("rank %s %d #%zu", algorithmName(algo), chips,
                              i),
                    ranked[i]));
        }

    TransformerConfig tiny;
    tiny.name = "tiny";
    tiny.layers = 8;
    tiny.hiddenDim = 1024;
    tiny.heads = 16;
    tiny.ffnDim = 4096;
    const PipelineTuneResult pipe = tunePipeline(
        tuner, tiny, TrainingConfig{16, 512}, 8, PipelineTuneConfig{});
    for (const PipelineCandidate &c : pipe.candidates)
        lines.push_back(strprintf(
            "pipeline pp=%d dp=%d tp=%dx%d m=%d rc=%d est=%a sim=%a",
            c.axes.pp, c.axes.dp, c.axes.tpRows, c.axes.tpCols,
            c.axes.microBatches, c.axes.recompute, c.estTotal, c.simTotal));
    lines.push_back(strprintf("pipeline pick=%d pruned=%zu",
                              pipe.pickedIndex, pipe.pruned.size()));

    const ClusterPlan sec22[] = {
        {32, 16, 1, 8, true},   {64, 8, 1, 8, true},
        {8, 16, 8, 4, false},   {4, 8, 16, 8, false},
        {4, 4, 32, 8, false},   {2, 4, 32, 16, false},
    };
    for (const ClusterPlan &p : sec22) {
        const ClusterStepCost s = estimateClusterStep(
            tuner.cost(), gpt3, TrainingConfig{2048, 2048}, p);
        lines.push_back(strprintf(
            "sec22 dp=%d pp=%d tp=%dx%d%s: block=%a pipe=%a dp=%a "
            "step=%a util=%a bytes=%lld",
            p.dp, p.pp, p.tpRows, p.tpCols, p.oneD ? " 1D" : "",
            s.tpBlockTime, s.pipelineTime, s.dpTime, s.stepTime,
            s.utilization, static_cast<long long>(s.dpBytesPerChip)));
    }
    return lines;
}

// Recorded from the tuners before the phase-2 search was unified.
const char *const kPinned[] = {
    "tune 16 opt=0: 4x4 fc=0x1.7a429880cd046p-5 OS/12 LS/24 RS/24 OS/6 "
        "LS/8 RS/8 OS/12 LS/32 RS/32 OS/12 LS/16 RS/16",
    "MeshSlice 16 opt=0: 4x4 fc=0x1.7a429880cd046p-5 OS/12 LS/24 RS/24 "
        "OS/6 LS/8 RS/8 OS/12 LS/32 RS/32 OS/12 LS/16 RS/16",
    "Collective 16 opt=0: 4x4 fc=0x1.6ba91ff94b994p-4 OS/1 LS/1 RS/1 "
        "OS/1 LS/1 RS/1 OS/1 LS/1 RS/1 OS/1 LS/1 RS/1",
    "Wang 16 opt=0: 4x4 fc=0x1.fbad802db28e3p-5 OS/12 LS/32 RS/32 OS/12 "
        "LS/12 RS/12 OS/12 LS/32 RS/32 OS/48 LS/48 RS/48",
    "SUMMA 16 opt=0: 4x4 fc=0x1.68fa3979e6f08p-4 OS/4 LS/4 RS/4 OS/4 "
        "LS/4 RS/4 OS/4 LS/4 RS/4 OS/4 LS/4 RS/4",
    "Cannon 16 opt=0: 4x4 fc=0x1.1eecface0000bp-4 OS/4 OS/4 OS/4 OS/4 "
        "OS/4 OS/4 OS/4 OS/4 OS/4 OS/4 OS/4 OS/4",
    "OneSided 16 opt=0: 4x4 fc=0x1.fc5d1cf678df7p-5 OS/12 OS/12 OS/16 "
        "OS/8 OS/8 OS/8 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "tune 16 opt=1: 4x4 fc=0x1.6b610687ec81ep-5 OS/12 LS/24 RS/24 OS/6 "
        "LS/8 RS/8 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "MeshSlice 16 opt=1: 4x4 fc=0x1.6b610687ec81ep-5 OS/12 LS/24 RS/24 "
        "OS/6 LS/8 RS/8 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "Collective 16 opt=1: 2x8 fc=0x1.419c7f0a428d1p-4 OS/1 LS/1 RS/1 "
        "OS/1 LS/1 RS/1 OS/1 LS/1 RS/1 LS/1 OS/1 RS/1",
    "Wang 16 opt=1: 4x4 fc=0x1.c5cd5d63f3b13p-5 OS/12 LS/32 RS/32 OS/12 "
        "LS/12 RS/12 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "SUMMA 16 opt=1: 2x8 fc=0x1.46a8fd0cb0cc3p-4 OS/8 LS/8 RS/8 OS/8 "
        "LS/8 RS/8 OS/8 LS/8 RS/8 LS/8 OS/8 RS/8",
    "Cannon 16 opt=1: 4x4 fc=0x1.1eecface0000bp-4 OS/4 OS/4 OS/4 OS/4 "
        "OS/4 OS/4 OS/4 OS/4 OS/4 OS/4 OS/4 OS/4",
    "OneSided 16 opt=1: 4x4 fc=0x1.fc5d1cf678df7p-5 OS/12 OS/12 OS/16 "
        "OS/8 OS/8 OS/8 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "tune 64 opt=0: 16x4 fc=0x1.8142cec48c725p-5 OS/12 LS/16 RS/16 OS/6 "
        "LS/8 RS/8 OS/12 LS/16 RS/16 OS/12 LS/16 RS/16",
    "MeshSlice 64 opt=0: 16x4 fc=0x1.8142cec48c725p-5 OS/12 LS/16 RS/16 "
        "OS/6 LS/8 RS/8 OS/12 LS/16 RS/16 OS/12 LS/16 RS/16",
    "Collective 64 opt=0: 16x4 fc=0x1.6ce3b29c50ec7p-4 OS/1 LS/1 RS/1 "
        "OS/1 LS/1 RS/1 OS/1 LS/1 RS/1 OS/1 LS/1 RS/1",
    "Wang 64 opt=0: 16x4 fc=0x1.fe77b6a77f1e7p-5 OS/12 LS/32 RS/32 "
        "OS/12 LS/12 RS/12 OS/12 LS/32 RS/32 OS/48 LS/48 RS/48",
    "SUMMA 64 opt=0: 16x4 fc=0x1.cd91ebd1e7249p-4 OS/16 LS/16 RS/16 "
        "OS/16 LS/16 RS/16 OS/16 LS/16 RS/16 OS/16 LS/16 RS/16",
    "Cannon 64 opt=0: 8x8 fc=0x1.b7262caacb441p-4 OS/8 OS/8 OS/8 OS/8 "
        "OS/8 OS/8 OS/8 OS/8 OS/8 OS/8 OS/8 OS/8",
    "OneSided 64 opt=0: 8x8 fc=0x1.5afe460c5c25bp-3 OS/12 OS/12 OS/16 "
        "OS/8 OS/8 OS/8 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "tune 64 opt=1: 16x4 fc=0x1.74ea8ee918947p-5 OS/12 LS/16 RS/16 OS/6 "
        "LS/8 RS/8 OS/12 LS/16 RS/16 LS/16 OS/12 RS/16",
    "MeshSlice 64 opt=1: 16x4 fc=0x1.74ea8ee918947p-5 OS/12 LS/16 RS/16 "
        "OS/6 LS/8 RS/8 OS/12 LS/16 RS/16 LS/16 OS/12 RS/16",
    "Collective 64 opt=1: 8x8 fc=0x1.421a534b77e18p-4 OS/1 LS/1 RS/1 "
        "OS/1 LS/1 RS/1 OS/1 LS/1 RS/1 LS/1 OS/1 RS/1",
    "Wang 64 opt=1: 16x4 fc=0x1.c89b3f9ae528ep-5 OS/12 LS/32 RS/32 "
        "OS/12 LS/12 RS/12 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "SUMMA 64 opt=1: 8x8 fc=0x1.46a8fd0cb0cc3p-4 OS/8 LS/8 RS/8 OS/8 "
        "LS/8 RS/8 OS/8 LS/8 RS/8 LS/8 OS/8 RS/8",
    "Cannon 64 opt=1: 8x8 fc=0x1.b7262caacb441p-4 OS/8 OS/8 OS/8 OS/8 "
        "OS/8 OS/8 OS/8 OS/8 OS/8 OS/8 OS/8 OS/8",
    "OneSided 64 opt=1: 8x8 fc=0x1.5afe460c5c25bp-3 OS/12 OS/12 OS/16 "
        "OS/8 OS/8 OS/8 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "tune 256 opt=0: 64x4 fc=0x1.ae873db35023ap-5 OS/6 LS/6 RS/6 OS/3 "
        "LS/4 RS/4 OS/6 LS/6 RS/6 OS/8 LS/8 RS/8",
    "MeshSlice 256 opt=0: 64x4 fc=0x1.ae873db35023ap-5 OS/6 LS/6 RS/6 "
        "OS/3 LS/4 RS/4 OS/6 LS/6 RS/6 OS/8 LS/8 RS/8",
    "Collective 256 opt=0: 64x4 fc=0x1.71cdfd286638fp-4 OS/1 LS/1 RS/1 "
        "OS/1 LS/1 RS/1 OS/1 LS/1 RS/1 OS/1 LS/1 RS/1",
    "Wang 256 opt=0: 64x4 fc=0x1.02d731b615d36p-4 OS/12 LS/24 RS/24 "
        "OS/12 LS/12 RS/12 OS/12 LS/24 RS/24 OS/48 LS/48 RS/48",
    "SUMMA 256 opt=0: 32x8 fc=0x1.5abf579823515p-3 OS/48 LS/48 RS/48 "
        "OS/48 LS/48 RS/48 OS/48 LS/48 RS/48 OS/32 LS/32 RS/32",
    "Cannon 256 opt=0: 16x16 fc=0x1.94edfae66d1dap-3 OS/16 OS/16 OS/16 "
        "OS/16 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "OneSided 256 opt=0: 16x16 fc=0x1.32a69051d4f75p-1 OS/12 OS/12 "
        "OS/16 OS/8 OS/8 OS/8 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "tune 256 opt=1: 32x8 fc=0x1.8d3fcdedea53cp-5 OS/12 LS/16 RS/16 "
        "OS/6 LS/6 RS/6 OS/12 LS/24 RS/24 LS/24 OS/12 RS/24",
    "MeshSlice 256 opt=1: 32x8 fc=0x1.8d3fcdedea53cp-5 OS/12 LS/16 "
        "RS/16 OS/6 LS/6 RS/6 OS/12 LS/24 RS/24 LS/24 OS/12 RS/24",
    "Collective 256 opt=1: 32x8 fc=0x1.4411a4504d337p-4 OS/1 LS/1 RS/1 "
        "OS/1 LS/1 RS/1 OS/1 LS/1 RS/1 LS/1 OS/1 RS/1",
    "Wang 256 opt=1: 64x4 fc=0x1.cd9f5cf7469cdp-5 OS/12 LS/24 RS/24 "
        "OS/12 LS/12 RS/12 OS/12 LS/24 RS/24 LS/24 OS/12 RS/24",
    "SUMMA 256 opt=1: 32x8 fc=0x1.0c3ea2606a8ddp-3 OS/48 LS/48 RS/48 "
        "OS/48 LS/48 RS/48 OS/48 LS/48 RS/48 LS/48 OS/48 RS/48",
    "Cannon 256 opt=1: 16x16 fc=0x1.94edfae66d1dap-3 OS/16 OS/16 OS/16 "
        "OS/16 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "OneSided 256 opt=1: 16x16 fc=0x1.32a69051d4f75p-1 OS/12 OS/12 "
        "OS/16 OS/8 OS/8 OS/8 OS/16 OS/16 OS/16 OS/16 OS/16 OS/16",
    "rank MeshSlice 64 #0: 16x4 fc=0x1.74ea8ee918947p-5 OS/12 LS/16 "
        "RS/16 OS/6 LS/8 RS/8 OS/12 LS/16 RS/16 LS/16 OS/12 RS/16",
    "rank MeshSlice 64 #1: 8x8 fc=0x1.86917de44880ap-5 OS/12 LS/24 "
        "RS/24 OS/6 LS/6 RS/6 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "rank MeshSlice 64 #2: 4x16 fc=0x1.0b0f9ed9b0804p-4 OS/8 LS/8 RS/8 "
        "OS/4 LS/4 RS/4 OS/8 LS/8 RS/8 LS/8 OS/8 RS/8",
    "rank MeshSlice 64 #3: 32x2 fc=0x1.338d76d1a24cbp-4 OS/6 LS/6 RS/6 "
        "OS/3 LS/4 RS/4 OS/6 LS/8 RS/8 LS/8 OS/6 RS/8",
    "rank MeshSlice 256 #0: 32x8 fc=0x1.8d3fcdedea53cp-5 OS/12 LS/16 "
        "RS/16 OS/6 LS/6 RS/6 OS/12 LS/24 RS/24 LS/24 OS/12 RS/24",
    "rank MeshSlice 256 #1: 64x4 fc=0x1.a686c93f076dp-5 OS/6 LS/6 RS/6 "
        "OS/3 LS/4 RS/4 OS/6 LS/6 RS/6 LS/6 OS/6 RS/6",
    "rank MeshSlice 256 #2: 16x16 fc=0x1.0c0b475c1b293p-4 OS/8 LS/8 "
        "RS/8 OS/4 LS/4 RS/4 OS/8 LS/8 RS/8 LS/8 OS/8 RS/8",
    "rank MeshSlice 256 #3: 128x2 fc=0x1.6586cf74f4a2cp-4 OS/3 LS/3 "
        "RS/3 OS/2 LS/2 RS/2 OS/4 LS/4 RS/4 LS/4 OS/4 RS/4",
    "rank Wang 64 #0: 16x4 fc=0x1.c89b3f9ae528ep-5 OS/12 LS/32 RS/32 "
        "OS/12 LS/12 RS/12 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "rank Wang 64 #1: 8x8 fc=0x1.f44735699a3a9p-5 OS/12 LS/32 RS/32 "
        "OS/6 LS/6 RS/6 OS/12 LS/32 RS/32 LS/32 OS/12 RS/32",
    "rank Wang 64 #2: 4x16 fc=0x1.0b1b0d258acc4p-4 OS/12 LS/12 RS/12 "
        "OS/6 LS/6 RS/6 OS/12 LS/16 RS/16 LS/16 OS/12 RS/16",
    "rank Wang 64 #3: 32x2 fc=0x1.2869a1768f5a1p-4 OS/12 LS/12 RS/12 "
        "OS/6 LS/6 RS/6 OS/12 LS/12 RS/12 LS/12 OS/12 RS/12",
    "rank Wang 256 #0: 64x4 fc=0x1.cd9f5cf7469cdp-5 OS/12 LS/24 RS/24 "
        "OS/12 LS/12 RS/12 OS/12 LS/24 RS/24 LS/24 OS/12 RS/24",
    "rank Wang 256 #1: 32x8 fc=0x1.fb2db5f6b60d9p-5 OS/12 LS/24 RS/24 "
        "OS/6 LS/6 RS/6 OS/12 LS/24 RS/24 LS/24 OS/12 RS/24",
    "rank Wang 256 #2: 16x16 fc=0x1.0c9489e92ac9ap-4 OS/12 LS/12 RS/12 "
        "OS/6 LS/6 RS/6 OS/12 LS/16 RS/16 LS/16 OS/12 RS/16",
    "rank Wang 256 #3: 128x2 fc=0x1.2e35f8ae82dc2p-4 OS/12 LS/12 RS/12 "
        "OS/6 LS/6 RS/6 OS/12 LS/12 RS/12 LS/12 OS/12 RS/12",
    "rank SUMMA 64 #0: 8x8 fc=0x1.46a8fd0cb0cc3p-4 OS/8 LS/8 RS/8 OS/8 "
        "LS/8 RS/8 OS/8 LS/8 RS/8 LS/8 OS/8 RS/8",
    "rank SUMMA 64 #1: 16x4 fc=0x1.cd9bc0899136bp-4 OS/16 LS/16 RS/16 "
        "OS/16 LS/16 RS/16 OS/16 LS/16 RS/16 LS/16 OS/16 RS/16",
    "rank SUMMA 64 #2: 4x16 fc=0x1.64e8f3974db88p-3 OS/16 LS/16 RS/16 "
        "OS/16 LS/16 RS/16 OS/16 LS/16 RS/16 LS/16 OS/16 RS/16",
    "rank SUMMA 64 #3: 32x2 fc=0x1.18083bc0444fcp-2 OS/48 LS/48 RS/48 "
        "OS/48 LS/48 RS/48 OS/48 LS/48 RS/48 LS/48 OS/48 RS/48",
    "rank SUMMA 256 #0: 32x8 fc=0x1.0c3ea2606a8ddp-3 OS/48 LS/48 RS/48 "
        "OS/48 LS/48 RS/48 OS/48 LS/48 RS/48 LS/48 OS/48 RS/48",
    "rank SUMMA 256 #1: 16x16 fc=0x1.64e8f3974db88p-3 OS/16 LS/16 RS/16 "
        "OS/16 LS/16 RS/16 OS/16 LS/16 RS/16 LS/16 OS/16 RS/16",
    "rank SUMMA 256 #2: 64x4 fc=0x1.722c6b722df59p-2 OS/24 LS/24 RS/24 "
        "OS/24 LS/24 RS/24 OS/24 LS/24 RS/24 LS/24 OS/24 RS/24",
    "rank SUMMA 256 #3: 8x32 fc=0x1.a40e9ec5e343ap-2 OS/48 LS/48 RS/48 "
        "OS/48 LS/48 RS/48 OS/48 LS/48 RS/48 LS/48 OS/48 RS/48",
    "pipeline pp=1 dp=8 tp=1x1 m=1 rc=0 est=0x1.8a8b1ebb3a5f8p-8 "
        "sim=0x1.8a8b1ebb3a5f8p-8",
    "pipeline pp=2 dp=4 tp=1x1 m=4 rc=0 est=0x1.a4d2e828e502ap-8 "
        "sim=0x1.a4d2e828e502ap-8",
    "pipeline pp=4 dp=2 tp=1x1 m=8 rc=0 est=0x1.c351f83144694p-8 "
        "sim=0x1.c351f83144694p-8",
    "pipeline pp=2 dp=4 tp=1x1 m=2 rc=0 est=0x1.c3fa34882552ap-8 "
        "sim=0x1.c3fa34882552ap-8",
    "pipeline pp=8 dp=1 tp=1x1 m=16 rc=0 est=0x1.f1d96f9f1bdeep-8 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=2 tp=1x1 m=4 rc=0 est=0x1.ff3faebcd0c14p-8 "
        "sim=-0x1p+0",
    "pipeline pp=8 dp=1 tp=1x1 m=8 rc=0 est=0x1.1ebb5b90606ecp-7 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=4 tp=1x1 m=1 rc=0 est=0x1.225f7c753d219p-7 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=2 tp=1x1 m=2 rc=0 est=0x1.5c0d63f92a564p-7 "
        "sim=-0x1p+0",
    "pipeline pp=1 dp=4 tp=1x2 m=1 rc=0 est=0x1.8270410341da1p-7 "
        "sim=-0x1p+0",
    "pipeline pp=8 dp=1 tp=1x1 m=4 rc=0 est=0x1.941671f66a797p-7 "
        "sim=-0x1p+0",
    "pipeline pp=1 dp=2 tp=4x1 m=1 rc=0 est=0x1.c8142b1f75a5fp-7 "
        "sim=-0x1p+0",
    "pipeline pp=1 dp=1 tp=8x1 m=1 rc=0 est=0x1.d464446ee20d8p-7 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=2 tp=1x2 m=2 rc=0 est=0x1.115bc3afe66fp-6 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=2 tp=1x1 m=1 rc=0 est=0x1.132f153ff8d46p-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=2 tp=1x2 m=4 rc=0 est=0x1.17b40b18b4dcbp-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=2 tp=2x1 m=1 rc=0 est=0x1.19c3bc37b2829p-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=1 tp=4x1 m=1 rc=0 est=0x1.1aad9b7d2fdcp-6 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=1 tp=1x2 m=8 rc=0 est=0x1.315fb6d6fd99cp-6 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=1 tp=1x2 m=4 rc=0 est=0x1.3c1de1f00ab9p-6 "
        "sim=-0x1p+0",
    "pipeline pp=8 dp=1 tp=1x1 m=2 rc=0 est=0x1.4354f16ae9eb6p-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=1 tp=4x1 m=2 rc=0 est=0x1.49e21cc35220ep-6 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=1 tp=2x1 m=2 rc=0 est=0x1.5abb72ccfebfp-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=1 tp=1x4 m=4 rc=0 est=0x1.7f8cd956fe246p-6 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=1 tp=2x1 m=1 rc=0 est=0x1.8327a73a6b43dp-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=2 tp=1x2 m=8 rc=0 est=0x1.9ed04df697a05p-6 "
        "sim=-0x1p+0",
    "pipeline pp=4 dp=1 tp=1x2 m=16 rc=0 est=0x1.b5e5520d989bdp-6 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=1 tp=1x4 m=8 rc=0 est=0x1.c537379a882dep-6 "
        "sim=-0x1p+0",
    "pipeline pp=8 dp=1 tp=1x1 m=1 rc=0 est=0x1.225f7c753d219p-5 "
        "sim=-0x1p+0",
    "pipeline pp=2 dp=1 tp=1x4 m=16 rc=0 est=0x1.7f6e8f70a9b19p-5 "
        "sim=-0x1p+0",
    "pipeline pick=0 pruned=0",
    "sec22 dp=32 pp=16 tp=1x8 1D: block=0x1.de00f9629456p-1 "
        "pipe=0x1.01ac866f23f66p+4 dp=0x1.f06b2b7fdd1b7p-6 "
        "step=0x1.0228a13a03edap+4 util=0x1.f2b95d76b3eeep-3 "
        "bytes=2717908992",
    "sec22 dp=64 pp=8 tp=1x8 1D: block=0x1.e0dc3a34984eap-2 "
        "pipe=0x1.521ad8ecfb175p+3 dp=0x1.f0413a14cb54ap-5 "
        "step=0x1.540b1a270fe2ap+3 util=0x1.7aa0c98855d5cp-2 "
        "bytes=5435817984",
    "sec22 dp=8 pp=16 tp=8x4: block=0x1.754a158aa0425p-1 "
        "pipe=0x1.9273df3974c78p+3 dp=0x1.f166d40247c46p-8 "
        "step=0x1.92b20c13f5108p+3 util=0x1.3fb86c376a52dp-2 "
        "bytes=679477248",
    "sec22 dp=4 pp=8 tp=16x8: block=0x1.96a1683aa364dp-2 "
        "pipe=0x1.1de97d493ae2ep+3 dp=0x1.f2b65f5ad5fafp-9 "
        "step=0x1.1e08a8af30904p+3 util=0x1.c21f18c74430bp-2 "
        "bytes=339738624",
    "sec22 dp=4 pp=4 tp=32x8: block=0x1.9b686bc3acc1dp-3 "
        "pipe=0x1.a843af21ca27ep+2 dp=0x1.f2b65f5ad5fafp-9 "
        "step=0x1.a88205edb582ap+2 util=0x1.2f4ad240979b4p-1 "
        "bytes=339738624",
    "sec22 dp=2 pp=4 tp=32x16: block=0x1.02974ae999ap-2 "
        "pipe=0x1.0aac0540e66dp+3 dp=0x1.f555760bf2681p-10 "
        "step=0x1.0abbafec96cc9p+3 util=0x1.e2b1288c8704fp-2 "
        "bytes=169869312",
};

TEST(PlanPin, TunerOutputsMatchRecordedHexFloats)
{
    const std::vector<std::string> got = planPinLines();
    ASSERT_EQ(got.size(), std::size(kPinned));
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], kPinned[i]);
}

} // namespace
} // namespace meshslice
