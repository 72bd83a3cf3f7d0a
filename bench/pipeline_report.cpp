/**
 * @file
 * Pipeline-parallelism report: GPipe / 1F1B / interleaved-1F1B composed
 * with MeshSlice 2D TP and DP into full 3D training plans.
 *
 *  - Closed-form section: a uniform, zero-comm GPipe run whose
 *    simulated bubble must equal (P-1)/(m+P-1) exactly, plus a
 *    peak-stash table showing 1F1B stashes strictly fewer in-flight
 *    micro-batches than GPipe at equal micro-batch count.
 *  - Per model (GPT-3 and Megatron-NLG), each at a chip count whose
 *    factors fit the model's dimensions and layer count:
 *      * schedule comparison at fixed (pp, dp, m): simulated span,
 *        bubble fraction, peak stash and per-chip stage memory of the
 *        three schedules;
 *      * micro-batch sweep at fixed (pp, dp): 1F1B bubble shrinking as
 *        m grows;
 *      * TP-vs-PP frontier: the best (dp, m) plan of every feasible
 *        pipeline depth at the fixed chip count;
 *      * the phase-3 tuner pick, with every simulated shortlist plan's
 *        analytic estimate checked against the simulator (<= 15%);
 *      * pp=1 degeneracy: the phase-3 candidate at (pp=1, dp=1, m=1)
 *        must reproduce the plain 2D autotuner's plan bit-identically,
 *        and its pipeline span must collapse to the 2D step formula.
 *
 * Emits `BENCH_pipeline.json` plus the `pipeline_search.jsonl` phase-3
 * search trace (every candidate, pruned or evaluated, and the pick) in
 * the working directory. `--smoke` shrinks the micro-batch sweeps and
 * the simulated shortlist but keeps the JSON schema.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "pipeline/stage_model.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace meshslice;

namespace {

/** One simulated fixed-axes plan: the evaluated candidate plus the
 *  discrete-event run (for the bubble decomposition). */
struct SimPoint
{
    PipelineCandidate cand;
    PipelineRunResult run;
    bool ok = false;
};

SimPoint
simulateAxes(const LlmAutotuner &tuner, const TransformerConfig &model,
             const TrainingConfig &train, const PipelineAxes &axes,
             const PipelineTuneConfig &pcfg)
{
    SimPoint p;
    p.cand = evaluatePipelineCandidate(tuner, model, train, axes, pcfg);
    if (!p.cand.feasible)
        return p;
    p.run = simulatePipelineCandidate(tuner, model, train, p.cand, pcfg);
    p.ok = true;
    return p;
}

/** Micro-batch counts to sweep: divisors of the per-replica batch up
 *  to @p cap, thinned to at most 9 points. */
std::vector<int>
microBatchSweepPoints(std::int64_t per_replica, int cap)
{
    std::vector<int> ms;
    for (int m = 1; m <= cap; ++m)
        if (per_replica % m == 0)
            ms.push_back(m);
    if (ms.size() <= 9)
        return ms;
    std::vector<int> thin;
    const size_t n = ms.size();
    for (int i = 0; i < 9; ++i) {
        const size_t idx = (i * (n - 1) + 4) / 8;
        if (thin.empty() || thin.back() != ms[idx])
            thin.push_back(ms[idx]);
    }
    return thin;
}

/** Fixed axes of one model's schedule-comparison / sweep sections. */
struct ModelStudyConfig
{
    TransformerConfig model;
    int chips = 0;     ///< pipeline studies run on this many chips
    int tpRefChips = 0; ///< chip count of the pp=1 degeneracy check
    int pp = 0;        ///< pipeline depth of comparison + sweep
    int dp = 1;
    int microBatches = 0;     ///< comparison micro-batch count
    int interleavedChunks = 1; ///< V of the interleaved row
};

struct ScheduleRow
{
    PipelineSchedule schedule;
    int chunks = 1;
    bool feasible = false;
    std::string reason;
    Time est = 0.0;
    Time sim = 0.0;
    double bubble = 0.0;
    int peakStash = 0;
    Bytes stageMem = 0;
    bool recompute = false;
};

struct SweepPoint
{
    int m = 0;
    Time est = 0.0;
    Time sim = 0.0;
    double bubble = 0.0;
    bool recompute = false;
};

struct FrontierRow
{
    PipelineAxes axes;
    Time est = 0.0;
    Time sim = -1.0; ///< < 0 = not simulated (smoke mode)
    Bytes stageMem = 0;
    bool recompute = false;
};

/** Everything one model contributes to the report. */
struct ModelReport
{
    ModelStudyConfig cfg;
    std::vector<ScheduleRow> schedules;
    bool stashStrict = false; ///< 1F1B stash < GPipe stash
    std::vector<SweepPoint> sweep;
    bool bubbleShrinks = false;
    std::vector<FrontierRow> frontier;
    PipelineCandidate tuned; ///< the phase-3 pick
    int tunedCandidates = 0;
    int tunedPruned = 0;
    double maxEstSimRelErr = 0.0;
    bool estWithin15 = false;
    bool pp1Identical = false;
    Time pp1Span = 0.0;
    Time pp1Expected = 0.0;
};

double
relErr(Time est, Time sim)
{
    return sim > 0.0 ? std::abs(est - sim) / sim : 0.0;
}

/** Bitwise plan equality between the phase-3 pp=1 candidate's TP plan
 *  and the plain 2D autotuner output. */
bool
plansIdentical(const AutotuneResult &a, const AutotuneResult &b)
{
    if (a.rows != b.rows || a.cols != b.cols ||
        a.blockFcTime != b.blockFcTime)
        return false;
    const std::vector<GemmPlan> pa = a.allPlans();
    const std::vector<GemmPlan> pb = b.allPlans();
    if (pa.size() != pb.size())
        return false;
    for (size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].dataflow != pb[i].dataflow ||
            pa[i].sliceCount != pb[i].sliceCount ||
            pa[i].estTime != pb[i].estTime ||
            pa[i].gemm.name != pb[i].gemm.name)
            return false;
    }
    return true;
}

ModelReport
studyModel(const LlmAutotuner &tuner, const ModelStudyConfig &mcfg,
           bool smoke)
{
    const ChipConfig &cfg = tuner.cost().chip();
    const TransformerConfig &model = mcfg.model;
    const TrainingConfig train = TrainingConfig::weakScaling(mcfg.chips);

    ModelReport rep;
    rep.cfg = mcfg;

    PipelineTuneConfig pcfg;
    pcfg.maxMicroBatches = smoke ? 8 : 32;
    pcfg.topK = smoke ? 2 : 4;

    std::cout << "=== " << model.name << " on " << mcfg.chips
              << " chips (batch " << train.batch << ", "
              << model.layers << " layers) ===\n";

    // ---- Schedule comparison at fixed (pp, dp, m).
    auto makeAxes = [&](PipelineSchedule sched, int chunks) {
        PipelineAxes axes;
        axes.pp = mcfg.pp;
        axes.dp = mcfg.dp;
        axes.tpRows = 1;
        axes.tpCols = mcfg.chips / (mcfg.pp * mcfg.dp);
        axes.microBatches = mcfg.microBatches;
        axes.schedule = sched;
        axes.chunks = chunks;
        return axes;
    };
    const std::vector<std::pair<PipelineSchedule, int>> sched_specs = {
        {PipelineSchedule::kGPipe, 1},
        {PipelineSchedule::k1F1B, 1},
        {PipelineSchedule::kInterleaved1F1B, mcfg.interleavedChunks},
    };
    for (const auto &[sched, chunks] : sched_specs) {
        ScheduleRow row;
        row.schedule = sched;
        row.chunks = chunks;
        const PipelineAxes axes = makeAxes(sched, chunks);
        std::string why;
        if (!axesFeasible(model, train, axes, &why)) {
            row.reason = why;
            rep.schedules.push_back(row);
            continue;
        }
        const SimPoint p = simulateAxes(tuner, model, train, axes, pcfg);
        if (!p.ok) {
            row.reason = p.cand.reason;
            rep.schedules.push_back(row);
            continue;
        }
        row.feasible = true;
        row.est = p.cand.estTotal;
        row.sim = p.cand.simTotal;
        row.bubble = p.run.bubbleFraction;
        row.peakStash = p.cand.peakStash;
        row.stageMem = p.cand.stageMemoryBytes;
        row.recompute = p.cand.axes.recompute;
        rep.schedules.push_back(row);
    }
    const ScheduleRow &gpipe_row = rep.schedules[0];
    const ScheduleRow &ofob_row = rep.schedules[1];
    rep.stashStrict = gpipe_row.feasible && ofob_row.feasible &&
                      ofob_row.peakStash < gpipe_row.peakStash;

    Table sched_table({"schedule", "chunks", "sim_ms", "bubble",
                       "peak_stash", "stage_mem_GiB", "recompute"});
    for (const ScheduleRow &row : rep.schedules) {
        if (!row.feasible) {
            sched_table.addRow({pipelineScheduleName(row.schedule),
                                Table::num(row.chunks, 0), "-", "-", "-",
                                "-", row.reason});
            continue;
        }
        sched_table.addRow(
            {pipelineScheduleName(row.schedule), Table::num(row.chunks, 0),
             Table::num(row.sim * 1e3, 3), Table::num(row.bubble, 4),
             Table::num(row.peakStash, 0),
             Table::num(static_cast<double>(row.stageMem) / GiB(1.0), 2),
             row.recompute ? "yes" : "no"});
    }
    std::cout << "schedule comparison (pp=" << mcfg.pp << ", dp="
              << mcfg.dp << ", m=" << mcfg.microBatches
              << ", 1F1B stash < GPipe: "
              << (rep.stashStrict ? "yes" : "NO") << "):\n";
    sched_table.print(std::cout);
    std::cout << "\n";

    // ---- Micro-batch sweep (1F1B) at the same (pp, dp).
    const std::int64_t per_replica = train.batch / mcfg.dp;
    const std::vector<int> sweep_ms =
        microBatchSweepPoints(per_replica, smoke ? 8 : 64);
    for (int m : sweep_ms) {
        PipelineAxes axes = makeAxes(PipelineSchedule::k1F1B, 1);
        axes.microBatches = m;
        std::string why;
        if (!axesFeasible(model, train, axes, &why))
            continue;
        const SimPoint p = simulateAxes(tuner, model, train, axes, pcfg);
        if (!p.ok)
            continue;
        SweepPoint pt;
        pt.m = m;
        pt.est = p.cand.estTotal;
        pt.sim = p.cand.simTotal;
        pt.bubble = p.run.bubbleFraction;
        pt.recompute = p.cand.axes.recompute;
        rep.sweep.push_back(pt);
    }
    if (rep.sweep.size() >= 2)
        rep.bubbleShrinks =
            rep.sweep.back().bubble < rep.sweep.front().bubble;
    Table sweep_table({"m", "sim_ms", "bubble"});
    for (const SweepPoint &pt : rep.sweep)
        sweep_table.addRow({Table::num(pt.m, 0),
                            Table::num(pt.sim * 1e3, 3),
                            Table::num(pt.bubble, 4)});
    std::cout << "micro-batch sweep (1F1B, pp=" << mcfg.pp
              << ", bubble shrinks: "
              << (rep.bubbleShrinks ? "yes" : "NO") << "):\n";
    sweep_table.print(std::cout);
    std::cout << "\n";

    // ---- Phase-3 search: every (pp, dp, tp, m) decomposition.
    const PipelineTuneResult tuned =
        tunePipeline(tuner, model, train, mcfg.chips, pcfg);
    rep.tuned = tuned.picked();
    rep.tunedCandidates = static_cast<int>(tuned.candidates.size());
    rep.tunedPruned = static_cast<int>(tuned.pruned.size());
    for (const PipelineCandidate &cand : tuned.candidates)
        if (cand.simTotal >= 0.0)
            rep.maxEstSimRelErr = std::max(
                rep.maxEstSimRelErr, relErr(cand.estTotal, cand.simTotal));

    // ---- TP-vs-PP frontier: best candidate of every pipeline depth.
    std::map<int, const PipelineCandidate *> best_by_pp;
    for (const PipelineCandidate &cand : tuned.candidates) {
        auto [it, inserted] = best_by_pp.try_emplace(cand.axes.pp, &cand);
        if (!inserted && cand.estTotal < it->second->estTotal)
            it->second = &cand;
    }
    for (const auto &[pp, cand] : best_by_pp) {
        FrontierRow row;
        row.axes = cand->axes;
        row.est = cand->estTotal;
        row.stageMem = cand->stageMemoryBytes;
        row.recompute = cand->axes.recompute;
        if (cand->simTotal >= 0.0) {
            row.sim = cand->simTotal;
        } else if (!smoke) {
            PipelineCandidate sim_cand = *cand;
            simulatePipelineCandidate(tuner, model, train, sim_cand, pcfg);
            row.sim = sim_cand.simTotal;
            rep.maxEstSimRelErr = std::max(
                rep.maxEstSimRelErr,
                relErr(sim_cand.estTotal, sim_cand.simTotal));
        }
        rep.frontier.push_back(row);
    }
    rep.estWithin15 = rep.maxEstSimRelErr <= 0.15;

    Table frontier_table({"pp", "dp", "tp", "mesh", "m", "est_ms",
                          "sim_ms", "recompute"});
    for (const FrontierRow &row : rep.frontier)
        frontier_table.addRow(
            {Table::num(row.axes.pp, 0), Table::num(row.axes.dp, 0),
             Table::num(row.axes.tpDegree(), 0),
             strprintf("%dx%d", row.axes.tpRows, row.axes.tpCols),
             Table::num(row.axes.microBatches, 0),
             Table::num(row.est * 1e3, 3),
             row.sim >= 0.0 ? Table::num(row.sim * 1e3, 3) : "-",
             row.recompute ? "yes" : "no"});
    std::cout << "TP-vs-PP frontier (" << rep.tunedCandidates
              << " candidates, " << rep.tunedPruned << " pruned):\n";
    frontier_table.print(std::cout);
    const PipelineCandidate &pick = rep.tuned;
    std::cout << "phase-3 pick: pp=" << pick.axes.pp << " dp="
              << pick.axes.dp << " tp=" << pick.axes.tpRows << "x"
              << pick.axes.tpCols << " m=" << pick.axes.microBatches
              << " (" << pipelineScheduleName(pick.axes.schedule)
              << (pick.axes.recompute ? ", recompute" : "") << "): "
              << Table::num(pick.simTotal * 1e3, 3) << " ms simulated, "
              << Table::num(pick.estTotal * 1e3, 3)
              << " ms analytic; max |est-sim|/sim = "
              << Table::num(rep.maxEstSimRelErr, 4) << " ("
              << (rep.estWithin15 ? "within 15%" : "OUT OF BOUND")
              << ")\n\n";

    // ---- pp=1 degeneracy against the plain 2D autotuner.
    const TrainingConfig ref_train =
        TrainingConfig::weakScaling(mcfg.tpRefChips);
    PipelineAxes ref_axes;
    ref_axes.pp = 1;
    ref_axes.dp = 1;
    ref_axes.microBatches = 1;
    ref_axes.tpRows = 1;
    ref_axes.tpCols = mcfg.tpRefChips;
    PipelineCandidate ref_cand = evaluatePipelineCandidate(
        tuner, model, ref_train, ref_axes, pcfg);
    if (!ref_cand.feasible)
        fatal("pipeline_report: pp=1 candidate infeasible for %s on %d "
              "chips: %s", model.name.c_str(), mcfg.tpRefChips,
              ref_cand.reason.c_str());
    simulatePipelineCandidate(tuner, model, ref_train, ref_cand, pcfg);
    const AutotuneResult direct =
        tuner.tune(model, ref_train, mcfg.tpRefChips);
    // Replicate the candidate's span arithmetic from the *independent*
    // 2D plan: with pp = dp = m = 1 the pipeline program is one forward
    // task and one backward task with no sends, so the span must be
    // exactly layers * (fwd + bwd [+ recompute fwd]).
    const Time bt = direct.blockFcTime +
                    nonFcBlockTime(cfg, model, ref_train, mcfg.tpRefChips);
    const Time fwd = (1.0 / 3.0) * bt;
    const Time bwd = bt - fwd;
    const double blocks = static_cast<double>(model.layers);
    rep.pp1Expected =
        blocks * fwd +
        blocks * (bwd + (ref_cand.axes.recompute ? fwd : 0.0));
    rep.pp1Span = ref_cand.estPipeline;
    rep.pp1Identical = plansIdentical(ref_cand.tpPlan, direct) &&
                       rep.pp1Span == rep.pp1Expected &&
                       relErr(ref_cand.estTotal, ref_cand.simTotal) < 1e-9;
    std::cout << "pp=1 degeneracy on " << mcfg.tpRefChips
              << " chips: plan " << ref_cand.tpPlan.rows << "x"
              << ref_cand.tpPlan.cols << " vs 2D autotuner "
              << direct.rows << "x" << direct.cols
              << ", span " << Table::num(rep.pp1Span, 6) << " s vs 2D step "
              << Table::num(rep.pp1Expected, 6) << " s ("
              << (rep.pp1Identical ? "bit-identical" : "MISMATCH")
              << ")\n\n";
    return rep;
}

void
writeModelJson(std::ofstream &json, const ModelReport &rep)
{
    const ModelStudyConfig &mcfg = rep.cfg;
    json << "    " << jsonString(mcfg.model.name) << ": {\n";
    json << "      \"chips\": " << mcfg.chips << ",\n";
    json << "      \"pp1_chips\": " << mcfg.tpRefChips << ",\n";
    json << "      \"schedule_comparison\": {\"pp\": " << mcfg.pp
         << ", \"dp\": " << mcfg.dp << ", \"micro_batches\": "
         << mcfg.microBatches << ", \"rows\": [";
    for (size_t i = 0; i < rep.schedules.size(); ++i) {
        const ScheduleRow &row = rep.schedules[i];
        json << (i ? ", " : "") << "{\"schedule\": "
             << jsonString(pipelineScheduleName(row.schedule))
             << ", \"chunks\": " << row.chunks << ", \"feasible\": "
             << (row.feasible ? "true" : "false");
        if (row.feasible) {
            json << ", \"est_s\": " << jsonNumber(row.est)
                 << ", \"sim_s\": " << jsonNumber(row.sim)
                 << ", \"bubble_fraction\": " << jsonNumber(row.bubble)
                 << ", \"peak_stash\": " << row.peakStash
                 << ", \"stage_mem_bytes\": " << row.stageMem
                 << ", \"recompute\": "
                 << (row.recompute ? "true" : "false");
        } else {
            json << ", \"reason\": " << jsonString(row.reason);
        }
        json << "}";
    }
    json << "], \"one_f_one_b_stash_below_gpipe\": "
         << (rep.stashStrict ? "true" : "false") << "},\n";
    json << "      \"micro_batch_sweep\": {\"pp\": " << mcfg.pp
         << ", \"dp\": " << mcfg.dp << ", \"schedule\": \"1F1B\", "
            "\"points\": [";
    for (size_t i = 0; i < rep.sweep.size(); ++i) {
        const SweepPoint &pt = rep.sweep[i];
        json << (i ? ", " : "") << "{\"m\": " << pt.m << ", \"est_s\": "
             << jsonNumber(pt.est) << ", \"sim_s\": "
             << jsonNumber(pt.sim) << ", \"bubble_fraction\": "
             << jsonNumber(pt.bubble) << ", \"recompute\": "
             << (pt.recompute ? "true" : "false") << "}";
    }
    json << "], \"bubble_shrinks_with_m\": "
         << (rep.bubbleShrinks ? "true" : "false") << "},\n";
    json << "      \"frontier\": [";
    for (size_t i = 0; i < rep.frontier.size(); ++i) {
        const FrontierRow &row = rep.frontier[i];
        json << (i ? ", " : "") << "{\"pp\": " << row.axes.pp
             << ", \"dp\": " << row.axes.dp << ", \"tp_rows\": "
             << row.axes.tpRows << ", \"tp_cols\": " << row.axes.tpCols
             << ", \"micro_batches\": " << row.axes.microBatches
             << ", \"est_s\": " << jsonNumber(row.est) << ", \"sim_s\": ";
        if (row.sim >= 0.0)
            json << jsonNumber(row.sim);
        else
            json << "null";
        json << ", \"stage_mem_bytes\": " << row.stageMem
             << ", \"recompute\": "
             << (row.recompute ? "true" : "false") << "}";
    }
    json << "],\n";
    const PipelineCandidate &pick = rep.tuned;
    json << "      \"tuned\": {\"pp\": " << pick.axes.pp << ", \"dp\": "
         << pick.axes.dp << ", \"tp_rows\": " << pick.axes.tpRows
         << ", \"tp_cols\": " << pick.axes.tpCols
         << ", \"micro_batches\": " << pick.axes.microBatches
         << ", \"schedule\": "
         << jsonString(pipelineScheduleName(pick.axes.schedule))
         << ", \"recompute\": "
         << (pick.axes.recompute ? "true" : "false") << ", \"est_s\": "
         << jsonNumber(pick.estTotal) << ", \"sim_s\": "
         << jsonNumber(pick.simTotal) << ", \"stage_mem_bytes\": "
         << pick.stageMemoryBytes << ", \"candidates\": "
         << rep.tunedCandidates << ", \"pruned\": " << rep.tunedPruned
         << "},\n";
    json << "      \"max_est_sim_rel_err\": "
         << jsonNumber(rep.maxEstSimRelErr) << ",\n";
    json << "      \"est_within_15pct_of_sim\": "
         << (rep.estWithin15 ? "true" : "false") << ",\n";
    json << "      \"pp1_span_s\": " << jsonNumber(rep.pp1Span)
         << ",\n";
    json << "      \"pp1_expected_s\": " << jsonNumber(rep.pp1Expected)
         << ",\n";
    json << "      \"pp1_bit_identical\": "
         << (rep.pp1Identical ? "true" : "false") << "\n";
    json << "    }";
}

} // namespace

int
main(int argc, char **argv)
{
    // GPT-3's dimensions factor as 2^a * 3 and Megatron-NLG's as
    // 2^a * 5 with 105 layers, so one chip count cannot exercise
    // pipelining for both. The positional chip count drives the GPT-3
    // study; the NLG studies scale it by 5/2 (pipeline) and 5/3 (the
    // pp=1 TP reference), which is why it must be a multiple of 6.
    const BenchArgs args = BenchArgs::parse(argc, argv, 192);
    if (args.chips % 6 != 0 || args.chips < 12)
        fatal("pipeline_report: chips must be a multiple of 6 (>= 12) "
              "so the Megatron-NLG chip counts (x5/2 and x5/3) stay "
              "integral, got %d", args.chips);
    const ChipConfig cfg = tpuV4Config();

    if (!SearchTrace::global().open("pipeline_search.jsonl"))
        std::cerr << "warning: cannot open pipeline_search.jsonl\n";

    std::cout << "pipeline_report: GPT-3 on " << args.chips
              << " chips, Megatron-NLG on " << args.chips * 5 / 2
              << " chips" << (args.smoke ? " (smoke mode)" : "")
              << "\n\n";

    // ---- Closed-form section: uniform zero-comm GPipe on 4x1x1.
    const int cf_stages = 4;
    const int cf_micro = 8;
    const Time cf_fwd = 1e-3;
    const Time cf_bwd = 2e-3;
    PipelineExecSpec cf_spec;
    cf_spec.schedule = PipelineSchedule::kGPipe;
    cf_spec.microBatches = cf_micro;
    cf_spec.fwdTime = cf_fwd;
    cf_spec.bwdTime = cf_bwd;
    cf_spec.boundaryBytes = 0;
    cf_spec.chargeLaunch = false;
    Cluster cf_cluster(cfg, cf_stages);
    PipelineCluster cf_pc(cf_cluster, cf_stages, 1, 1);
    const PipelineRunResult cf_run = runPipeline(cf_pc, cf_spec);
    const double cf_closed = gpipeBubbleFraction(cf_stages, cf_micro);
    const Time cf_expected_span =
        (cf_micro + cf_stages - 1) * (cf_fwd + cf_bwd);
    const bool cf_matches =
        std::abs(cf_run.bubbleFraction - cf_closed) < 1e-9 &&
        std::abs(cf_run.time - cf_expected_span) < 1e-12;
    std::cout << "closed-form GPipe check (P=" << cf_stages << ", m="
              << cf_micro << "): simulated bubble "
              << Table::num(cf_run.bubbleFraction, 6) << " vs (P-1)/(m+P-1) = "
              << Table::num(cf_closed, 6) << " ("
              << (cf_matches ? "exact" : "MISMATCH") << ")\n";

    // Peak-stash table: 1F1B strictly below GPipe whenever m > P.
    struct StashRow
    {
        int stages, micro, gpipe, ofob;
    };
    std::vector<StashRow> stash_rows;
    bool stash_ok = true;
    for (const auto &[p, m] : std::vector<std::pair<int, int>>{
             {2, 4}, {4, 8}, {4, 16}, {8, 16}}) {
        const PipelineProgram gp =
            buildPipelineProgram(PipelineSchedule::kGPipe, p, m);
        const PipelineProgram ob =
            buildPipelineProgram(PipelineSchedule::k1F1B, p, m);
        StashRow row{p, m, peakInFlight(gp, 0), peakInFlight(ob, 0)};
        if (row.ofob >= row.gpipe)
            stash_ok = false;
        stash_rows.push_back(row);
    }
    Table stash_table({"P", "m", "gpipe_stash", "1f1b_stash"});
    for (const StashRow &row : stash_rows)
        stash_table.addRow({Table::num(row.stages, 0),
                            Table::num(row.micro, 0),
                            Table::num(row.gpipe, 0),
                            Table::num(row.ofob, 0)});
    std::cout << "peak in-flight stash (1F1B < GPipe: "
              << (stash_ok ? "yes" : "NO") << "):\n";
    stash_table.print(std::cout);
    std::cout << "\n";

    // ---- Per-model studies.
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);

    ModelStudyConfig gpt3;
    gpt3.model = gpt3Config();
    gpt3.chips = args.chips;
    gpt3.tpRefChips = args.chips;
    gpt3.pp = 8;
    gpt3.dp = 1;
    gpt3.microBatches = 16;
    gpt3.interleavedChunks = 2;

    ModelStudyConfig nlg;
    nlg.model = megatronNlgConfig();
    nlg.chips = args.chips * 5 / 2;
    nlg.tpRefChips = args.chips * 5 / 3;
    nlg.pp = 3;
    nlg.dp = 1;
    nlg.microBatches = 6;
    nlg.interleavedChunks = 5;

    std::vector<ModelReport> reports;
    reports.push_back(studyModel(tuner, gpt3, args.smoke));
    reports.push_back(studyModel(tuner, nlg, args.smoke));
    SearchTrace::global().close();

    // ---- Cross-checks.
    bool stash_below = stash_ok;
    bool est_within = true;
    bool pp1_identical = true;
    for (const ModelReport &rep : reports) {
        stash_below = stash_below && rep.stashStrict;
        est_within = est_within && rep.estWithin15;
        pp1_identical = pp1_identical && rep.pp1Identical;
    }
    const bool all_pass =
        cf_matches && stash_below && est_within && pp1_identical;
    std::cout << "cross-checks: gpipe_closed_form="
              << (cf_matches ? "pass" : "FAIL")
              << " stash=" << (stash_below ? "pass" : "FAIL")
              << " est_within_15pct=" << (est_within ? "pass" : "FAIL")
              << " pp1_bit_identical="
              << (pp1_identical ? "pass" : "FAIL") << " => "
              << (all_pass ? "ALL PASS" : "FAILURES") << "\n";

    // ---- BENCH_pipeline.json
    const std::string out_path =
        args.out.empty() ? "BENCH_pipeline.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": {\"gpt3\": " << gpt3.chips
         << ", \"megatron_nlg\": " << nlg.chips
         << ", \"gpt3_pp1\": " << gpt3.tpRefChips
         << ", \"megatron_nlg_pp1\": " << nlg.tpRefChips << "},\n";
    json << "  \"smoke\": " << (args.smoke ? "true" : "false") << ",\n";
    json << "  \"closed_form\": {\n";
    json << "    \"gpipe\": {\"stages\": " << cf_stages
         << ", \"micro_batches\": " << cf_micro
         << ", \"sim_bubble\": " << jsonNumber(cf_run.bubbleFraction)
         << ", \"closed_form_bubble\": " << jsonNumber(cf_closed)
         << ", \"sim_span_s\": " << jsonNumber(cf_run.time)
         << ", \"expected_span_s\": " << jsonNumber(cf_expected_span)
         << ", \"matches\": " << (cf_matches ? "true" : "false")
         << "},\n";
    json << "    \"stash\": [";
    for (size_t i = 0; i < stash_rows.size(); ++i)
        json << (i ? ", " : "") << "{\"stages\": " << stash_rows[i].stages
             << ", \"micro_batches\": " << stash_rows[i].micro
             << ", \"gpipe\": " << stash_rows[i].gpipe
             << ", \"one_f_one_b\": " << stash_rows[i].ofob << "}";
    json << "],\n    \"stash_strictly_below\": "
         << (stash_ok ? "true" : "false") << "\n  },\n";
    json << "  \"models\": {\n";
    for (size_t i = 0; i < reports.size(); ++i) {
        writeModelJson(json, reports[i]);
        json << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  },\n";
    json << "  \"search_records\": " << SearchTrace::global().recordCount()
         << ",\n";
    json << "  \"cross_checks\": {\"gpipe_bubble_closed_form\": "
         << (cf_matches ? "true" : "false")
         << ", \"one_f_one_b_stash_below_gpipe\": "
         << (stash_below ? "true" : "false")
         << ", \"est_within_15pct_of_sim\": "
         << (est_within ? "true" : "false")
         << ", \"pp1_bit_identical\": "
         << (pp1_identical ? "true" : "false") << ", \"all_pass\": "
         << (all_pass ? "true" : "false") << "},\n";
    json << "  \"artifacts\": [\"pipeline_search.jsonl\"]\n}\n";
    json.flush();
    if (!json)
        fatal("pipeline_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path << ", pipeline_search.jsonl\n";
    return all_pass ? 0 : 1;
}
