/**
 * @file
 * Recovery report: the fail-stop economics of long training runs.
 *
 *  - Goodput-vs-MTBF sweep: the Young–Daly-optimal goodput of a
 *    training configuration as the per-chip MTBF shrinks. Goodput must
 *    be monotone non-increasing as MTBF decreases — the report checks
 *    and records it.
 *  - τ-grid validation: a log-spaced grid search over the checkpoint
 *    interval against the closed-form `youngDalyInterval` optimum (the
 *    grid's best must bracket the closed form within one grid step).
 *  - Re-shard cost per mesh shape: modeled moved bytes and first-order
 *    time of the cheapest single-failure re-shard for every feasible
 *    shape of the cluster, plus one discrete `planReshard` cross-check
 *    against the continuous model.
 *  - Kill/retry transaction: one recoverable collective under a chip
 *    kill (detect → abort → ring rebuild → retry), with the fault-free
 *    run double-executed to demonstrate the bit-identical-replay
 *    contract extends to the recovery machinery.
 *  - Recovery-aware autotuning: `tuneWithRecovery` solves the
 *    checkpoint interval jointly with the mesh shape; the report
 *    records whether recovery economics flip the pick.
 *
 * Emits `BENCH_recovery.json` plus `recovery_scenario.json` (a kill
 * scenario in the `FaultScenario::fromJson` schema) and the
 * `recovery_search.jsonl` tuner trace in the working directory.
 */
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/recovery_study.hpp"
#include "gemm/reshard.hpp"
#include "sim/fault.hpp"
#include "tuner/robust.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace meshslice;

namespace {

/** Feasible 2D shapes of @p chips (rows <= cols, rows >= 1). */
std::vector<std::pair<int, int>>
meshShapes(int chips)
{
    std::vector<std::pair<int, int>> shapes;
    for (int r = 1; r * r <= chips; ++r)
        if (chips % r == 0)
            shapes.emplace_back(r, chips / r);
    return shapes;
}

/** Expected cost of the cheapest single-failure re-shard: moved bytes
 *  averaged over the uniformly random failed index, better of the
 *  row/column retirement orientations (mirrors `tuneWithRecovery`). */
struct ShapeReshard
{
    double movedBytes = 0.0;
    Time time = -1.0;
};

ShapeReshard
cheapestReshard(const ChipConfig &cfg, int rows, int cols,
                double total_state)
{
    auto orientation = [&](bool retire_row) {
        ShapeReshard est;
        const int n = retire_row ? rows : cols;
        if (n < 2)
            return est;
        double sum = 0.0;
        for (int f = 0; f < n; ++f) {
            SurvivorMesh sv;
            sv.from = MeshShape{rows, cols};
            (retire_row ? sv.failedRow : sv.failedCol) = f;
            sum += reshardBytesModel(total_state, sv);
        }
        est.movedBytes = sum / static_cast<double>(n);
        const int survivors =
            retire_row ? (rows - 1) * cols : rows * (cols - 1);
        est.time = reshardTimeModel(cfg, est.movedBytes, survivors);
        return est;
    };
    const ShapeReshard by_row = orientation(true);
    const ShapeReshard by_col = orientation(false);
    if (by_row.time < 0.0)
        return by_col;
    if (by_col.time < 0.0)
        return by_row;
    return by_col.time < by_row.time ? by_col : by_row;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv, 16);
    const int chips = args.chips;
    const ChipConfig cfg = tpuV4Config();

    if (!SearchTrace::global().open("recovery_search.jsonl"))
        std::cerr << "warning: cannot open recovery_search.jsonl\n";

    // Training-state footprint: weights + optimizer shards per chip.
    const Bytes ckpt_per_chip = GiB(4);
    // Per-chip MTBF anchor: 30 days unless --mtbf overrides it.
    const Time base_mtbf = args.mtbf > 0.0 ? args.mtbf : 30.0 * 86400.0;

    std::cout << "recovery_report: " << chips << " chips, "
              << "checkpoint " << ckpt_per_chip / (1 << 20)
              << " MiB/chip, per-chip MTBF " << base_mtbf / 3600.0
              << " h\n\n";

    // A representative shape for the sweep's re-shard cost.
    const std::vector<std::pair<int, int>> shapes = meshShapes(chips);
    const auto [sweep_rows, sweep_cols] = shapes.back();
    const double total_state =
        static_cast<double>(ckpt_per_chip) * static_cast<double>(chips);
    const Time sweep_reshard =
        cheapestReshard(cfg, sweep_rows, sweep_cols, total_state).time;

    // ---- Goodput vs per-chip MTBF (decreasing).
    const std::vector<double> mtbf_scales = {32.0, 8.0, 2.0, 0.5, 0.125};
    std::vector<Time> mtbf_values;
    std::vector<TrainingGoodput> sweep_points;
    bool goodput_monotone = true;
    for (double scale : mtbf_scales) {
        TrainingRunModel run;
        run.checkpointBytesPerChip = ckpt_per_chip;
        run.chipMtbf = base_mtbf * scale;
        run.chips = chips;
        run.reshardTime = sweep_reshard;
        const TrainingGoodput g = evaluateTrainingRun(cfg, run);
        if (!sweep_points.empty() &&
            g.goodput > sweep_points.back().goodput * (1.0 + 1e-12))
            goodput_monotone = false;
        mtbf_values.push_back(run.chipMtbf);
        sweep_points.push_back(g);
    }

    Table sweep_table({"chip_mtbf_h", "job_mtbf_s", "tau_opt_s",
                       "goodput"});
    for (size_t i = 0; i < sweep_points.size(); ++i)
        sweep_table.addRow({Table::num(mtbf_values[i] / 3600.0, 1),
                            Table::num(sweep_points[i].jobMtbf, 1),
                            Table::num(sweep_points[i].optimalInterval, 1),
                            Table::num(sweep_points[i].goodput, 4)});
    std::cout << "goodput vs per-chip MTBF (" << sweep_rows << "x"
              << sweep_cols << " re-shard charged, monotone="
              << (goodput_monotone ? "yes" : "NO") << "):\n";
    sweep_table.print(std::cout);
    std::cout << "\n";

    // ---- τ-grid search vs the closed form, at the middle sweep point.
    const TrainingGoodput &mid = sweep_points[sweep_points.size() / 2];
    GoodputModel gm;
    gm.checkpointWrite = mid.checkpointWrite;
    gm.mtbf = mid.jobMtbf;
    gm.downtime = mid.downtime;
    const Time tau_closed = youngDalyInterval(gm);
    const int grid_points = 400;
    const double lo = std::log(tau_closed / 16.0);
    const double hi = std::log(tau_closed * 16.0);
    Time tau_grid = 0.0;
    double best_g = -1.0;
    double grid_step_ratio = std::exp((hi - lo) / (grid_points - 1));
    for (int i = 0; i < grid_points; ++i) {
        const Time tau =
            std::exp(lo + (hi - lo) * i / (grid_points - 1));
        const double g = goodputAt(gm, tau);
        if (g > best_g) {
            best_g = g;
            tau_grid = tau;
        }
    }
    // The grid's argmax must bracket the closed form within one step.
    const bool tau_matches = tau_closed >= tau_grid / grid_step_ratio &&
                             tau_closed <= tau_grid * grid_step_ratio;
    std::cout << "Young-Daly check: closed form tau* = "
              << Table::num(tau_closed, 2) << " s, grid argmax = "
              << Table::num(tau_grid, 2) << " s ("
              << (tau_matches ? "within grid resolution"
                              : "MISMATCH")
              << ")\n\n";

    // ---- Re-shard cost per mesh shape.
    struct ShapeRow
    {
        int rows, cols;
        double movedBytes;
        Time time;
    };
    std::vector<ShapeRow> shape_rows;
    for (const auto &[r, c] : shapes) {
        if (r * c < 2)
            continue; // a 1x1 mesh has no survivor to re-shard onto
        const ShapeReshard est = cheapestReshard(cfg, r, c, total_state);
        shape_rows.push_back({r, c, est.movedBytes, est.time});
    }
    Table shape_table({"shape", "moved_fraction", "reshard_s"});
    for (const ShapeRow &row : shape_rows)
        shape_table.addRow(
            {strprintf("%dx%d", row.rows, row.cols),
             Table::num(row.movedBytes / total_state, 4),
             Table::num(row.time, 3)});
    std::cout << "cheapest single-failure re-shard by shape:\n";
    shape_table.print(std::cout);
    std::cout << "\n";

    // Discrete-vs-continuous cross-check on one shape: `planReshard`
    // is the ground truth; the continuous model must agree exactly
    // when the dimensions divide both meshes.
    SurvivorMesh check_sv;
    check_sv.from = MeshShape{sweep_rows, sweep_cols};
    bool discrete_matches = true;
    if (std::min(sweep_rows, sweep_cols) >= 1 && sweep_rows >= 2) {
        check_sv.failedRow = 0;
        const std::int64_t check_rows =
            static_cast<std::int64_t>(sweep_rows) * (sweep_rows - 1) * 8;
        const std::int64_t check_cols =
            static_cast<std::int64_t>(sweep_cols) * 8;
        const ReshardPlan plan =
            planReshard(check_rows, check_cols, cfg.bytesPerElement,
                        check_sv);
        const double modeled = reshardBytesModel(
            static_cast<double>(check_rows) * check_cols *
                cfg.bytesPerElement,
            check_sv);
        discrete_matches =
            std::abs(static_cast<double>(plan.totalBytes) - modeled) <=
            1e-6 * modeled + 1.0;
        std::cout << "planReshard cross-check (" << sweep_rows << "x"
                  << sweep_cols << " -> " << sweep_rows - 1 << "x"
                  << sweep_cols << "): discrete "
                  << plan.totalBytes << " B vs continuous "
                  << Table::num(modeled, 0) << " B ("
                  << (discrete_matches ? "exact" : "MISMATCH")
                  << ")\n\n";
    }

    // ---- Kill/retry transaction on a 4x(chips/4) torus.
    const int rr = 4;
    const int rc = std::max(2, chips / 4);
    const Bytes shard_bytes = MiB(8);
    // Kill one chip in the second row-ring mid-flight.
    const int dead_chip = rc + 1;
    FaultScenario kill_scenario;
    kill_scenario.seed = args.seed;
    kill_scenario.detectionLatency = 0.5;
    KillFault kill;
    kill.pattern = strprintf("chip%d.hbm", dead_chip);
    kill.at = 0.0001;
    kill_scenario.kills.push_back(kill);

    const CollectiveRecoveryResult nominal = runCollectiveRecovery(
        cfg, rr, rc, shard_bytes, nullptr, RingCollectiveKind::kAllGather,
        /*row_ring=*/true, /*index=*/1);
    const CollectiveRecoveryResult replay = runCollectiveRecovery(
        cfg, rr, rc, shard_bytes, nullptr, RingCollectiveKind::kAllGather,
        true, 1);
    FaultScenario empty_scenario; // armed but perturbs nothing
    const CollectiveRecoveryResult empty_run = runCollectiveRecovery(
        cfg, rr, rc, shard_bytes, &empty_scenario,
        RingCollectiveKind::kAllGather, true, 1);
    const bool bit_identical =
        nominal.finalTime == replay.finalTime &&
        nominal.eventsProcessed == replay.eventsProcessed &&
        nominal.statsJson == replay.statsJson &&
        nominal.finalTime == empty_run.finalTime &&
        nominal.eventsProcessed == empty_run.eventsProcessed &&
        nominal.statsJson == empty_run.statsJson;

    const CollectiveRecoveryResult recovered = runCollectiveRecovery(
        cfg, rr, rc, shard_bytes, &kill_scenario,
        RingCollectiveKind::kAllGather, true, 1);
    if (!recovered.retried)
        fatal("recovery_report: the kill scenario did not trigger a "
              "retry — chip %d is not on row ring 1 of a %dx%d mesh?",
              dead_chip, rr, rc);
    std::cout << "kill/retry transaction (all-gather, row ring 1 of "
              << rr << "x" << rc << ", chip " << dead_chip
              << " killed):\n"
              << "  nominal       " << Table::num(nominal.totalTime * 1e3, 3)
              << " ms\n"
              << "  with recovery " << Table::num(recovered.totalTime * 1e3, 3)
              << " ms  (detected dead " << recovered.error.deadResource
              << " at " << Table::num(recovered.error.detectedAt, 4)
              << " s)\n"
              << "  fault-free replay bit-identical: "
              << (bit_identical ? "yes" : "NO") << "\n\n";

    // ---- Recovery-aware autotuning.
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(chips);
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);
    RecoveryTuneConfig rcfg;
    rcfg.chipMtbf = base_mtbf * 0.125; // failure-rich regime
    rcfg.checkpointBytesPerChip = ckpt_per_chip;
    rcfg.topK = 4;
    const RecoveryTuneResult tuned = tuneWithRecovery(
        tuner, Algorithm::kMeshSlice,
        tuner.rankShapes(Algorithm::kMeshSlice, model, train, chips,
                         rcfg.topK),
        chips, rcfg);
    std::cout << "recovery-aware tuner: nominal "
              << tuned.nominal().plan.rows << "x"
              << tuned.nominal().plan.cols << " -> "
              << tuned.picked().plan.rows << "x"
              << tuned.picked().plan.cols
              << (tuned.pickDiffers() ? "  (pick changed)"
                                      : "  (pick unchanged)")
              << ", tau* = "
              << Table::num(tuned.picked().checkpointInterval, 1)
              << " s, goodput = "
              << Table::num(tuned.picked().goodput, 4) << "\n\n";
    SearchTrace::global().close();

    // ---- Example scenario artifact (documents the kill schema).
    {
        std::ofstream scenario_file("recovery_scenario.json");
        scenario_file << kill_scenario.toJson();
        scenario_file.flush();
        if (!scenario_file)
            fatal("recovery_report: failed writing "
                  "recovery_scenario.json");
    }

    // ---- BENCH_recovery.json
    const std::string out_path =
        args.out.empty() ? "BENCH_recovery.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << chips << ",\n";
    json << "  \"checkpoint_bytes_per_chip\": " << ckpt_per_chip << ",\n";
    json << "  \"base_chip_mtbf_s\": " << jsonNumber(base_mtbf) << ",\n";
    json << "  \"goodput_sweep\": {\"chip_mtbf_s\": [";
    for (size_t i = 0; i < mtbf_values.size(); ++i)
        json << (i ? ", " : "") << jsonNumber(mtbf_values[i]);
    json << "], \"job_mtbf_s\": [";
    for (size_t i = 0; i < sweep_points.size(); ++i)
        json << (i ? ", " : "") << jsonNumber(sweep_points[i].jobMtbf);
    json << "], \"tau_opt_s\": [";
    for (size_t i = 0; i < sweep_points.size(); ++i)
        json << (i ? ", " : "")
             << jsonNumber(sweep_points[i].optimalInterval);
    json << "], \"goodput\": [";
    for (size_t i = 0; i < sweep_points.size(); ++i)
        json << (i ? ", " : "") << jsonNumber(sweep_points[i].goodput);
    json << "], \"monotone_nonincreasing\": "
         << (goodput_monotone ? "true" : "false") << "},\n";
    json << "  \"young_daly_check\": {\"closed_form_tau_s\": "
         << jsonNumber(tau_closed)
         << ", \"grid_tau_s\": " << jsonNumber(tau_grid)
         << ", \"grid_points\": " << grid_points
         << ", \"within_resolution\": "
         << (tau_matches ? "true" : "false") << "},\n";
    json << "  \"reshard_by_shape\": {\n";
    for (size_t i = 0; i < shape_rows.size(); ++i) {
        const ShapeRow &row = shape_rows[i];
        json << "    "
             << jsonString(strprintf("%dx%d", row.rows, row.cols))
             << ": {\"moved_bytes\": " << jsonNumber(row.movedBytes)
             << ", \"moved_fraction\": "
             << jsonNumber(row.movedBytes / total_state)
             << ", \"reshard_s\": " << jsonNumber(row.time) << "}"
             << (i + 1 < shape_rows.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"plan_reshard_matches_model\": "
         << (discrete_matches ? "true" : "false") << ",\n";
    json << "  \"kill_retry\": {\"rows\": " << rr << ", \"cols\": " << rc
         << ", \"dead_chip\": " << dead_chip
         << ", \"nominal_s\": " << jsonNumber(nominal.totalTime)
         << ", \"recovered_s\": " << jsonNumber(recovered.totalTime)
         << ", \"retried\": " << (recovered.retried ? "true" : "false")
         << ", \"detected_at_s\": "
         << jsonNumber(recovered.error.detectedAt)
         << ", \"dead_resource\": "
         << jsonString(recovered.error.deadResource)
         << ", \"fault_free_bit_identical\": "
         << (bit_identical ? "true" : "false") << "},\n";
    json << "  \"recovery_tuner\": {\"nominal_rows\": "
         << tuned.nominal().plan.rows
         << ", \"nominal_cols\": " << tuned.nominal().plan.cols
         << ", \"picked_rows\": " << tuned.picked().plan.rows
         << ", \"picked_cols\": " << tuned.picked().plan.cols
         << ", \"tau_opt_s\": "
         << jsonNumber(tuned.picked().checkpointInterval)
         << ", \"goodput\": " << jsonNumber(tuned.picked().goodput)
         << ", \"effective_step_s\": "
         << jsonNumber(tuned.picked().effectiveStepTime)
         << ", \"pick_differs\": "
         << (tuned.pickDiffers() ? "true" : "false") << "},\n";
    json << "  \"artifacts\": [\"recovery_scenario.json\", "
            "\"recovery_search.jsonl\"]\n}\n";
    json.flush();
    if (!json)
        fatal("recovery_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path
              << ", recovery_scenario.json, recovery_search.jsonl\n";
    return 0;
}
