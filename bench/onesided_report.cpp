/**
 * @file
 * One-sided sliced GeMM report: what does RDMA-style per-tile pulling
 * buy, and what does it cost?
 *
 *  - Functional identity: `funcOneSidedOS` against the dense reference
 *    and bit-exact against MeshSlice's sliced reduction.
 *  - Fault-free parity: the timed OneSided executor against the sliced
 *    collectives on the paper GeMM — shortest-path gets carry 4/3 of
 *    the bidirectional ring's per-link bytes but pay zero sync steps,
 *    so the two must agree within a model-error band.
 *  - Straggler sweep: one slow chip at several severities; OneSided's
 *    per-tile independence must keep its slowdown strictly below both
 *    MeshSlice's and the unsliced Collective's at every point.
 *  - Kill study: one chip dies mid-GeMM; the per-get retry plus the
 *    known-dead membership cache bound the damage by ONE detection
 *    latency plus the detoured re-reads (the collective executors are
 *    fatal here without a recovery handler).
 *  - Robust re-ranking: `tuneRobust` per algorithm on shared
 *    straggler-heavy scenarios — fault-free the tuner ranks MeshSlice
 *    first, but the robust quantile objective flips the pick to
 *    OneSided.
 *
 * Emits `BENCH_onesided.json` (with the embedded `cross_checks`
 * section `tools/check_json.sh` enforces; its `*_per_sec` keys are
 * gated run-over-run by `tools/bench_diff.py`).
 */
#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/fault_study.hpp"
#include "gemm/functional_gemm.hpp"
#include "sim/fault.hpp"
#include "tuner/robust.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace meshslice;

namespace {

/** One straggler chip with core and HBM at @p factor x nominal, plus
 *  optional per-op launch jitter (the discriminating combination: the
 *  straggler bounds everyone's makespan, and every sync step then adds
 *  the jittered barrier on top — which only the collectives pay). */
FaultScenario
stragglerScenario(int chip, double factor, std::uint64_t seed,
                  Time jitter = 0.0)
{
    FaultScenario s;
    s.seed = seed;
    s.maxLaunchJitter = jitter;
    StragglerFault slow;
    slow.chip = chip;
    slow.computeFactor = factor;
    slow.hbmFactor = factor;
    s.stragglers.push_back(slow);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv, 16);
    const int chips = args.chips;
    const ChipConfig cfg = tpuV4Config();

    if (!SearchTrace::global().open("onesided_search.jsonl"))
        std::cerr << "warning: cannot open onesided_search.jsonl\n";

    // The executor-test GeMM (same as the robustness report).
    Gemm2DSpec spec;
    spec.m = 16384;
    spec.k = 4096;
    spec.n = 8192;
    spec.dataflow = Dataflow::kOS;
    spec.rows = 4;
    spec.cols = chips / 4;
    spec.sliceCount = 4;
    spec.bytesPerElement = cfg.bytesPerElement;

    std::cout << "onesided_report: " << spec.str() << " on " << chips
              << " chips\n\n";

    // ---- Functional identity: dense-reference closeness plus
    // bit-exactness against MeshSlice's sliced reduction (the per-tile
    // pull reorders tiles, never any tile's additions).
    bool functional_identity = true;
    {
        const MeshShape fmesh{4, 4};
        const Matrix a = Matrix::random(96, 64, 31);
        const Matrix b = Matrix::random(64, 80, 32);
        const Matrix ref = Matrix::gemm(a, b);
        const DistMatrix da = DistMatrix::scatter(a, fmesh);
        const DistMatrix db = DistMatrix::scatter(b, fmesh);
        const DistMatrix os = funcOneSidedOS(da, db, 4, 2);
        functional_identity =
            functional_identity && os.gather().allClose(ref, 2e-3);
        const DistMatrix ms = funcMeshSliceOS(da, db, 4, 2);
        functional_identity = functional_identity &&
                              os.gather().maxAbsDiff(ms.gather()) == 0.0;
    }
    std::cout << "functional identity vs dense ref + MeshSlice: "
              << (functional_identity ? "ok" : "FAIL") << "\n\n";

    // ---- Fault-free parity.
    const Time os_nominal =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr)
            .time;
    const Time ms_nominal =
        runGemmUnderScenario(cfg, Algorithm::kMeshSlice, spec, nullptr)
            .time;
    const Time coll_nominal =
        runGemmUnderScenario(cfg, Algorithm::kCollective, spec, nullptr)
            .time;
    const bool faultfree_parity =
        os_nominal > 0.0 &&
        std::abs(os_nominal - ms_nominal) < 0.35 * ms_nominal;
    const Flops gemm_flops =
        2.0 * static_cast<double>(spec.m) * spec.k * spec.n;
    std::cout << "fault-free: OneSided " << os_nominal * 1e3
              << " ms, MeshSlice " << ms_nominal * 1e3
              << " ms, Collective " << coll_nominal * 1e3 << " ms ("
              << (faultfree_parity ? "within" : "OUTSIDE")
              << " the 35% model-error band)\n\n";

    // ---- Straggler sweep: one slow chip at several severities.
    const std::vector<double> factors =
        args.smoke ? std::vector<double>{0.5, 0.25}
                   : std::vector<double>{0.8, 0.6, 0.4, 0.25};
    const std::vector<Algorithm> sweep_algos = {Algorithm::kOneSided,
                                                Algorithm::kMeshSlice,
                                                Algorithm::kCollective};
    struct SweepPoint
    {
        double factor;
        std::vector<FaultStudyEntry> entries; ///< sweep_algos order
    };
    std::vector<SweepPoint> sweep;
    bool straggler_dominance = true;
    for (double factor : factors) {
        const FaultScenario scen =
            stragglerScenario(chips / 2 + 1, factor, args.seed);
        const FaultStudyResult study =
            runFaultStudy(cfg, spec, scen, sweep_algos);
        SweepPoint point;
        point.factor = factor;
        point.entries = study.entries;
        const double os_slow = point.entries[0].slowdown;
        for (size_t i = 1; i < point.entries.size(); ++i)
            straggler_dominance =
                straggler_dominance && os_slow < point.entries[i].slowdown;
        sweep.push_back(std::move(point));
    }
    Table sweep_table({"straggler_factor", "OneSided", "MeshSlice",
                       "Collective"});
    for (const SweepPoint &p : sweep)
        sweep_table.addRow({Table::num(p.factor, 2),
                            Table::num(p.entries[0].slowdown, 3),
                            Table::num(p.entries[1].slowdown, 3),
                            Table::num(p.entries[2].slowdown, 3)});
    std::cout << "slowdown vs one straggler chip (core/HBM factor):\n";
    sweep_table.print(std::cout);
    std::cout << "OneSided strictly below both baselines at every "
                 "point: "
              << (straggler_dominance ? "yes" : "NO") << "\n\n";

    // ---- Kill study: the per-get retry + known-dead cache bound the
    // damage by one detection latency plus the detoured re-reads.
    FaultScenario kill;
    kill.seed = args.seed + 1;
    kill.detectionLatency = 0.5;
    KillFault dead;
    dead.pattern = strprintf("chip%d.hbm", chips / 2 + 1);
    dead.at = 1e-4;
    kill.kills.push_back(dead);
    StatsRegistry kill_stats;
    kill_stats.enable(true);
    const Time os_killed = runGemmUnderScenario(
        cfg, Algorithm::kOneSided, spec, &kill, &kill_stats).time;
    double kill_retries = 0.0, kill_redirects = 0.0, kill_writeoffs = 0.0;
    for (const StatSnapshot &s : kill_stats.snapshot()) {
        if (s.name == "onesided/get/retry")
            kill_retries = s.value;
        else if (s.name == "onesided/get/redirect")
            kill_redirects = s.value;
        else if (s.name == "onesided/get/writeoff")
            kill_writeoffs = s.value;
    }
    const bool kill_bounded =
        os_killed > kill.detectionLatency &&
        os_killed < os_nominal + 2.0 * kill.detectionLatency;
    std::cout << "one chip killed mid-GeMM: " << os_killed * 1e3
              << " ms (nominal " << os_nominal * 1e3 << " ms + one "
              << kill.detectionLatency * 1e3 << " ms detection), "
              << kill_retries << " retries, " << kill_redirects
              << " cache redirects, " << kill_writeoffs
              << " write-offs — bounded: "
              << (kill_bounded ? "yes" : "NO") << "\n\n";

    // ---- Robust re-ranking across algorithms: tuneRobust per
    // algorithm on the SAME straggler-heavy scenarios. Fault-free the
    // tuner ranks MeshSlice ahead of OneSided (the gets carry more
    // per-link bytes); the robust quantile objective must flip the
    // pick to OneSided.
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(chips);
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);

    std::vector<FaultScenario> tuner_scenarios;
    for (int i = 0; i < (args.smoke ? 2 : 3); ++i)
        tuner_scenarios.push_back(
            stragglerScenario((i * 5) % chips, 0.15, args.seed + 2 + i,
                              /*jitter=*/5e-4));

    const std::vector<Algorithm> tuner_algos = {Algorithm::kMeshSlice,
                                                Algorithm::kCollective,
                                                Algorithm::kOneSided};
    struct AlgoRank
    {
        Algorithm algo;
        Time nominalEst = 0.0; ///< fault-free phase-2 estimate
        Time objective = 0.0;  ///< robust quantile of simulated times
    };
    std::vector<AlgoRank> ranks;
    for (Algorithm algo : tuner_algos) {
        RobustTuneConfig rcfg;
        rcfg.topK = 2;
        rcfg.maxGemmsPerEval = args.smoke ? 2 : 3;
        rcfg.scenarios = tuner_scenarios;
        const RobustTuneResult result = tuneRobust(
            tuner, algo,
            tuner.rankShapes(algo, model, train, chips, rcfg.topK), chips,
            rcfg);
        AlgoRank rank;
        rank.algo = algo;
        rank.nominalEst = result.nominal().nominalEst;
        rank.objective = result.picked().objective;
        ranks.push_back(rank);
        std::cout << "robust tuner [" << algorithmName(algo)
                  << "]: nominal est " << rank.nominalEst * 1e3
                  << " ms, robust objective " << rank.objective * 1e3
                  << " ms\n";
    }
    const auto by_nominal = std::min_element(
        ranks.begin(), ranks.end(), [](const AlgoRank &a,
                                       const AlgoRank &b) {
            return a.nominalEst < b.nominalEst;
        });
    const auto by_robust = std::min_element(
        ranks.begin(), ranks.end(), [](const AlgoRank &a,
                                       const AlgoRank &b) {
            return a.objective < b.objective;
        });
    const bool robust_pick_flip =
        by_nominal->algo != Algorithm::kOneSided &&
        by_robust->algo == Algorithm::kOneSided;
    std::cout << "nominal best: " << algorithmName(by_nominal->algo)
              << ", robust best: " << algorithmName(by_robust->algo)
              << (robust_pick_flip ? "  (pick flipped to OneSided)"
                                   : "  (no flip)")
              << "\n\n";
    SearchTrace::global().close();

    // ---- BENCH_onesided.json
    const std::string out_path =
        args.out.empty() ? "BENCH_onesided.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << chips << ",\n";
    json << "  \"spec\": {\"m\": " << spec.m << ", \"k\": " << spec.k
         << ", \"n\": " << spec.n << ", \"rows\": " << spec.rows
         << ", \"cols\": " << spec.cols
         << ", \"slice_count\": " << spec.sliceCount << "},\n";
    json << "  \"fault_free\": {\"onesided_s\": " << jsonNumber(os_nominal)
         << ", \"meshslice_s\": " << jsonNumber(ms_nominal)
         << ", \"collective_s\": " << jsonNumber(coll_nominal)
         << ", \"onesided_flops_per_sec\": "
         << jsonNumber(os_nominal > 0.0 ? gemm_flops / os_nominal : 0.0)
         << ", \"onesided_vs_meshslice\": "
         << jsonNumber(ms_nominal > 0.0 ? os_nominal / ms_nominal : 0.0)
         << "},\n";
    json << "  \"straggler_sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint &p = sweep[i];
        json << "    {\"factor\": " << jsonNumber(p.factor);
        for (size_t a = 0; a < sweep_algos.size(); ++a) {
            std::string key = algorithmName(sweep_algos[a]);
            std::transform(key.begin(), key.end(), key.begin(),
                           [](unsigned char ch) {
                               return static_cast<char>(
                                   std::tolower(ch));
                           });
            json << ", \"" << key << "_slowdown\": "
                 << jsonNumber(p.entries[a].slowdown);
        }
        json << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"kill_study\": {\"detection_latency_s\": "
         << jsonNumber(kill.detectionLatency)
         << ", \"faulted_s\": " << jsonNumber(os_killed)
         << ", \"retries\": " << jsonNumber(kill_retries)
         << ", \"cache_redirects\": " << jsonNumber(kill_redirects)
         << ", \"writeoffs\": " << jsonNumber(kill_writeoffs) << "},\n";
    json << "  \"robust_tuner\": {\n";
    for (size_t i = 0; i < ranks.size(); ++i) {
        json << "    " << jsonString(algorithmName(ranks[i].algo))
             << ": {\"nominal_est_s\": " << jsonNumber(ranks[i].nominalEst)
             << ", \"robust_objective_s\": "
             << jsonNumber(ranks[i].objective) << "}"
             << (i + 1 < ranks.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"nominal_best\": "
         << jsonString(algorithmName(by_nominal->algo))
         << ",\n  \"robust_best\": "
         << jsonString(algorithmName(by_robust->algo)) << ",\n";
    json << "  \"cross_checks\": {\n"
         << "    \"functional_identity\": "
         << (functional_identity ? "true" : "false") << ",\n"
         << "    \"faultfree_parity\": "
         << (faultfree_parity ? "true" : "false") << ",\n"
         << "    \"straggler_dominance\": "
         << (straggler_dominance ? "true" : "false") << ",\n"
         << "    \"kill_bounded_by_one_detection\": "
         << (kill_bounded ? "true" : "false") << ",\n"
         << "    \"robust_pick_flip\": "
         << (robust_pick_flip ? "true" : "false") << "\n  },\n"
         << "  \"artifacts\": [\"onesided_search.jsonl\"]\n}\n";
    json.flush();
    if (!json)
        fatal("onesided_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path << ", onesided_search.jsonl\n";
    return 0;
}
