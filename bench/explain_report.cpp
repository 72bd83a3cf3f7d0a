/**
 * @file
 * Exercises the critical-path profiler end to end and reports what it
 * attributes, what it predicts and what it costs:
 *
 *  - records the causal span graph of one 2D GeMM per algorithm (plus
 *    the 1D baselines, a faulted MeshSlice run, a simulated re-shard
 *    detour and a pipeline candidate) and prints each scenario's
 *    category attribution. On every scenario the attribution identity
 *    |sum(categories) - span| <= 1e-9 is enforced as a cross-check;
 *  - validates the Daydream-style what-if replay: the predicted spans
 *    under 2x compute and 2x link bandwidth must land within 15% of
 *    ground-truth re-simulations with the scaled `ChipConfig`;
 *  - runs the tuner explain integrations (`explainShortlist`,
 *    `tuneRobust{explain}`, a pipeline candidate) with the search
 *    trace open, producing `explain_search.jsonl`;
 *  - writes `explain_trace.json`, a Chrome trace with the critical
 *    path annotated (flow arrows + a `critical_path` track);
 *  - measures the profiler's cost: bit-identical simulated time and
 *    event count with the profiler off vs on, the host-time ratio,
 *    and the disabled-guard fast path, asserted below 2% of the dark
 *    per-event cost.
 *
 * Emits `BENCH_explain.json` in the working directory.
 */
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/fault_study.hpp"
#include "core/reshard_exec.hpp"
#include "net/topology.hpp"
#include "tuner/explain.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace meshslice;

namespace {

double
wallMs(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

/** One profiled scenario run. */
struct RunOut
{
    Time simTime = 0.0;
    double hostMs = 0.0;
    std::uint64_t events = 0;
    ExplainRecord rec; ///< empty when run unprofiled
};

/** Simulate a 2D spec on a fresh torus; optionally profile/trace. */
RunOut
runSpec2D(const ChipConfig &cfg, Algorithm algo, const Gemm2DSpec &spec,
          bool profile, const std::string &trace_path = "")
{
    RunOut out;
    Cluster cluster(cfg, spec.chips());
    cluster.enableProfiler(profile);
    cluster.trace().enable(!trace_path.empty());
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    GemmExecutor exec(mesh);
    out.hostMs = wallMs([&] { out.simTime = exec.run(algo, spec).time; });
    out.events = cluster.sim().eventsProcessed();
    if (profile)
        out.rec = explainGraph(cluster.profiler().nodes());
    if (!trace_path.empty()) {
        const Attribution attr =
            extractCriticalPath(cluster.profiler().nodes());
        annotateCriticalPath(cluster.trace(),
                             cluster.profiler().nodes(), attr);
        cluster.trace().writeJson(trace_path);
    }
    return out;
}

/** Simulate a 1D spec on a fresh ring with the profiler on. */
RunOut
runSpec1D(const ChipConfig &cfg, Algorithm algo, const Gemm1DSpec &spec)
{
    RunOut out;
    Cluster cluster(cfg, spec.chips);
    cluster.enableProfiler(true);
    RingNetwork net(cluster);
    out.hostMs =
        wallMs([&] { out.simTime = runGemm1D(net, spec, algo).time; });
    out.events = cluster.sim().eventsProcessed();
    out.rec = explainGraph(cluster.profiler().nodes());
    return out;
}

Gemm1DSpec
make1DExplainSpec(Algorithm algo, std::int64_t dim, int chips,
                  int bytes_per_element)
{
    Gemm1DSpec s;
    s.m = s.k = s.n = dim;
    s.chips = chips;
    s.sliceCount = 4;
    s.bytesPerElement = bytes_per_element;
    const Bytes e = bytes_per_element;
    if (algo == Algorithm::kOneDTP) {
        s.commBytes = s.m * s.k * e;
        s.local = GemmWork{s.m, s.k, s.n / chips};
    } else { // FSDP
        s.commBytes = s.k * s.n * e;
        s.local = GemmWork{s.m / chips, s.k, s.n};
    }
    return s;
}

/** ns/call of a disabled-recorder guard (the no-op fast path). */
double
disabledGuardNs()
{
    SpanRecorder rec; // disabled by default
    const long iters = 20'000'000;
    long sink = 0;
    const double ms = wallMs([&] {
        for (long i = 0; i < iters; ++i) {
            if (rec.enabled())
                rec.addNode("never", SpanCategory::kCompute, 0.0, 0.0);
            else
                ++sink; // keep the branch observable
        }
    });
    if (sink != iters)
        std::abort(); // enabled() misbehaved; also defeats elision
    return ms * 1e6 / static_cast<double>(iters);
}

std::string
jsonCategories(const ExplainRecord &rec)
{
    std::string out = "{";
    for (int c = 0; c < kSpanCategoryCount; ++c) {
        if (c > 0)
            out += ", ";
        out += strprintf(
            "%s: %s",
            jsonString(spanCategoryName(static_cast<SpanCategory>(c)))
                .c_str(),
            jsonNumber(rec.byCategory[c]).c_str());
    }
    return out + "}";
}

double
relErr(double predicted, double truth)
{
    return truth > 0.0 ? std::fabs(predicted - truth) / truth : 0.0;
}

/** A named scenario result for the report/JSON. */
struct Scenario
{
    std::string name;
    Time simTime = 0.0;
    ExplainRecord rec;
    /** What-if validation (2D GeMM scenarios only; < 0 = not run). */
    double resimCompute2x = -1.0;
    double resimLink2x = -1.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv, 16);
    const bool smoke = args.smoke;
    const int chips = args.chips;
    const int side = static_cast<int>(
        std::lround(std::sqrt(static_cast<double>(chips))));
    if (side * side != chips)
        fatal("explain_report: chip count %d is not a square mesh",
              chips);
    const ChipConfig cfg = tpuV4Config();
    const std::int64_t dim = smoke ? 1024 : 4096;

    std::cout << "explain_report: " << side << "x" << side
              << " mesh, dim " << dim << (smoke ? " (smoke)" : "")
              << "\n\n";

    Gemm2DSpec spec;
    spec.m = spec.k = spec.n = dim;
    spec.rows = spec.cols = side;
    spec.sliceCount = 4;
    spec.bytesPerElement = cfg.bytesPerElement;

    // Scaled configs for the what-if ground truth re-simulations.
    ChipConfig cfg_c2 = cfg;
    cfg_c2.peakFlops *= 2.0;
    ChipConfig cfg_l2 = cfg;
    cfg_l2.iciLinkBandwidth *= 2.0;

    std::vector<Scenario> scenarios;

    // ---- One profiled run per 2D algorithm, each validated against
    // re-simulation under the scaled configs.
    for (Algorithm algo : {Algorithm::kMeshSlice, Algorithm::kCollective,
                           Algorithm::kWang, Algorithm::kSumma,
                           Algorithm::kCannon}) {
        const bool flagship = algo == Algorithm::kMeshSlice;
        const RunOut base = runSpec2D(cfg, algo, spec, true,
                                      flagship ? "explain_trace.json"
                                               : "");
        Scenario s;
        s.name = algorithmName(algo);
        s.simTime = base.simTime;
        s.rec = base.rec;
        s.resimCompute2x = runSpec2D(cfg_c2, algo, spec, true).rec.span;
        s.resimLink2x = runSpec2D(cfg_l2, algo, spec, true).rec.span;
        scenarios.push_back(std::move(s));
    }

    // ---- The 1D baselines on a ring.
    for (Algorithm algo : {Algorithm::kOneDTP, Algorithm::kFsdp}) {
        const Gemm1DSpec spec1d =
            make1DExplainSpec(algo, dim, chips, cfg.bytesPerElement);
        const RunOut base = runSpec1D(cfg, algo, spec1d);
        Scenario s;
        s.name = algorithmName(algo);
        s.simTime = base.simTime;
        s.rec = base.rec;
        scenarios.push_back(std::move(s));
    }

    // ---- MeshSlice under a degraded cluster (straggler + slow link
    // direction): attribution must still telescope exactly.
    {
        FaultScenario fault;
        fault.seed = args.seed;
        fault.faults.push_back(CapacityFault{"link.E", 0.5, 0.0, -1.0});
        fault.stragglers.push_back(StragglerFault{1, 0.7, 0.7, 0.0, -1.0});
        Scenario s;
        s.name = "meshslice_faulted";
        s.simTime = runGemmUnderScenario(cfg, Algorithm::kMeshSlice,
                                         spec, &fault, nullptr, &s.rec)
                        .time;
        scenarios.push_back(std::move(s));
    }

    // ---- Simulated elastic re-shard, recorded as a recovery detour,
    // against the closed-form `reshardTime` model.
    double reshard_sim = -1.0;
    double reshard_analytic = 0.0;
    {
        SurvivorMesh sv;
        sv.from = MeshShape{side, side};
        sv.failedRow = side / 2;
        // The re-shard matrix must tile evenly on both the side x side
        // source mesh and the (side-1) x side survivor mesh.
        const std::int64_t rdim =
            static_cast<std::int64_t>(side) * (side - 1) *
            (smoke ? 64 : 256);
        const ReshardPlan plan =
            planReshard(rdim, rdim, cfg.bytesPerElement, sv);
        reshard_analytic = reshardTime(cfg, plan);

        Cluster cluster(cfg, chips);
        cluster.enableProfiler(true);
        SpanRecorder &prof = cluster.profiler();
        const int abort_node = prof.addNode(
            strprintf("kill r%d", sv.failedRow), SpanCategory::kRecovery,
            0.0, 0.0);
        prof.beginRecovery(abort_node);
        runReshard(cluster, plan,
                   [&reshard_sim](Time t) { reshard_sim = t; });
        prof.endRecovery();
        cluster.sim().run();
        if (reshard_sim < 0.0)
            fatal("explain_report: re-shard did not drain");

        Scenario s;
        s.name = "reshard";
        s.simTime = reshard_sim;
        s.rec = explainGraph(prof.nodes());
        scenarios.push_back(std::move(s));
    }

    // ---- One simulated pipeline candidate with explain on. GPT-3
    // does not fit a 16-chip bench cluster, so the pipeline/tuner
    // scenarios run a downsized transformer — the profiler sees the
    // same span structure either way.
    TransformerConfig model;
    model.name = "bench-tx";
    model.layers = 8;
    model.hiddenDim = 4096;
    model.heads = 32;
    model.ffnDim = 4 * 4096;
    const TrainingConfig train = TrainingConfig::weakScaling(chips);
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);

    PipelineTuneConfig pcfg;
    pcfg.explain = true;
    PipelineAxes axes;
    axes.pp = 2;
    axes.dp = 1;
    axes.microBatches = 4;
    const PipelineCandidate pipe_cand = evaluatePipelineCandidate(
        tuner, model, train, axes, pcfg, /*simulate=*/true);
    if (!pipe_cand.feasible || !pipe_cand.hasExplain)
        fatal("explain_report: pipeline candidate infeasible: %s",
              pipe_cand.reason.c_str());
    {
        Scenario s;
        s.name = "pipeline";
        s.simTime = pipe_cand.simTotal;
        s.rec = pipe_cand.explain;
        scenarios.push_back(std::move(s));
    }

    // ---- Tuner integrations with the search trace open.
    if (!SearchTrace::global().open("explain_search.jsonl"))
        std::cerr << "warning: cannot open explain_search.jsonl\n";
    const int top_k = smoke ? 2 : 3;
    double shortlist_ms = 0.0;
    std::vector<CandidateExplain> shortlist;
    shortlist_ms = wallMs([&] {
        shortlist = explainShortlist(tuner, Algorithm::kMeshSlice, model,
                                     train, chips, top_k,
                                     /*optimize_dataflow=*/true,
                                     /*max_gemms=*/smoke ? 1 : 3);
    });
    RobustTuneConfig rcfg;
    rcfg.topK = top_k;
    rcfg.numScenarios = smoke ? 1 : 2;
    rcfg.maxGemmsPerEval = smoke ? 1 : 2;
    rcfg.seed = args.seed;
    rcfg.explain = true;
    tuneRobust(tuner, Algorithm::kMeshSlice,
               tuner.rankShapes(Algorithm::kMeshSlice, model, train, chips,
                                rcfg.topK),
               chips, rcfg);
    SearchTrace::global().record(explainRecordJson(
        "pipeline", Algorithm::kMeshSlice, chips, 0,
        pipe_cand.axes.tpRows, pipe_cand.axes.tpCols, pipe_cand.simTotal,
        pipe_cand.explain));
    const long search_records = SearchTrace::global().recordCount();
    SearchTrace::global().close();

    // ---- Scenario table + cross-checks.
    Table scen_table({"scenario", "sim_ms", "span_ms", "compute", "comm",
                      "launch", "sync", "bubble", "recovery", "nodes",
                      "attr_err"});
    double worst_attr_err = 0.0;
    for (const Scenario &s : scenarios) {
        worst_attr_err = std::max(worst_attr_err, s.rec.attributionError);
        scen_table.addRow(
            {s.name, Table::num(s.simTime * 1e3, 3),
             Table::num(s.rec.span * 1e3, 3),
             Table::pct(s.rec.categoryShare(SpanCategory::kCompute)),
             Table::pct(s.rec.categoryShare(SpanCategory::kComm)),
             Table::pct(s.rec.categoryShare(SpanCategory::kLaunch)),
             Table::pct(s.rec.categoryShare(SpanCategory::kSync)),
             Table::pct(s.rec.categoryShare(SpanCategory::kBubble)),
             Table::pct(s.rec.categoryShare(SpanCategory::kRecovery)),
             Table::num(s.rec.nodeCount, 0),
             strprintf("%.2e", s.rec.attributionError)});
    }
    scen_table.print(std::cout);

    Table whatif_table({"scenario", "c2x_pred_ms", "c2x_resim_ms",
                        "c2x_err", "l2x_pred_ms", "l2x_resim_ms",
                        "l2x_err"});
    double worst_c2x = 0.0;
    double worst_l2x = 0.0;
    for (const Scenario &s : scenarios) {
        if (s.resimCompute2x < 0.0)
            continue;
        const double ec = relErr(s.rec.whatifCompute2x, s.resimCompute2x);
        const double el = relErr(s.rec.whatifLink2x, s.resimLink2x);
        worst_c2x = std::max(worst_c2x, ec);
        worst_l2x = std::max(worst_l2x, el);
        whatif_table.addRow(
            {s.name, Table::num(s.rec.whatifCompute2x * 1e3, 3),
             Table::num(s.resimCompute2x * 1e3, 3), Table::num(ec, 4),
             Table::num(s.rec.whatifLink2x * 1e3, 3),
             Table::num(s.resimLink2x * 1e3, 3), Table::num(el, 4)});
    }
    std::cout << "\nwhat-if replay vs ground-truth re-simulation:\n";
    whatif_table.print(std::cout);
    std::cout << "\nre-shard: simulated " << reshard_sim * 1e3
              << " ms vs analytic " << reshard_analytic * 1e3
              << " ms\nexplain_search.jsonl: " << search_records
              << " record(s), shortlist " << shortlist.size()
              << " candidate(s) in " << shortlist_ms << " ms\n";

    // ---- Overhead: profiler off vs on on the MeshSlice scenario.
    const RunOut dark = runSpec2D(cfg, Algorithm::kMeshSlice, spec,
                                  /*profile=*/false);
    const RunOut lit = runSpec2D(cfg, Algorithm::kMeshSlice, spec,
                                 /*profile=*/true);
    const bool bit_identical =
        dark.simTime == lit.simTime && dark.events == lit.events;
    const double ratio =
        dark.hostMs > 0.0 ? lit.hostMs / dark.hostMs : 1.0;
    const double noop_ns = disabledGuardNs();
    const double event_ns =
        dark.events > 0
            ? dark.hostMs * 1e6 / static_cast<double>(dark.events)
            : 0.0;
    // Disabled-path overhead: the profiler adds ~2 guards per
    // simulator event on the hot paths (task launch + node-record
    // sites); express their cost against the dark per-event cost.
    const double disabled_pct =
        event_ns > 0.0 ? 2.0 * noop_ns / event_ns * 100.0 : 0.0;
    const double events_per_sec =
        dark.hostMs > 0.0
            ? static_cast<double>(dark.events) / (dark.hostMs * 1e-3)
            : 0.0;
    std::cout << "overhead: dark " << dark.hostMs << " ms ("
              << dark.events << " events), profiled " << lit.hostMs
              << " ms (ratio " << ratio << "), bit-identical "
              << (bit_identical ? "yes" : "NO") << "\n"
              << "disabled path: " << noop_ns << " ns/guard => "
              << disabled_pct << "% of the dark per-event cost\n";

    const bool attr_ok = worst_attr_err <= 1e-9;
    const bool c2x_ok = worst_c2x <= 0.15;
    const bool l2x_ok = worst_l2x <= 0.15;
    const bool reshard_ok =
        relErr(reshard_sim, reshard_analytic) <= 0.25;
    const bool disabled_ok = disabled_pct < 2.0;
    const bool all_pass = attr_ok && c2x_ok && l2x_ok && reshard_ok &&
                          bit_identical && disabled_ok;
    std::cout << "cross-checks: " << (all_pass ? "PASS" : "FAIL")
              << "\n";

    // ---- BENCH_explain.json
    const std::string out_path =
        args.out.empty() ? "BENCH_explain.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << chips << ",\n  \"dim\": " << dim
         << ",\n  \"smoke\": " << (smoke ? "true" : "false")
         << ",\n  \"scenarios\": {\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        json << "    " << jsonString(s.name) << ": {\n"
             << "      \"sim_s\": " << jsonNumber(s.simTime) << ",\n"
             << "      \"span_s\": " << jsonNumber(s.rec.span) << ",\n"
             << "      \"categories\": " << jsonCategories(s.rec)
             << ",\n"
             << "      \"nodes\": " << s.rec.nodeCount << ",\n"
             << "      \"attr_err_s\": "
             << jsonNumber(s.rec.attributionError) << ",\n"
             << "      \"whatif_compute2x_s\": "
             << jsonNumber(s.rec.whatifCompute2x) << ",\n"
             << "      \"whatif_link2x_s\": "
             << jsonNumber(s.rec.whatifLink2x);
        if (s.resimCompute2x >= 0.0)
            json << ",\n      \"resim_compute2x_s\": "
                 << jsonNumber(s.resimCompute2x)
                 << ",\n      \"resim_link2x_s\": "
                 << jsonNumber(s.resimLink2x);
        json << "\n    }" << (i + 1 < scenarios.size() ? "," : "")
             << "\n";
    }
    json << "  },\n  \"reshard\": {\"sim_s\": "
         << jsonNumber(reshard_sim)
         << ", \"analytic_s\": " << jsonNumber(reshard_analytic)
         << ", \"rel_err\": "
         << jsonNumber(relErr(reshard_sim, reshard_analytic)) << "},\n"
         << "  \"explain_search_records\": " << search_records << ",\n"
         << "  \"explain_candidates_per_sec\": "
         << jsonNumber(shortlist_ms > 0.0
                           ? static_cast<double>(shortlist.size()) /
                                 (shortlist_ms * 1e-3)
                           : 0.0)
         << ",\n  \"overhead\": {\n"
         << "    \"dark_ms\": " << jsonNumber(dark.hostMs) << ",\n"
         << "    \"profiled_ms\": " << jsonNumber(lit.hostMs) << ",\n"
         << "    \"ratio\": " << jsonNumber(ratio) << ",\n"
         << "    \"dark_events\": " << dark.events << ",\n"
         << "    \"events_per_sec\": " << jsonNumber(events_per_sec)
         << ",\n"
         << "    \"disabled_noop_ns\": " << jsonNumber(noop_ns) << ",\n"
         << "    \"disabled_overhead_pct\": " << jsonNumber(disabled_pct)
         << "\n  },\n  \"cross_checks\": {"
         << "\"attribution_identity\": " << (attr_ok ? "true" : "false")
         << ", \"whatif_compute2x_within_15pct\": "
         << (c2x_ok ? "true" : "false")
         << ", \"whatif_link2x_within_15pct\": "
         << (l2x_ok ? "true" : "false")
         << ", \"reshard_sim_within_25pct\": "
         << (reshard_ok ? "true" : "false")
         << ", \"profiler_off_bit_identical\": "
         << (bit_identical ? "true" : "false")
         << ", \"disabled_overhead_below_2pct\": "
         << (disabled_ok ? "true" : "false")
         << ", \"all_pass\": " << (all_pass ? "true" : "false")
         << "},\n"
         << "  \"artifacts\": [\"explain_search.jsonl\", "
            "\"explain_trace.json\"]\n}\n";
    json.flush();
    if (!json)
        fatal("explain_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path
              << ", explain_trace.json, explain_search.jsonl\n";
    return 0;
}
