/**
 * @file
 * The repo benchmark driver: one process, one workload, closed loop.
 *
 *   perfbench_driver --workload <plan-cold|serve-mix|elastic-recovery>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    --out-dir <dir>
 *
 * Every layer is reached only through the entry points the library
 * keeps public for callers (`PlanEngine`, `LlmAutotuner::tune`,
 * `CostModel::calibrated`, `GemmExecutor::run`, the `Simulator` and
 * `FluidNetwork` counters, `runElastic`/`runPlainSteps`), and timed
 * from outside by a `Span` around each call. `perfbench/README.md`
 * has the workload rationale and the layer -> metric -> workload map.
 *
 * Untraced runs (`--trace 0`) print the end-to-end metrics. Traced runs
 * (`--trace 1`) record a span log (written to the output directory at
 * exit) on every other operation, print the per-layer metrics from it,
 * and report the tracing overhead as the latency difference between
 * the traced and the untraced operations of the same run.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Any failed correctness check makes the exit code 1.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/executor.hpp"
#include "engine/plan_engine.hpp"
#include "engine/plan_json.hpp"
#include "hw/cluster.hpp"
#include "net/topology.hpp"
#include "run/elastic.hpp"
#include "trace.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/cost_model.hpp"
#include "util/fingerprint.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

using namespace meshslice;
using perfbench::Clock;
using perfbench::Span;
using perfbench::Tracer;

namespace {

/** Pool threads of every workload: fixed, so the work split is the same
 *  on any host, and one, because a single busy thread is the steadiest
 *  timing on a shared host (the host line reports `nproc`). */
constexpr int kPoolThreads = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "<plan-cold|serve-mix|elastic-recovery> --seed <n> "
                 "--seconds <s> --trace <0|1> --out-dir <dir>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            a.trace = value == "1";
            have_trace = true;
        } else if (flag == "--out-dir") {
            a.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !have_trace ||
        a.seconds <= 0.0 || a.outDir.empty())
        usage("--workload, --seed, --seconds, --trace and --out-dir are "
              "required");
    return a;
}

/** splitmix64 of (seed, stream, index): the seeded input generator. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                      stream * 0xd1b54a32d192ed03ULL + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Uniform double in [0, 1) from @p bits. */
double
unit(std::uint64_t bits)
{
    return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** What one workload run measured. */
struct Outcome
{
    long attempted = 0;
    long failed = 0;
    /** Seconds of each set-up repetition. */
    std::vector<double> setup;
    /** `calibrationRunCount()` once set-up is done: the set-up
     *  repetitions force their own recalibrations. */
    long calibrationsAfterSetup = 0;
    /** Per-operation latency (seconds), split by whether the
     *  operation was traced (traced runs trace every other one). */
    std::vector<double> latency;
    std::vector<double> tracedLatency;
    /** Wall seconds of the measured loop. */
    double loopSeconds = 0.0;
    /** Per-layer metrics (traced runs). */
    std::map<std::string, double> layer;
    /** Human-readable result lines printed above the JSON line. */
    std::vector<std::string> notes;
    /** Material of the exact cross-commit digest. */
    std::string digest;
};

void
note(Outcome &out, const char *fmt, ...) __attribute__((format(printf, 2, 3)));

void
note(Outcome &out, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out.notes.push_back(buf);
}

void
check(Outcome &out, bool ok, const char *what)
{
    if (!ok) {
        ++out.failed;
        note(out, "CHECK FAILED: %s", what);
    }
}

/** Record a tail order statistic as a note, with its percentile. */
void
noteTail(Outcome &out, const char *name, const char *unit, double scale,
         const std::vector<double> &samples)
{
    const perfbench::Tail t = perfbench::tail(samples);
    note(out, "%s %.6g %s (p%.3f of %zu samples)", name, t.value * scale,
         unit, t.percentile, t.samples);
}

/** Time the engine's key, JSON write and JSON parse entry points on a
 *  served result (traced operations only); checks the round trip. */
void
timeEngineCodecs(Outcome &out, Tracer *tr, const PlanQuery &q,
                 const PlanResult &r)
{
    {
        Span s(tr, "engine.key");
        const PlanKey key = planKeyOf(q);
        s.end();
        check(out, key.full() == r.key.full(), "planKeyOf is stable");
    }
    std::string json;
    {
        Span s(tr, "engine.json_write");
        json = enginePlanToJson(r.plan);
    }
    check(out, json == r.planJson,
          "enginePlanToJson(served plan) == served planJson");
    {
        Span s(tr, "engine.json_parse");
        const EnginePlan parsed = enginePlanFromJson(r.planJson, "served");
        s.end();
        check(out, enginePlanToJson(parsed) == r.planJson,
              "enginePlanFromJson round-trips the served plan");
    }
}

/** Engine counters common to the engine workloads. */
void
engineStats(Outcome &out, const PlanEngine &engine)
{
    const StatsRegistry &st = engine.stats();
    const double hit = st.counter("engine/cache/hit");
    const double miss = st.counter("engine/cache/miss");
    const double base_hit = st.counter("engine/cache/base_hit");
    out.layer["engine.hit_ratio"] = hit + miss > 0 ? hit / (hit + miss) : 0;
    out.layer["engine.base_hit_ratio"] = miss > 0 ? base_hit / miss : 0;
    out.layer["engine.evictions"] = st.counter("engine/cache/eviction");
    out.layer["engine.computed"] =
        static_cast<double>(engine.computedCount());
    for (const std::string &phase : PlanEngine::phaseNames())
        out.layer["engine.phase_runs." + phase] =
            st.counter("engine/phase/" + phase + "/runs");
}

/** Drop the memoized calibration and rebuild it (the cost every fresh
 *  process pays): the start of each set-up repetition. */
void
calibrate(Tracer *tr, const ChipConfig &chip)
{
    clearCalibrationCache();
    Span s(tr, "tuner.calibrate");
    const CostModel cost = CostModel::calibrated(chip);
    (void)cost;
}

// ---------------------------------------------------------------------
// plan-cold: GPT-3 on 128 chips, MeshSlice, robust + recovery +
// pipeline phases at default knobs. One operation is a cold serve on a
// fresh engine plus the validation simulation of the picked plan.

/** The robust scenarios of a plan-cold serve: the default sampler's
 *  knobs (one degraded link-direction class per scenario, a straggler
 *  in half of them), but stratified. The four scenarios degrade the
 *  four directions once each, and exactly one row-link and one
 *  column-link scenario carry a straggler. The fault seed picks which
 *  ones and on which chips, so it moves where the faults fall and not
 *  how much simulation a serve costs: sampled independently, the
 *  straggler count and the directions made cold serves of different
 *  seeds differ by 20% on one host. */
std::vector<FaultScenario>
coldScenarios(std::uint64_t fault_seed, int chips)
{
    static const char *kDirections[4] = {"link.E", "link.W", "link.S",
                                         "link.N"};
    const RobustTuneConfig knobs;
    const std::uint64_t pick = mix(fault_seed, 2, 0);
    // Straggler on one of E/W and one of S/N.
    const int row_straggler = static_cast<int>(pick & 1);
    const int col_straggler = 2 + static_cast<int>((pick >> 1) & 1);
    std::vector<FaultScenario> out;
    for (int d = 0; d < 4; ++d) {
        FaultScenario s;
        s.seed = fault_seed + static_cast<std::uint64_t>(d);
        s.maxLaunchJitter = knobs.maxLaunchJitter;
        CapacityFault fault;
        fault.pattern = kDirections[d];
        fault.factor = knobs.linkDegradeFactor;
        fault.start = 0.0;
        fault.duration = -1.0; // persistent
        s.faults.push_back(std::move(fault));
        if (d == row_straggler || d == col_straggler) {
            StragglerFault straggler;
            straggler.chip = static_cast<int>(
                mix(fault_seed, 3, static_cast<std::uint64_t>(d)) %
                static_cast<std::uint64_t>(chips));
            straggler.computeFactor = knobs.stragglerFactor;
            straggler.hbmFactor = knobs.stragglerFactor;
            s.stragglers.push_back(straggler);
        }
        out.push_back(std::move(s));
    }
    return out;
}

PlanQuery
coldQuery(std::uint64_t fault_seed)
{
    PlanQuery q;
    q.model = gpt3Config();
    q.chips = 128;
    q.train = TrainingConfig::weakScaling(q.chips);
    q.chip = tpuV4Config();
    q.algo = Algorithm::kMeshSlice;
    q.runRobust = true;
    q.robust.scenarios = coldScenarios(fault_seed, q.chips);
    q.runRecovery = true;
    q.recovery.chipMtbf = 30.0 * 24 * 3600;
    // bf16 weights + fp32 Adam state of 175B parameters over 128 chips.
    q.recovery.checkpointBytesPerChip = GiB(16);
    q.runPipeline = true;
    return q;
}

/** Set-up repetitions of plan-cold (calibration and an engine: well
 *  under a millisecond each). */
constexpr int kColdSetupReps = 51;

Outcome
runPlanCold(const Args &args, Tracer *tracer)
{
    Outcome out;
    const ChipConfig chip = tpuV4Config();
    for (int rep = 0; rep < kColdSetupReps; ++rep) {
        Span s(tracer, "setup");
        calibrate(tracer, chip);
        PlanEngine engine;
        out.setup.push_back(s.end());
    }
    out.calibrationsAfterSetup = calibrationRunCount();

    std::vector<double> cold_lat, events;
    std::map<std::string, double> df_seconds, df_events;
    double resources = 0.0;
    const Clock::time_point loop_start = Clock::now();
    for (std::int64_t op = 0;
         op == 0 || perfbench::seconds(loop_start, Clock::now()) <
                        args.seconds;
         ++op) {
        // A traced run traces the even operations, and each odd one
        // repeats the query before it untraced, so the tracing overhead
        // compares equal work (cold serves differ with the fault seed).
        Tracer *tr = args.trace && op % 2 == 0 ? tracer : nullptr;
        const std::int64_t input = args.trace ? op / 2 : op;
        const PlanQuery q = coldQuery(mix(args.seed, 1, input));
        ++out.attempted;
        const long failed_before = out.failed;
        // The latency clock brackets the operation's spans, so the cost
        // of recording them is inside a traced operation's latency.
        const Clock::time_point op_start = Clock::now();
        Span op_span(tr, "op", op);

        PlanEngine engine;
        Span serve(tr, "engine.plan");
        const PlanResult cold = engine.plan(q);
        serve.rename(std::string("engine.plan.") +
                     planSourceName(cold.source));
        const double t_cold = serve.end();
        cold_lat.push_back(t_cold);
        check(out, cold.source == PlanSource::kCold,
              "first serve on a fresh engine is cold");

        // Validation: the picked plan's 12 GeMMs through the executor.
        Span validate(tr, "sim.validate");
        const AutotuneResult &tp = cold.plan.tp;
        Cluster cluster(chip, tp.rows * tp.cols);
        TorusMesh mesh(cluster, tp.rows, tp.cols);
        GemmExecutor exec(mesh);
        std::uint64_t op_events = 0;
        Time sim_total = 0.0;
        for (const GemmPlan &gp : tp.allPlans()) {
            const Gemm2DSpec spec =
                makeSpec(gp.gemm, gp.dataflow, tp.rows, tp.cols,
                         gp.sliceCount, chip.bytesPerElement);
            const std::uint64_t e0 = cluster.sim().eventsProcessed();
            const std::string df = dataflowName(gp.dataflow);
            Span g(tr, "sim.gemm." + df);
            const GemmRunResult res = exec.run(q.algo, spec);
            const double host = g.end();
            const std::uint64_t ev = cluster.sim().eventsProcessed() - e0;
            check(out, std::isfinite(res.time) && res.time > 0.0,
                  "validated GeMM has a positive simulated time");
            df_seconds[df] += host;
            df_events[df] += static_cast<double>(ev);
            op_events += ev;
            sim_total += res.time;
            if (op == 0)
                out.digest += spec.str() + "=" + hexDouble(res.time) +
                              "/" + std::to_string(ev) + ";";
        }
        const double t_validate = validate.end();
        events.push_back(static_cast<double>(op_events));
        resources = static_cast<double>(cluster.net().resourceCount());
        op_span.end();
        (tr ? out.tracedLatency : out.latency)
            .push_back(perfbench::seconds(op_start, Clock::now()));

        // Check: a repeat serve is an exact hit, byte-equal to the cold
        // serve (outside the operation's latency).
        {
            Span s(tr, "engine.plan");
            const PlanResult r = engine.plan(q);
            s.rename(std::string("engine.plan.") + planSourceName(r.source));
            s.end();
            check(out,
                  r.source == PlanSource::kCacheHit &&
                      r.planJson == cold.planJson,
                  "repeat serve is a byte-identical cache hit");
        }
        if (tr) {
            timeEngineCodecs(out, tr, q, cold);
            engineStats(out, engine);
        }
        note(out, "op%lld: cold serve %.6g ms, validation %.6g ms",
             static_cast<long long>(op), t_cold * 1e3, t_validate * 1e3);
        if (op == 0) {
            out.digest += cold.planJson;
            note(out, "op0 plan %s by %s, simulated FC block %.9g s "
                      "(estimate %.9g s), %llu events",
                 cold.key.digest().c_str(), cold.plan.pickedBy.c_str(),
                 sim_total, tp.blockFcTime,
                 static_cast<unsigned long long>(op_events));
        }
        if (out.failed > failed_before)
            out.failed = failed_before + 1; // one failed operation
    }
    out.loopSeconds = perfbench::seconds(loop_start, Clock::now());

    if (args.trace) {
        // Layer split of the cold serve, measured on fresh engines with
        // the phases enabled cumulatively. The last step (every phase)
        // is traced operation 0's own cold serve.
        const PlanQuery full = coldQuery(mix(args.seed, 1, 0));
        PlanQuery step = full;
        step.runRobust = step.runRecovery = step.runPipeline = false;
        const char *names[] = {"shortlist", "robust", "recovery"};
        double prev = 0.0;
        for (int i = 0; i < 3; ++i) {
            step.runRobust = i >= 1;
            step.runRecovery = i >= 2;
            PlanEngine engine;
            Span s(tracer, std::string("tuner.ladder.") + names[i]);
            engine.plan(step);
            const double t = s.end();
            out.layer[std::string("tuner.phase_ms.") + names[i]] =
                (t - prev) * 1e3;
            prev = t;
        }
        out.layer["tuner.phase_ms.pipeline"] = (cold_lat[0] - prev) * 1e3;
        const LlmAutotuner tuner(CostModel::calibrated(chip));
        Span s(tracer, "tuner.tune");
        const AutotuneResult tuned =
            tuner.tune(full.model, full.train, full.chips);
        out.layer["tuner.tune_ms"] = s.end() * 1e3;
        check(out, tuned.rows * tuned.cols == full.chips,
              "LlmAutotuner::tune covers every chip");

        out.layer["sim.validate_s"] = perfbench::median(
            tracer->durations("sim.validate"));
        out.layer["sim.events"] = perfbench::median(events);
        out.layer["sim.resources"] = resources;
        for (const char *df : {"OS", "LS", "RS"}) {
            std::string lower = df;
            for (char &c : lower)
                c = static_cast<char>(std::tolower(c));
            const double ev = df_events[df];
            out.layer["sim.ns_per_event." + lower] =
                ev > 0 ? df_seconds[df] / ev * 1e9 : 0.0;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// serve-mix: one long-lived engine, warm-started from a persisted cache
// file, under a seeded zipfian stream over small-model queries crossed
// with fault-profile variants, served by one closed-loop client, plus a
// two-thread coalescing burst outside the timed loop.

constexpr int kBases = 16;        ///< model/cluster bases
constexpr int kFaultVariants = 8; ///< fault profiles per base
constexpr int kUniverse = kBases * kFaultVariants;
constexpr int kBurstQueries = 16; ///< queries of the coalescing burst
constexpr int kWarmEntries = 48;  ///< distinct queries in the cache file
constexpr int kVerifySamples = 6; ///< incremental serves re-checked cold
constexpr int kMixSetupReps = 9;  ///< set-up repetitions of serve-mix

/** Universe query @p rank: popularity rank r is fault variant r % 8 of
 *  base r / 8, so popular bases keep a cached shortlist (incremental
 *  misses) while unpopular ones drop out of the cache entirely (cold
 *  misses). The universe is twice the engine's default capacity. The
 *  bases are jobs of one 4-layer architecture that differ in their
 *  checkpoint size: distinct plans at equal planning cost, so the mix
 *  of sources, not which bases a seed happens to pick, sets the time. */
PlanQuery
mixQuery(int rank)
{
    const int base = rank / kFaultVariants;
    const int variant = rank % kFaultVariants;
    PlanQuery q;
    q.model.name = "serve-mix";
    q.model.layers = 4;
    q.model.hiddenDim = 2048;
    q.model.heads = 16;
    q.model.ffnDim = 8192;
    q.chips = 16;
    q.train = TrainingConfig::weakScaling(q.chips);
    q.chip = tpuV4Config();
    q.runRobust = true;
    q.robust.topK = 2;
    q.robust.numScenarios = 2;
    q.robust.maxGemmsPerEval = 2;
    q.robust.seed = 1000 + static_cast<std::uint64_t>(variant);
    q.runRecovery = true;
    q.recovery.chipMtbf = 30.0 * 24 * 3600;
    q.recovery.checkpointBytesPerChip = GiB(1.0 + base);
    q.recovery.topK = 2;
    return q;
}

/** The seeded request stream: element i is a zipf(s=1) draw over the
 *  universe ranks. */
class MixStream
{
  public:
    explicit MixStream(std::uint64_t seed) : seed_(seed)
    {
        double total = 0.0;
        for (int r = 0; r < kUniverse; ++r)
            cumulative_.push_back(total += 1.0 / (r + 1));
    }

    int
    at(std::uint64_t i) const
    {
        const double u = unit(mix(seed_, 3, i)) * cumulative_.back();
        const auto it =
            std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
        return std::min(static_cast<int>(it - cumulative_.begin()),
                        kUniverse - 1);
    }

  private:
    std::uint64_t seed_;
    std::vector<double> cumulative_;
};

/**
 * Two threads serve the same kBurstQueries uncached queries, in the same
 * order, on a fresh engine, so identical requests meet in flight and the
 * engine's single-flight path returns coalesced serves. Every result
 * must equal its key's reference plan. Outside the timed loop, whose
 * throughput with two client threads swung with how much of a second
 * core the host granted.
 */
void
coalescingBurst(Outcome &out, Tracer *tracer,
                const std::vector<PlanQuery> &universe,
                std::vector<std::string> &reference)
{
    PlanEngine engine;
    std::vector<PlanResult> results[2];
    std::latch start(2);
    auto client = [&](int c) {
        start.arrive_and_wait();
        for (int rank = 0; rank < kBurstQueries; ++rank) {
            // Named apart from the timed loop's serves, which are not
            // made under two-thread contention.
            Span s(tracer, "burst.engine.plan");
            PlanResult r = engine.plan(universe[rank]);
            s.rename(std::string("burst.engine.plan.") +
                     planSourceName(r.source));
            results[c].push_back(std::move(r));
        }
    };
    std::thread second(client, 1);
    client(0);
    second.join();

    int coalesced = 0;
    for (int rank = 0; rank < kBurstQueries; ++rank) {
        std::string &ref = reference[rank];
        if (ref.empty())
            ref = results[0][rank].planJson;
        for (const std::vector<PlanResult> &rs : results) {
            coalesced += rs[rank].source == PlanSource::kCoalesced;
            check(out, rs[rank].planJson == ref,
                  "a coalesced-burst serve equals its key's reference");
        }
    }
    note(out, "coalescing burst: %d of %d serves coalesced", coalesced,
         2 * kBurstQueries);
}

Outcome
runServeMix(const Args &args, Tracer *tracer)
{
    Outcome out;
    const MixStream stream(args.seed);
    std::vector<PlanQuery> universe;
    for (int r = 0; r < kUniverse; ++r)
        universe.push_back(mixQuery(r));

    // Set-up: write the warm cache file (the first kWarmEntries distinct
    // queries of the stream, whose computed plans are the references),
    // then start the serving engine from it. Everything the process does
    // before its first serve, repeated; the last repetition's engine
    // serves the loop.
    std::vector<std::string> reference;
    const std::string cache_path = args.outDir + "/serve-mix-cache.json";
    std::unique_ptr<PlanEngine> engine;
    std::vector<double> persist_s, load_s;
    for (int rep = 0; rep < kMixSetupReps; ++rep) {
        engine.reset(); // the previous repetition's, outside the timing
        Span s(tracer, "setup");
        calibrate(tracer, tpuV4Config());
        reference.assign(kUniverse, std::string());
        std::remove(cache_path.c_str());
        PlanEngine::Options opts;
        opts.persistPath = cache_path;
        {
            PlanEngine writer(opts);
            int warm = 0;
            for (std::uint64_t i = 0; warm < kWarmEntries; ++i) {
                const int rank = stream.at(i);
                if (!reference[rank].empty())
                    continue;
                reference[rank] = writer.plan(universe[rank]).planJson;
                ++warm;
            }
            Span p(tracer, "engine.persist");
            writer.persist();
            persist_s.push_back(p.end());
        }
        Span load(tracer, "engine.load");
        engine = std::make_unique<PlanEngine>(opts);
        load_s.push_back(load.end());
        out.setup.push_back(s.end());
    }
    out.calibrationsAfterSetup = calibrationRunCount();
    out.layer["engine.persist_ms"] = perfbench::median(persist_s) * 1e3;
    out.layer["engine.load_ms"] = perfbench::median(load_s) * 1e3;
    {
        std::ifstream in(cache_path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        out.digest += ss.str();
    }

    struct Served
    {
        PlanSource source;
        double seconds;
        bool traced;
    };
    std::vector<Served> served;
    std::vector<std::pair<int, std::string>> sampled; // incremental
    const Clock::time_point loop_start = Clock::now();
    for (std::uint64_t op = 0;
         op == 0 || perfbench::seconds(loop_start, Clock::now()) <
                        args.seconds;
         ++op) {
        Tracer *tr = args.trace && op % 2 == 0 ? tracer : nullptr;
        const int rank = stream.at(op);
        const PlanQuery &q = universe[rank];
        // The latency clock brackets the span (see plan-cold).
        const Clock::time_point serve_start = Clock::now();
        Span serve(tr, "engine.plan", static_cast<std::int64_t>(op));
        const PlanResult r = engine->plan(q);
        serve.rename(std::string("engine.plan.") + planSourceName(r.source));
        serve.end();
        served.push_back({r.source,
                          perfbench::seconds(serve_start, Clock::now()),
                          tr != nullptr});

        const long failed_before = out.failed;
        if (tr)
            timeEngineCodecs(out, tr, q, r);
        std::string &ref = reference[rank];
        if (ref.empty())
            ref = r.planJson;
        check(out, r.planJson == ref,
              "every serve of a key is byte-equal to its first one");
        if (out.failed > failed_before)
            out.failed = failed_before + 1; // one failed serve
        if (r.source == PlanSource::kIncremental &&
            mix(args.seed, 4, op) % 4 == 0 &&
            static_cast<int>(sampled.size()) < kVerifySamples)
            sampled.emplace_back(rank, r.planJson);
    }
    out.loopSeconds = perfbench::seconds(loop_start, Clock::now());
    out.attempted = static_cast<long>(served.size());
    coalescingBurst(out, tracer, universe, reference);

    // Sampled incremental serves must equal a fresh-engine cold serve.
    for (const auto &[rank, json] : sampled) {
        PlanEngine fresh;
        const PlanResult r = fresh.plan(universe[rank]);
        check(out, r.source == PlanSource::kCold && r.planJson == json,
              "incremental serve == fresh-engine cold serve");
    }

    std::map<PlanSource, std::vector<double>> by_source;
    for (const Served &s : served) {
        (s.traced ? out.tracedLatency : out.latency).push_back(s.seconds);
        by_source[s.source].push_back(s.seconds);
    }
    std::vector<double> computed = by_source[PlanSource::kCold];
    computed.insert(computed.end(),
                    by_source[PlanSource::kIncremental].begin(),
                    by_source[PlanSource::kIncremental].end());
    const std::vector<double> &hits = by_source[PlanSource::kCacheHit];
    note(out, "serves: %zu hit, %zu coalesced, %zu incremental, %zu cold; "
              "%zu incremental serves re-checked cold",
         hits.size(), by_source[PlanSource::kCoalesced].size(),
         by_source[PlanSource::kIncremental].size(),
         by_source[PlanSource::kCold].size(), sampled.size());
    note(out, "hit_p50_us %.6g us", perfbench::median(hits) * 1e6);
    noteTail(out, "hit_tail_us", "us", 1e6, hits);
    note(out, "computed_p50_ms %.6g ms", perfbench::median(computed) * 1e3);
    engineStats(out, *engine);
    return out;
}

// ---------------------------------------------------------------------
// elastic-recovery: runElastic of a MeshSlice 1568^3 GeMM on an 8x8
// mesh with functional state, Young-Daly checkpoints and one seeded
// chip kill per run (abort, re-plan, re-shard, roll back, resume 8x7).

constexpr int kElasticSteps = 12;
/** Set-up repetitions of elastic-recovery (each one a timed-only
 *  fault-free run, tens of milliseconds). */
constexpr int kElasticSetupReps = 15;

ElasticRunConfig
elasticBase(const ChipConfig &cfg)
{
    ElasticRunConfig run;
    run.algo = Algorithm::kMeshSlice;
    // 1568 = 2^5 * 7^2 divides both the 8x8 mesh and the 8x7 / 7x8
    // survivor meshes, as the functional re-shard requires.
    run.spec.m = run.spec.k = run.spec.n = 1568;
    run.spec.rows = run.spec.cols = 8;
    run.spec.sliceCount = 4;
    run.spec.bytesPerElement = cfg.bytesPerElement;
    run.steps = kElasticSteps;
    run.functionalState = true;
    return run;
}

/** Operation @p op's run: Young-Daly checkpoints of the live state and
 *  a kill of a seeded chip at a seeded offset inside one fixed step, so
 *  every operation checkpoints, redoes and re-shards the same amount. */
ElasticRunConfig
elasticOp(const ChipConfig &cfg, std::uint64_t seed, std::int64_t op,
          Time t_step)
{
    ElasticRunConfig run = elasticBase(cfg);
    const Gemm2DSpec &s = run.spec;
    run.checkpointBytesPerChip =
        static_cast<Bytes>(s.bytesPerElement) *
        (s.m * s.k + s.k * s.n + s.m * s.n) / s.chips();
    run.checkpointTargetBandwidth = 400e9;
    run.checkpointInterval = 0.0; // Young-Daly from chipMtbf
    run.chipMtbf = 100.0 * t_step; // Young-Daly: a checkpoint every ~3 steps
    run.restartTime = 1.5 * t_step;
    run.haveScenario = true;
    run.scenario.seed = mix(seed, 5, static_cast<std::uint64_t>(op));
    run.scenario.detectionLatency = 0.3 * t_step;
    KillFault kill;
    kill.pattern =
        "chip" +
        std::to_string(mix(seed, 6, static_cast<std::uint64_t>(op)) %
                       static_cast<std::uint64_t>(s.chips())) +
        ".";
    // A seeded point inside the same step of every operation (the 7th),
    // so each one checkpoints three times and redoes exactly one step.
    kill.at = (5.9 + 0.6 * unit(mix(seed, 7, static_cast<std::uint64_t>(
                                                 op)))) *
              t_step;
    run.scenario.kills.push_back(kill);
    return run;
}

Outcome
runElasticRecovery(const Args &args, Tracer *tracer)
{
    Outcome out;
    const ChipConfig cfg = tpuV4Config();
    // Set-up: calibration and the fault-free reference run whose step
    // time places every operation's checkpoints and kill. The simulated
    // step time does not depend on the functional state, so the
    // reference runs without it.
    const ElasticRunConfig base = elasticBase(cfg);
    ElasticRunConfig timed_only = base;
    timed_only.functionalState = false;
    Time t_step = 0.0;
    for (int rep = 0; rep < kElasticSetupReps; ++rep) {
        Span s(tracer, "setup");
        calibrate(tracer, cfg);
        Span reference(tracer, "run.elastic.reference");
        t_step = runElastic(cfg, timed_only).stepTimeFullMesh;
        reference.end();
        out.setup.push_back(s.end());
    }
    out.calibrationsAfterSetup = calibrationRunCount();

    // Once per run: the fault-free elastic run with functional state must
    // match the plain step loop span for span and event for event, and
    // the reference's step time.
    const ElasticRunResult ff = runElastic(cfg, base);
    const PlainRunResult plain = runPlainSteps(cfg, base);
    bool identical = ff.wall == plain.wall &&
                     ff.phases.size() == plain.steps.size() &&
                     ff.functionalOk && plain.functionalOk;
    for (size_t i = 0; identical && i < plain.steps.size(); ++i)
        identical = ff.phases[i].span == plain.steps[i].span &&
                    ff.phases[i].events == plain.steps[i].events;
    check(out, identical, "fault-free runElastic == runPlainSteps");
    check(out, ff.stepTimeFullMesh == t_step,
          "the functional state leaves the step time unchanged");
    out.digest += elasticTraceJson(ff);

    std::vector<double> steps_rate, host_ms, phase_step, phase_ckpt,
        phase_rec, committed_ratio, run_events;
    const Clock::time_point loop_start = Clock::now();
    for (std::int64_t op = 0;
         op == 0 || perfbench::seconds(loop_start, Clock::now()) <
                        args.seconds;
         ++op) {
        Tracer *tr = args.trace && op % 2 == 0 ? tracer : nullptr;
        const ElasticRunConfig run = elasticOp(cfg, args.seed, op, t_step);
        ++out.attempted;
        // The latency clock brackets the span (see plan-cold).
        const Clock::time_point op_start = Clock::now();
        Span span(tr, "run.elastic", op);
        const ElasticRunResult r = runElastic(cfg, run);
        span.end();
        const double t = perfbench::seconds(op_start, Clock::now());
        (tr ? out.tracedLatency : out.latency).push_back(t);

        const bool ok = r.recovered && r.functionalChecked &&
                        r.functionalOk && r.finalSpec.chips() == 56;
        check(out, ok, "recovered onto a 56-chip mesh with the functional "
                       "state bit-exact");
        int steps = 0, ckpts = 0, recs = 0, committed = 0;
        double ev = 0.0;
        for (const ElasticPhase &p : r.phases) {
            ev += static_cast<double>(p.events);
            if (p.kind == ElasticPhase::Kind::kStep) {
                ++steps;
                committed += p.committed ? 1 : 0;
            } else if (p.kind == ElasticPhase::Kind::kCheckpoint) {
                ++ckpts;
            } else {
                ++recs;
            }
        }
        host_ms.push_back(t * 1e3);
        steps_rate.push_back(kElasticSteps / t);
        phase_step.push_back(steps);
        phase_ckpt.push_back(ckpts);
        phase_rec.push_back(recs);
        committed_ratio.push_back(steps > 0 ? double(committed) / steps
                                            : 0.0);
        run_events.push_back(ev);
        if (op == 0) {
            out.digest += elasticTraceJson(r) + hexDouble(r.wall) +
                          hexDouble(r.goodput);
            note(out, "op0: chip %d killed, wall %.9g s simulated, goodput "
                      "%.6g, %d checkpoints, %d redone steps",
                 r.deadChip, r.wall, r.goodput, r.checkpoints,
                 r.redoneSteps);
        }
    }
    out.loopSeconds = perfbench::seconds(loop_start, Clock::now());
    std::vector<double> all = out.latency;
    all.insert(all.end(), out.tracedLatency.begin(),
               out.tracedLatency.end());
    note(out, "steps_per_s %.6g (committed simulated steps per host "
              "second)",
         kElasticSteps * static_cast<double>(all.size()) /
             std::accumulate(all.begin(), all.end(), 0.0));

    if (args.trace) {
        out.layer["run.host_ms"] = perfbench::median(host_ms);
        out.layer["run.phases.step"] = perfbench::median(phase_step);
        out.layer["run.phases.checkpoint"] = perfbench::median(phase_ckpt);
        out.layer["run.phases.recovery"] = perfbench::median(phase_rec);
        out.layer["run.committed_ratio"] =
            perfbench::median(committed_ratio);
        out.layer["run.events"] = perfbench::median(run_events);
        out.layer["run.steps_per_s"] = perfbench::median(steps_rate);
        // Functional-state cost: the same run with it on and off.
        ElasticRunConfig on = elasticOp(cfg, args.seed, 0, t_step);
        ElasticRunConfig off = on;
        off.functionalState = false;
        Span s_on(tracer, "run.elastic.functional_on");
        runElastic(cfg, on);
        const double t_on = s_on.end();
        Span s_off(tracer, "run.elastic.functional_off");
        runElastic(cfg, off);
        const double t_off = s_off.end();
        out.layer["gemm.functional_ms"] = (t_on - t_off) * 1e3;
    }
    return out;
}

struct Workload
{
    const char *name;
    Outcome (*run)(const Args &, Tracer *);
};
const Workload kWorkloads[] = {
    {"plan-cold", runPlanCold},
    {"serve-mix", runServeMix},
    {"elastic-recovery", runElasticRecovery},
};

/** The per-layer metrics, in output order (every traced run prints all
 *  of them; a layer a workload does not exercise reads 0). */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"engine.serve_us.hit", "us"},
        {"engine.serve_us.hit_tail", "us"},
        {"engine.serve_us.coalesced", "us"},
        {"engine.serve_ms.incremental", "ms"},
        {"engine.serve_ms.cold", "ms"},
        {"engine.serve_ms.computed", "ms"},
        {"engine.key_us", "us"},
        {"engine.json_parse_us", "us"},
        {"engine.json_write_us", "us"},
        {"engine.hit_ratio", "ratio"},
        {"engine.base_hit_ratio", "ratio"},
        {"engine.evictions", "count"},
        {"engine.computed", "count"},
        {"engine.phase_runs.phase1-shortlist", "count"},
        {"engine.phase_runs.phase2-dataflow-slice", "count"},
        {"engine.phase_runs.robust-rerank", "count"},
        {"engine.phase_runs.recovery-pricing", "count"},
        {"engine.phase_runs.pipeline-3d", "count"},
        {"engine.persist_ms", "ms"},
        {"engine.load_ms", "ms"},
        {"tuner.calibrate_ms", "ms"},
        {"tuner.calibrations", "count"},
        {"tuner.tune_ms", "ms"},
        {"tuner.phase_ms.shortlist", "ms"},
        {"tuner.phase_ms.robust", "ms"},
        {"tuner.phase_ms.recovery", "ms"},
        {"tuner.phase_ms.pipeline", "ms"},
        {"sim.validate_s", "s"},
        {"sim.events", "count"},
        {"sim.ns_per_event.os", "ns"},
        {"sim.ns_per_event.ls", "ns"},
        {"sim.ns_per_event.rs", "ns"},
        {"sim.resources", "count"},
        {"run.host_ms", "ms"},
        {"run.phases.step", "count"},
        {"run.phases.checkpoint", "count"},
        {"run.phases.recovery", "count"},
        {"run.committed_ratio", "ratio"},
        {"run.events", "count"},
        {"run.steps_per_s", "1/s"},
        {"gemm.functional_ms", "ms"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    return m;
}

/** Per-layer metrics that come straight from the span log. */
void
spanMetrics(Outcome &out, const Tracer &tracer)
{
    auto med = [&](const char *span, double scale) {
        return perfbench::median(tracer.durations(span)) * scale;
    };
    out.layer["engine.serve_us.hit"] = med("engine.plan.cache_hit", 1e6);
    out.layer["engine.serve_us.hit_tail"] =
        perfbench::tail(tracer.durations("engine.plan.cache_hit")).value * 1e6;
    out.layer["engine.serve_us.coalesced"] =
        med("burst.engine.plan.coalesced", 1e6);
    out.layer["engine.serve_ms.incremental"] =
        med("engine.plan.incremental", 1e3);
    out.layer["engine.serve_ms.cold"] = med("engine.plan.cold", 1e3);
    std::vector<double> computed = tracer.durations("engine.plan.cold");
    for (double d : tracer.durations("engine.plan.incremental"))
        computed.push_back(d);
    out.layer["engine.serve_ms.computed"] =
        perfbench::median(computed) * 1e3;
    out.layer["engine.key_us"] = med("engine.key", 1e6);
    out.layer["engine.json_parse_us"] = med("engine.json_parse", 1e6);
    out.layer["engine.json_write_us"] = med("engine.json_write", 1e6);
    out.layer["tuner.calibrate_ms"] = med("tuner.calibrate", 1e3);
}

void
printJsonLine(bool correct, const Outcome &out,
              const std::vector<std::tuple<std::string, double,
                                           std::string>> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", out.attempted, out.failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, value, unit] = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(),
                    std::isfinite(value) ? value : 0.0, unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point epoch = Clock::now();
    const Args args = parseArgs(argc, argv);
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            workload = &w;
    if (!workload)
        usage(("unknown workload " + args.workload).c_str());
    ThreadPool::setGlobalThreads(kPoolThreads);

    std::printf("host: nproc %ld, pool threads %d, compiler %s, build %s\n",
                sysconf(_SC_NPROCESSORS_ONLN), kPoolThreads,
                __VERSION__, PERFBENCH_BUILD_TYPE);
    std::printf("workload %s, seed %llu, %.6g s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    Tracer tracer(epoch);
    Tracer *tr = args.trace ? &tracer : nullptr;
    Outcome out = workload->run(args, tr);
    std::vector<double> all = out.latency;
    all.insert(all.end(), out.tracedLatency.begin(),
               out.tracedLatency.end());
    const perfbench::Tail tl = perfbench::tail(all);
    const bool correct = out.failed == 0;
    for (const std::string &n : out.notes)
        std::printf("%s\n", n.c_str());
    std::printf("failed_frac %.6g (%ld of %ld operations)\n",
                out.attempted > 0 ? double(out.failed) / out.attempted : 0.0,
                out.failed, out.attempted);
    std::printf("latency tail: p%.3f of %zu samples\n", tl.percentile,
                tl.samples);
    std::printf("digest %s\n", fnv1a64Hex(out.digest).c_str());

    std::vector<std::tuple<std::string, double, std::string>> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", perfbench::median(out.setup), "s"},
            {"latency_p50_ms", perfbench::median(all) * 1e3, "ms"},
            {"latency_tail_ms", tl.value * 1e3, "ms"},
            {"ops_per_s", static_cast<double>(all.size()) / out.loopSeconds,
             "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        spanMetrics(out, tracer);
        // Calibrations the library ran on its own after set-up.
        out.layer["tuner.calibrations"] = static_cast<double>(
            calibrationRunCount() - out.calibrationsAfterSetup);
        const double untraced = perfbench::median(out.latency);
        const double traced = perfbench::median(out.tracedLatency);
        out.layer["trace.overhead_pct"] =
            untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0;
        out.layer["trace.spans"] = static_cast<double>(tracer.size());
        const std::string path = args.outDir + "/trace-" + args.workload +
                                 ".jsonl";
        if (!tracer.writeJsonl(path))
            std::printf("warning: could not write %s\n", path.c_str());
        for (const auto &[name, unit] : perLayerMetrics())
            metrics.emplace_back(name, out.layer[name], unit);
    }
    for (const auto &[name, value, unit] : metrics)
        std::printf("%s %.6g %s\n", name.c_str(), value, unit.c_str());
    printJsonLine(correct, out, metrics);
    return correct ? 0 : 1;
}
