#include "engine/plan_json.hpp"

#include <string>

#include "util/logging.hpp"

namespace meshslice {

namespace {

Pass
passFromName(const std::string &name, const std::string &ctx)
{
    for (Pass p : {Pass::kForward, Pass::kBackwardData,
                   Pass::kBackwardWeight})
        if (name == passName(p))
            return p;
    fatal("%s: unknown pass \"%s\" (want fwd/bwdD/bwdW)", ctx.c_str(),
          name.c_str());
}

// ---------------------------------------------------------------- emit
// Canonical writers: compact, fixed key order, %.17g numbers. The
// byte-identical round-trip property holds because the writer is the
// single source of formatting.

void
appendGemmPlan(std::string &out, const GemmPlan &p)
{
    out += "{\"name\":";
    out += jsonString(p.gemm.name);
    out += ",\"m\":";
    out += std::to_string(p.gemm.m);
    out += ",\"k\":";
    out += std::to_string(p.gemm.k);
    out += ",\"n\":";
    out += std::to_string(p.gemm.n);
    out += ",\"pass\":";
    out += jsonString(passName(p.gemm.pass));
    out += ",\"fcLayer\":";
    out += std::to_string(p.gemm.fcLayer);
    out += ",\"dataflow\":";
    out += jsonString(dataflowName(p.dataflow));
    out += ",\"sliceCount\":";
    out += std::to_string(p.sliceCount);
    out += ",\"estTime\":";
    out += jsonNumber(p.estTime);
    out += "}";
}

GemmPlan
gemmPlanFrom(JsonReader &r, const std::string &ctx)
{
    GemmPlan p;
    p.gemm.name = r.get<std::string>("name");
    p.gemm.m = r.get<std::int64_t>("m");
    p.gemm.k = r.get<std::int64_t>("k");
    p.gemm.n = r.get<std::int64_t>("n");
    p.gemm.pass = passFromName(r.get<std::string>("pass"), ctx);
    p.gemm.fcLayer = r.get<int>("fcLayer");
    p.dataflow = dataflowFromName(r.get<std::string>("dataflow"), ctx);
    p.sliceCount = r.get<int>("sliceCount");
    p.estTime = r.get<double>("estTime");
    return p;
}

void
appendAutotuneResult(std::string &out, const AutotuneResult &r)
{
    out += "{\"rows\":";
    out += std::to_string(r.rows);
    out += ",\"cols\":";
    out += std::to_string(r.cols);
    out += ",\"blockFcTime\":";
    out += jsonNumber(r.blockFcTime);
    out += ",\"layers\":[";
    for (size_t i = 0; i < r.layers.size(); ++i) {
        const FcLayerPlan &layer = r.layers[i];
        if (i != 0)
            out += ",";
        out += "{\"fcLayer\":";
        out += std::to_string(layer.fcLayer);
        out += ",\"stationary\":";
        out += jsonString(stationaryName(layer.stationary));
        out += ",\"passes\":[";
        for (size_t j = 0; j < layer.passes.size(); ++j) {
            if (j != 0)
                out += ",";
            appendGemmPlan(out, layer.passes[j]);
        }
        out += "]}";
    }
    out += "]}";
}

AutotuneResult
autotuneResultFrom(JsonReader &r, const std::string &ctx)
{
    AutotuneResult res;
    res.rows = r.get<int>("rows");
    res.cols = r.get<int>("cols");
    res.blockFcTime = r.get<double>("blockFcTime");
    r.each("layers", [&](JsonReader &l) {
        FcLayerPlan layer;
        layer.fcLayer = l.get<int>("fcLayer");
        layer.stationary =
            stationaryFromName(l.get<std::string>("stationary"), ctx);
        l.each("passes", [&](JsonReader &g) {
            layer.passes.push_back(gemmPlanFrom(g, ctx));
        });
        res.layers.push_back(std::move(layer));
    });
    return res;
}

void
appendAxes(std::string &out, const PipelineAxes &axes)
{
    out += "{\"tpRows\":";
    out += std::to_string(axes.tpRows);
    out += ",\"tpCols\":";
    out += std::to_string(axes.tpCols);
    out += ",\"pp\":";
    out += std::to_string(axes.pp);
    out += ",\"dp\":";
    out += std::to_string(axes.dp);
    out += ",\"microBatches\":";
    out += std::to_string(axes.microBatches);
    out += ",\"chunks\":";
    out += std::to_string(axes.chunks);
    out += ",\"schedule\":";
    out += jsonString(pipelineScheduleName(axes.schedule));
    out += ",\"recompute\":";
    out += axes.recompute ? "true" : "false";
    out += "}";
}

PipelineAxes
axesFrom(JsonReader &r, const std::string &ctx)
{
    PipelineAxes axes;
    axes.tpRows = r.get<int>("tpRows");
    axes.tpCols = r.get<int>("tpCols");
    axes.pp = r.get<int>("pp");
    axes.dp = r.get<int>("dp");
    axes.microBatches = r.get<int>("microBatches");
    axes.chunks = r.get<int>("chunks");
    axes.schedule =
        pipelineScheduleFromName(r.get<std::string>("schedule"), ctx);
    axes.recompute = r.get<bool>("recompute");
    return axes;
}

} // namespace

std::string
enginePlanToJson(const EnginePlan &plan)
{
    std::string out;
    out.reserve(4096);
    out += "{\"cluster\":{\"dp\":";
    out += std::to_string(plan.cluster.dp);
    out += ",\"pp\":";
    out += std::to_string(plan.cluster.pp);
    out += ",\"tpRows\":";
    out += std::to_string(plan.cluster.tpRows);
    out += ",\"tpCols\":";
    out += std::to_string(plan.cluster.tpCols);
    out += ",\"oneD\":";
    out += plan.cluster.oneD ? "true" : "false";
    out += "},\"pickedBy\":";
    out += jsonString(plan.pickedBy);
    out += ",\"tp\":";
    appendAutotuneResult(out, plan.tp);
    if (plan.hasRobust) {
        out += ",\"robust\":{\"objective\":";
        out += jsonNumber(plan.robustObjective);
        out += ",\"pickIndex\":";
        out += std::to_string(plan.robustPickIndex);
        out += "}";
    }
    if (plan.hasRecovery) {
        out += ",\"recovery\":{\"checkpointInterval\":";
        out += jsonNumber(plan.checkpointInterval);
        out += ",\"goodput\":";
        out += jsonNumber(plan.goodput);
        out += ",\"effectiveStepTime\":";
        out += jsonNumber(plan.effectiveStepTime);
        out += "}";
    }
    if (plan.hasPipeline) {
        out += ",\"pipeline\":{\"axes\":";
        appendAxes(out, plan.axes);
        out += ",\"estTotal\":";
        out += jsonNumber(plan.pipelineEstTotal);
        out += ",\"simTotal\":";
        out += jsonNumber(plan.pipelineSimTotal);
        out += ",\"stageMemoryBytes\":";
        out += std::to_string(plan.stageMemoryBytes);
        out += ",\"peakStash\":";
        out += std::to_string(plan.peakStash);
        out += "}";
    }
    out += "}";
    return out;
}

EnginePlan
enginePlanFromJson(const std::string &text, const std::string &context)
{
    const JsonValue root = parseJson(text, "EnginePlan", context);
    JsonReader r(root, "EnginePlan", context);
    EnginePlan plan;
    r.child("cluster", [&](JsonReader &c) {
        plan.cluster.dp = c.get<int>("dp");
        plan.cluster.pp = c.get<int>("pp");
        plan.cluster.tpRows = c.get<int>("tpRows");
        plan.cluster.tpCols = c.get<int>("tpCols");
        plan.cluster.oneD = c.get<bool>("oneD");
    });
    plan.pickedBy = r.get<std::string>("pickedBy");
    r.child("tp", [&](JsonReader &t) {
        plan.tp = autotuneResultFrom(t, context);
    });
    plan.hasRobust = r.optChild("robust", [&](JsonReader &o) {
        plan.robustObjective = o.get<double>("objective");
        plan.robustPickIndex = o.get<int>("pickIndex");
    });
    plan.hasRecovery = r.optChild("recovery", [&](JsonReader &o) {
        plan.checkpointInterval = o.get<double>("checkpointInterval");
        plan.goodput = o.get<double>("goodput");
        plan.effectiveStepTime = o.get<double>("effectiveStepTime");
    });
    plan.hasPipeline = r.optChild("pipeline", [&](JsonReader &o) {
        o.child("axes",
                [&](JsonReader &a) { plan.axes = axesFrom(a, context); });
        plan.pipelineEstTotal = o.get<double>("estTotal");
        plan.pipelineSimTotal = o.get<double>("simTotal");
        plan.stageMemoryBytes = o.get<std::int64_t>("stageMemoryBytes");
        plan.peakStash = o.get<int>("peakStash");
    });
    r.finish();
    return plan;
}

std::string
shortlistToJson(const std::vector<AutotuneResult> &shortlist)
{
    std::string out;
    out.reserve(4096);
    out += "[";
    for (size_t i = 0; i < shortlist.size(); ++i) {
        if (i != 0)
            out += ",";
        appendAutotuneResult(out, shortlist[i]);
    }
    out += "]";
    return out;
}

std::vector<AutotuneResult>
shortlistFromJson(const std::string &text, const std::string &context)
{
    const JsonValue root = parseJson(text, "Shortlist", context);
    if (root.kind != JsonValue::kArray)
        fatal("Shortlist: %s: top-level value must be an array",
              context.c_str());
    std::vector<AutotuneResult> shortlist;
    shortlist.reserve(root.arr.size());
    for (size_t i = 0; i < root.arr.size(); ++i) {
        JsonReader r(root.arr[i], "Shortlist", context, i);
        shortlist.push_back(autotuneResultFrom(r, context));
        r.finish();
    }
    return shortlist;
}

PlanQuery
planQueryFromValue(const JsonValue &root, const ChipConfig &chip,
                   const std::string &context)
{
    JsonReader r(root, "PlanQuery", context);
    PlanQuery q;
    q.chip = chip;
    std::string id; // echoed by plan_server; not part of the plan
    r.opt("id", id);
    const JsonValue &model = r.value("model");
    if (model.kind == JsonValue::kString) {
        if (model.str == "gpt3")
            q.model = gpt3Config();
        else if (model.str == "megatron-nlg")
            q.model = megatronNlgConfig();
        else
            fatal("PlanQuery: %s: unknown model preset \"%s\" "
                  "(want gpt3/megatron-nlg or an object)",
                  context.c_str(), model.str.c_str());
    } else {
        r.child("model", [&](JsonReader &m) {
            q.model.name = m.get<std::string>("name");
            q.model.layers = m.get<std::int64_t>("layers");
            q.model.hiddenDim = m.get<std::int64_t>("hiddenDim");
            q.model.heads = m.get<std::int64_t>("heads");
            q.model.ffnDim = m.get<std::int64_t>("ffnDim");
            m.opt("vocab", q.model.vocab);
        });
    }
    r.opt("chips", q.chips);
    if (q.chips <= 0)
        fatal("PlanQuery: %s: \"chips\" must be positive (got %d)",
              context.c_str(), q.chips);
    if (!r.optChild("train", [&](JsonReader &t) {
            q.train.batch = t.get<std::int64_t>("batch");
            t.opt("seqLen", q.train.seqLen);
        }))
        q.train = TrainingConfig::weakScaling(q.chips);
    std::string algo;
    if (r.opt("algo", algo))
        q.algo = algorithmFromName(algo, context);
    r.opt("optimizeDataflow", q.optimizeDataflow);

    q.runRobust = r.optChild("robust", [&](JsonReader &o) {
        o.opt("topK", q.robust.topK);
        o.opt("numScenarios", q.robust.numScenarios);
        o.opt("seed", q.robust.seed);
        o.opt("linkDegradeFactor", q.robust.linkDegradeFactor);
        o.opt("faultsPerScenario", q.robust.faultsPerScenario);
        o.opt("stragglerProb", q.robust.stragglerProb);
        o.opt("stragglerFactor", q.robust.stragglerFactor);
        o.opt("maxLaunchJitter", q.robust.maxLaunchJitter);
        o.opt("quantile", q.robust.quantile);
        o.opt("maxGemmsPerEval", q.robust.maxGemmsPerEval);
    });
    q.runRecovery = r.optChild("recovery", [&](JsonReader &o) {
        q.recovery.chipMtbf = o.get<double>("chipMtbf");
        q.recovery.checkpointBytesPerChip =
            o.get<std::int64_t>("checkpointBytesPerChip");
        o.opt("detectionLatency", q.recovery.detectionLatency);
        o.opt("restartTime", q.recovery.restartTime);
        o.opt("topK", q.recovery.topK);
    });
    q.runPipeline = r.optChild("pipeline", [&](JsonReader &o) {
        std::string schedule;
        if (o.opt("schedule", schedule))
            q.pipeline.schedule =
                pipelineScheduleFromName(schedule, context);
        o.opt("chunks", q.pipeline.chunks);
        o.opt("maxMicroBatches", q.pipeline.maxMicroBatches);
        o.opt("topK", q.pipeline.topK);
        o.opt("recompute", q.pipeline.recompute);
        o.opt("dpOverlap", q.pipeline.dpOverlap);
    });
    r.finish();
    return q;
}

PlanQuery
planQueryFromJson(const std::string &text, const ChipConfig &chip,
                  const std::string &context)
{
    const JsonValue root = parseJson(text, "PlanQuery", context);
    return planQueryFromValue(root, chip, context);
}

} // namespace meshslice
