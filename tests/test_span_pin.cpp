/**
 * @file
 * Span-graph pin: the critical-path profiler's recorded node list for
 * one run of every simulated op kind, dumped canonically (id, name,
 * category, hex-float begin/end, chip, deps, binding, throttled
 * seconds and the three solo-service floors) and pinned as node count
 * plus FNV-1a hash. The runs cover the ring collectives (AG/RdS,
 * SUMMA bcast/reduce, Cannon shifts), the local GeMM, OneSided gets
 * under a source kill (get, abort, retry, redirect, write-off), a
 * recoverable collective's abort marker and retry, the re-shard in
 * and out of a recovery scope, the checkpoint and a 1F1B pipeline
 * with charged launches. A refactor of how ops record their spans
 * must leave every node here unchanged; on a mismatch the test prints
 * the full dump so the first differing node can be found.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/reshard_exec.hpp"
#include "core/taskgraph.hpp"
#include "net/collectives.hpp"
#include "net/topology.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "sim/fault.hpp"
#include "util/fingerprint.hpp"
#include "util/logging.hpp"

namespace meshslice {
namespace {

/** One line per node; every float as a hex float. */
std::string
dumpNodes(const std::vector<SpanNode> &nodes)
{
    std::string out;
    for (const SpanNode &n : nodes) {
        std::string deps;
        for (int d : n.deps) {
            if (!deps.empty())
                deps += ',';
            deps += std::to_string(d);
        }
        out += strprintf("%d|%s|%s|%a|%a|%d|%s|%s|%a|%a|%a|%a\n", n.id,
                         n.name.c_str(), spanCategoryName(n.category),
                         n.begin, n.end, n.chip, deps.c_str(),
                         n.binding.c_str(), n.throttledSeconds,
                         n.coreFloor, n.hbmFloor, n.linkFloor);
    }
    return out;
}

struct Pin
{
    const char *run;
    size_t nodes;
    const char *hash;
};

void
expectPinned(const Pin &pin, const Cluster &cluster)
{
    const std::vector<SpanNode> &nodes = cluster.profiler().nodes();
    const std::string dump = dumpNodes(nodes);
    const std::string hash = fnv1a64Hex(dump);
    EXPECT_TRUE(nodes.size() == pin.nodes && hash == pin.hash)
        << pin.run << ": got " << nodes.size() << " nodes, hash " << hash
        << "; pinned " << pin.nodes << " nodes, hash " << pin.hash
        << "\n" << dump;
}

Gemm2DSpec
gemmSpec(Dataflow df, int rows, int cols)
{
    Gemm2DSpec spec;
    spec.m = 1024;
    spec.k = 768;
    spec.n = 512;
    spec.rows = rows;
    spec.cols = cols;
    spec.sliceCount = 2;
    spec.dataflow = df;
    spec.bytesPerElement = tpuV4Config().bytesPerElement;
    return spec;
}

void
pinGemm(const Pin &pin, Algorithm algo, Dataflow df, int rows, int cols)
{
    Cluster cluster(tpuV4Config(), rows * cols);
    cluster.enableProfiler(true);
    TorusMesh mesh(cluster, rows, cols);
    GemmExecutor(mesh).run(algo, gemmSpec(df, rows, cols));
    expectPinned(pin, cluster);
}

TEST(SpanPin, MeshSliceOutputStationary)
{
    pinGemm({"meshslice os 2x4", 68, "ac1deb3c758641e7"},
            Algorithm::kMeshSlice, Dataflow::kOS, 2, 4);
}

TEST(SpanPin, MeshSliceLeftStationary)
{
    pinGemm({"meshslice ls 2x4", 68, "af146fcddbb72de3"},
            Algorithm::kMeshSlice, Dataflow::kLS, 2, 4);
}

TEST(SpanPin, SummaBroadcastReduce)
{
    pinGemm({"summa ls 2x4", 120, "374eacce52e9dc26"}, Algorithm::kSumma,
            Dataflow::kLS, 2, 4);
}

TEST(SpanPin, CannonShifts)
{
    pinGemm({"cannon os 2x2", 32, "9a3d709a562c03fe"}, Algorithm::kCannon,
            Dataflow::kOS, 2, 2);
}

TEST(SpanPin, OneSidedSourceKill)
{
    // chip5 dies mid-GeMM: gets sourced there abort and retry, later
    // ones redirect to the replica, and chip5's own pulls are written
    // off.
    Gemm2DSpec spec = gemmSpec(Dataflow::kOS, 4, 4);
    spec.m = 16384;
    spec.k = 4096;
    spec.n = 8192;
    Cluster cluster(tpuV4Config(), spec.chips());
    cluster.enableProfiler(true);
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    FaultScenario kill;
    kill.kills.push_back(KillFault{"chip5.hbm", 1e-4});
    FaultInjector injector(cluster.sim(), cluster.net(), kill);
    injector.arm();
    cluster.attachFaults(&injector);
    cluster.stats().enable(true);
    GemmExecutor(mesh).run(Algorithm::kOneSided, spec);
    for (const char *what : {"abort", "retry", "redirect", "writeoff"}) {
        bool seen = false;
        for (const StatSnapshot &s : cluster.stats().snapshot())
            seen |= s.name == std::string("onesided/get/") + what &&
                    s.value > 0.0;
        EXPECT_TRUE(seen) << what;
    }
    expectPinned({"onesided kill 4x4", 253, "de58c1fdb0efaa74"},
                 cluster);
}

TEST(SpanPin, RecoverableCollectiveRetry)
{
    // A recoverable AllGather on row 0 of 2x4 loses chip1; the retry
    // runs on the rebuilt ring inside the abort marker's recovery
    // scope, and a GeMM task after it depends on the retry's exits.
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 8);
    cluster.enableProfiler(true);
    TorusMesh mesh(cluster, 2, 4);
    FaultScenario kill;
    kill.kills.push_back(KillFault{"chip1.hbm", 1e-4});
    kill.detectionLatency = 0.5;
    FaultInjector injector(cluster.sim(), cluster.net(), kill);
    injector.arm();
    cluster.attachFaults(&injector);
    TaskGraph graph(cluster.sim(), &cluster.profiler());
    bool retried = false;
    const int ag = graph.addTask([&](std::function<void()> done) {
        runRecoverableCollective(
            mesh, RingCollectiveKind::kAllGather, true, 0, MiB(8),
            kLaneHorizontalComm,
            [&retried, done](const RecoveryOutcome &out) {
                retried = out.retried;
                done();
            });
    });
    GemmWork work;
    work.m = 512;
    work.k = 512;
    work.n = 512;
    graph.addTask(
        [&](std::function<void()> done) {
            cluster.runGemm(0, work, std::move(done));
        },
        {ag});
    graph.run("span pin");
    EXPECT_TRUE(retried);
    expectPinned({"recoverable allgather 2x4", 8, "72250b0df51ea702"},
                 cluster);
}

ReshardPlan
reshardPlan()
{
    SurvivorMesh sv;
    sv.from = MeshShape{3, 4};
    sv.failedRow = 1;
    return planReshard(3 * 2 * 64, 4 * 64, 2, sv);
}

TEST(SpanPin, ReshardPlainAndInRecoveryScope)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 12);
    cluster.enableProfiler(true);
    SpanRecorder &prof = cluster.profiler();
    const ReshardPlan plan = reshardPlan();
    Time plain = -1.0;
    runReshard(cluster, plan, [&plain](Time t) { plain = t; });
    cluster.sim().run();
    // The scope closes before the run: the re-shard carries the
    // recovery flag it captured at launch.
    const int marker = prof.addNode("kill r1", SpanCategory::kRecovery,
                                    cluster.sim().now(),
                                    cluster.sim().now());
    prof.beginRecovery(marker);
    Time detour = -1.0;
    runReshard(cluster, plan, [&detour](Time t) { detour = t; });
    prof.endRecovery();
    cluster.sim().run();
    EXPECT_GT(plain, 0.0);
    EXPECT_GT(detour, 0.0);
    expectPinned({"reshard plain + scoped", 21, "eef8e2bae369f62c"},
                 cluster);
}

TEST(SpanPin, RecoveryReshardInsideMarkerScope)
{
    // The elastic runtime's shape: the scope stays open for the run,
    // and the corpse's blocks stream from the checkpoint target.
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 12);
    cluster.enableProfiler(true);
    SpanRecorder &prof = cluster.profiler();
    const int marker = prof.addNode("fail-stop abort",
                                    SpanCategory::kRecovery, 0.0, 0.0,
                                    {}, 5);
    prof.beginRecovery(marker);
    Time span = -1.0;
    runRecoveryReshard(cluster, reshardPlan(), 5, GBps(10),
                       [&span](Time t) { span = t; });
    cluster.sim().run();
    prof.endRecovery();
    EXPECT_GT(span, 0.0);
    expectPinned({"recovery reshard", 11, "0db7ec9110ac726b"}, cluster);
}

TEST(SpanPin, Checkpoint)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 8);
    cluster.enableProfiler(true);
    CheckpointSpec spec;
    spec.bytesPerChip = MiB(64);
    spec.targetBandwidth = GBps(20);
    Time span = -1.0;
    runCheckpoint(cluster, spec, [&span](Time t) { span = t; });
    cluster.sim().run();
    EXPECT_GT(span, 0.0);
    expectPinned({"checkpoint", 10, "742be1079b46b48d"}, cluster);
}

TEST(SpanPin, Pipeline1F1BChargedLaunch)
{
    const ChipConfig cfg = tpuV4Config();
    PipelineExecSpec spec;
    spec.schedule = PipelineSchedule::k1F1B;
    spec.microBatches = 4;
    spec.fwdTime = 0.8e-3;
    spec.bwdTime = 1.7e-3;
    spec.boundaryBytes = MiB(8);
    spec.chargeLaunch = true;
    Cluster cluster(cfg, 3 * 2);
    cluster.enableProfiler(true);
    PipelineCluster pc(cluster, 3, 1, 2);
    runPipeline(pc, spec);
    expectPinned({"pipeline 1f1b", 56, "d92a8d1ff373a0bb"}, cluster);
}

} // namespace
} // namespace meshslice
