#include "core/executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "core/mesh_ops.hpp"
#include "core/taskgraph.hpp"
#include "net/onesided.hpp"
#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

int
optimalPacketCount(const ChipConfig &cfg, int hops, Bytes payload)
{
    if (hops <= 1 || payload <= 0)
        return 1;
    // Minimize (hops + D - 1) * (t_sync + payload / (D * bw)) over D.
    const double bw = cfg.iciLinkBandwidth / cfg.logicalMeshContention;
    const double ideal =
        std::sqrt(static_cast<double>(hops - 1) *
                  static_cast<double>(payload) / (bw * cfg.syncLatency));
    return std::clamp(static_cast<int>(std::lround(ideal)), 1, 64);
}

namespace {

/** Accumulate one op's stats into the right direction of the result. */
CommDone
statsSink(GemmRunResult *result, Dir dir, std::function<void()> done)
{
    return [result, dir, done = std::move(done)](const CommStats &stats) {
        if (dir == Dir::kHorizontal)
            result->horizontal += stats;
        else
            result->vertical += stats;
        done();
    };
}

/** Sum of the chips' core busy-seconds (overlap attribution input). */
double
sumCoreBusy(Cluster &cluster)
{
    double sum = 0.0;
    for (int chip = 0; chip < cluster.numChips(); ++chip)
        sum += cluster.net().resourceStats(cluster.coreOf(chip)).busyTime;
    return sum;
}

/**
 * Fill the overlap-efficiency fields of @p result from the core-busy
 * delta across the run and publish the per-algorithm metrics into the
 * cluster's stats registry.
 */
void
finishRunTelemetry(Cluster &cluster, const char *algo_name,
                   GemmRunResult &result, double core_busy_before,
                   int chips)
{
    const double busy =
        (sumCoreBusy(cluster) - core_busy_before) / std::max(1, chips);
    result.computeBusy = busy;
    result.exposedComm = std::max(0.0, result.time - busy);
    StatsRegistry &st = cluster.stats();
    if (!st.enabled())
        return;
    const std::string base = std::string("algo/") + algo_name;
    st.add(base + "/runs", 1.0);
    st.add(base + "/time_s", result.time);
    st.add(base + "/compute_busy_s", result.computeBusy);
    st.add(base + "/exposed_comm_s", result.exposedComm);
    st.observe(base + "/overlap_efficiency",
               result.overlapEfficiency());
    st.observe(base + "/compute_bound_frac",
               result.computeBoundFraction());
}

/**
 * Per-schedule flow-event plumbing: input collectives deposit a flow
 * id as they complete; the next compute task consumes all pending ids,
 * drawing comm -> compute dependency arrows in Perfetto.
 */
struct FlowLinks
{
    std::vector<std::uint64_t> pending;
};

/** Per-chip state of one OneSided run. */
struct OneSidedChip
{
    /** Fail-stop detected on this chip: its remaining tasks complete
     *  vacuously (per-tile independence — nobody else waits for it). */
    bool dead = false;
    /** In-flight compute flow, cancelled if the chip dies mid-GeMM. */
    FlowId compute = -1;
    /** Pending compute-task continuation, fired on death so the graph
     *  drains without a global abort. */
    std::function<void()> computeDone;
    /** Per-chip accumulated get stats (summed over slices). */
    CommStats h, v;
};

struct OneSidedState
{
    explicit OneSidedState(TorusMesh &mesh) : comm(mesh) {}
    OneSidedComm comm;
    std::vector<OneSidedChip> chips;
};

/**
 * Per-chip fail-stop watch (armed only when the fault scenario has
 * kills, so kill-free runs schedule nothing extra): when a chip dies,
 * cancel its in-flight compute and complete its pending task so the
 * rest of the graph keeps draining. Gets *from* the corpse retry over a
 * detour, gets *into* it are written off — both inside OneSidedComm.
 */
void
armKillWatch(TorusMesh &mesh, const std::shared_ptr<OneSidedState> &st)
{
    Cluster &cluster = mesh.cluster();
    FaultInjector *inj = cluster.faults();
    if (inj == nullptr || !inj->hasKills())
        return;
    for (int idx = 0; idx < static_cast<int>(st->chips.size()); ++idx) {
        const int chip = mesh.chipAt(idx / mesh.cols(), idx % mesh.cols());
        const Time kill = inj->earliestKillAfter(
            cluster.sim().now(), {cluster.coreOf(chip), cluster.hbmOf(chip)});
        if (kill < 0.0)
            continue;
        cluster.sim().schedule(
            kill + inj->detectionLatency(), [st, &cluster, inj, chip, idx] {
                OneSidedChip &cs = st->chips[static_cast<size_t>(idx)];
                cs.dead = true;
                // Broadcast HBM deaths to the membership cache so later
                // gets skip their own detection window (a core-only
                // kill leaves the HBM readable).
                if (inj->isKilled(cluster.hbmOf(chip)))
                    st->comm.markDead(chip);
                if (cs.compute >= 0) {
                    cluster.net().cancelFlow(cs.compute);
                    cs.compute = -1;
                }
                if (cluster.stats().enabled())
                    cluster.stats().add("onesided/chip_writeoff", 1.0);
                if (cs.computeDone) {
                    auto done = std::move(cs.computeDone);
                    cs.computeDone = nullptr;
                    done();
                }
            });
    }
}

/**
 * OneSided get batch of one (tile, slice): a single host launch posts
 * the (cols-1) row gets and (rows-1) col gets; all pull concurrently
 * (contending at this chip's NIC queue) and a join fires the task's
 * completion when the last one lands.
 */
TaskGraph::TaskFn
getBatchTask(TorusMesh &mesh, std::shared_ptr<OneSidedState> st,
             const GemmStep &step)
{
    const int rows = mesh.rows();
    const int cols = mesh.cols();
    const int r = step.tile / cols;
    const int c = step.tile % cols;
    const size_t idx = static_cast<size_t>(step.tile);
    const Bytes h_shard = step.bytes;
    const Bytes v_shard = step.colBytes;
    return [st, &mesh, rows, cols, h_shard, v_shard, r, c,
            idx](std::function<void()> done) {
        Cluster &cl = mesh.cluster();
        const int count = (cols - 1) + (rows - 1);
        if (st->chips[idx].dead || count == 0) {
            cl.sim().scheduleAfter(0.0, std::move(done));
            return;
        }
        const int chip = mesh.chipAt(r, c);
        Time launch = cl.config().launchOverhead;
        if (FaultInjector *inj = cl.faults())
            launch += inj->nextLaunchJitter();
        const Time begin = cl.sim().now();
        cl.sim().scheduleAfter(
            launch, [st, &mesh, rows, cols, h_shard, v_shard, r, c, chip,
                     idx, count, launch, begin,
                     span = SpanContext(cl.profiler()),
                     done = std::move(done)]() mutable {
                Cluster &cl = mesh.cluster();
                const int launch_node =
                    span.enabled()
                        ? span.record(
                              strprintf("getbatch c%d launch", chip),
                              SpanCategory::kLaunch, begin,
                              cl.sim().now(), span.deps(), chip)
                        : -1;
                // Parallel-merge the batch's gets per direction, then
                // fold into the chip's running totals.
                auto acc = std::make_shared<std::array<CommStats, 2>>();
                Join *join = Join::create(
                    count, [st, idx, acc, launch,
                            done = std::move(done)]() mutable {
                        OneSidedChip &cs = st->chips[idx];
                        CommStats h = (*acc)[0];
                        h.launch = launch;
                        h.total += launch;
                        cs.h += h;
                        cs.v += (*acc)[1];
                        done();
                    });
                // Each get depends on the launch and registers its own
                // exit.
                span.chain(launch_node, [&] {
                    for (int cc = 0; cc < cols; ++cc) {
                        if (cc == c)
                            continue;
                        st->comm.get(GetAxis::kRow, r, c, r, cc, h_shard,
                                     kLaneHorizontalComm,
                                     [acc, join](const CommStats &s) {
                                         (*acc)[0].mergeParallel(s);
                                         join->signal();
                                     });
                    }
                    for (int rr = 0; rr < rows; ++rr) {
                        if (rr == r)
                            continue;
                        st->comm.get(GetAxis::kCol, r, c, rr, c, v_shard,
                                     kLaneVerticalComm,
                                     [acc, join](const CommStats &s) {
                                         (*acc)[1].mergeParallel(s);
                                         join->signal();
                                     });
                    }
                });
            });
    };
}

/** OneSided compute of one tile: completes vacuously on a dead chip. */
TaskGraph::TaskFn
tileGemmTask(TorusMesh &mesh, std::shared_ptr<OneSidedState> st,
             const GemmWork &work, int tile)
{
    const size_t idx = static_cast<size_t>(tile);
    return [st, &mesh, work, idx](std::function<void()> done) {
        Cluster &cl = mesh.cluster();
        OneSidedChip &cs = st->chips[idx];
        if (cs.dead) {
            cl.sim().scheduleAfter(0.0, std::move(done));
            return;
        }
        cs.computeDone = std::move(done);
        const int chip = mesh.chipAt(static_cast<int>(idx) / mesh.cols(),
                                     static_cast<int>(idx) % mesh.cols());
        cs.compute = cl.runGemm(chip, work, [st, idx] {
            OneSidedChip &cs2 = st->chips[idx];
            cs2.compute = -1;
            if (cs2.computeDone) {
                auto d = std::move(cs2.computeDone);
                cs2.computeDone = nullptr;
                d();
            }
        });
    };
}

/** One rotation of @p bytes in the given direction (forward or not). */
using ShiftFn = std::function<void(Bytes bytes, bool forward, CommDone)>;

/**
 * A shift of @p bytes, split into two halves in opposite directions
 * when @p bidir; @p sink receives the parallel-merged stats.
 */
void
splitShift(Bytes bytes, bool bidir, CommDone sink, const ShiftFn &shift)
{
    if (!bidir) {
        shift(bytes, true, std::move(sink));
        return;
    }
    // shared_ptr (not a raw new/delete pair): if the phase is abandoned
    // mid-shift the Join is reclaimed by the abandon sweep, and
    // destroying its callback must release the half-merged stats too.
    auto merged = std::make_shared<CommStats>();
    Join *join = Join::create(2, [merged, sink] { sink(*merged); });
    auto half_done = [merged, join](const CommStats &stats) {
        merged->mergeParallel(stats);
        join->signal();
    };
    shift(bytes / 2, true, half_done);
    shift(bytes - bytes / 2, false, half_done);
}

/** Timed interpreter: the simulated task for one schedule step. */
TaskGraph::TaskFn
timedTask(TorusMesh &mesh, const GemmSchedule &sched, const GemmStep &step,
          GemmRunResult *state, const std::shared_ptr<FlowLinks> &links,
          const std::shared_ptr<OneSidedState> &onesided)
{
    const int chip0 = mesh.chipAt(0, 0);
    const Dir dir = step.dir;
    const Bytes bytes = step.bytes;
    switch (step.kind) {
      case StepKind::kCollective: {
        const CollKind op = step.op;
        // Only MeshSlice and Collective draw AG -> GeMM flow arrows.
        const bool arrows = sched.algo == Algorithm::kMeshSlice ||
                            sched.algo == Algorithm::kCollective;
        if (!arrows || op != CollKind::kAllGather)
            return [&mesh, state, dir, op, bytes](std::function<void()> done) {
                meshCollective(mesh, dir, op, bytes,
                               statsSink(state, dir, std::move(done)));
            };
        // Each completed input collective deposits a flow id; the
        // compute that consumes it closes the arrow.
        return [&mesh, state, dir, bytes, links,
                chip0](std::function<void()> done) {
            Cluster &cl = mesh.cluster();
            auto wrapped = [&cl, links, chip0, dir, done = std::move(done)] {
                TraceRecorder &tr = cl.trace();
                if (tr.enabled()) {
                    const std::uint64_t id = tr.newFlowId();
                    const int lane = dir == Dir::kHorizontal
                                         ? kLaneHorizontalComm
                                         : kLaneVerticalComm;
                    // 1ns inside the comm span so the arrow binds to it.
                    tr.recordFlow("feeds", "dep", id, chip0, lane,
                                  cl.sim().now() - ns(1.0), true);
                    links->pending.push_back(id);
                }
                done();
            };
            meshCollective(mesh, dir, CollKind::kAllGather, bytes,
                           statsSink(state, dir, std::move(wrapped)));
        };
      }
      case StepKind::kPanel: {
        const bool is_reduce = step.op == CollKind::kReduceScatter;
        const int ring = dir == Dir::kHorizontal ? mesh.cols() : mesh.rows();
        const int root = summaPanelOwner(step.lo, ring, sched.slices);
        return [&mesh, state, dir, is_reduce, root, bytes,
                ring](std::function<void()> done) {
            const ChipConfig &c = mesh.cluster().config();
            const int hops =
                c.bidirectionalIci ? std::max(1, ring / 2) : ring - 1;
            meshBroadcastReduce(mesh, dir, is_reduce, root, bytes,
                                optimalPacketCount(c, hops, bytes),
                                statsSink(state, dir, std::move(done)));
        };
      }
      case StepKind::kShift:
        return [&mesh, state, dir, bytes,
                bidir = step.bidir](std::function<void()> done) {
            splitShift(bytes, bidir, statsSink(state, dir, std::move(done)),
                       [&mesh, dir](Bytes b, bool fwd, CommDone d) {
                           meshShift(mesh, dir, b, fwd, std::move(d));
                       });
        };
      case StepKind::kGetBatch:
        return getBatchTask(mesh, onesided, step);
      case StepKind::kGemm:
        break;
    }
    if (step.tile >= 0)
        return tileGemmTask(mesh, onesided, sched.work, step.tile);
    // Closes the arrows of the input collectives before it (none unless
    // the schedule draws them).
    return [&mesh, work = sched.work, links,
            chip0](std::function<void()> done) {
        Cluster &cl = mesh.cluster();
        TraceRecorder &tr = cl.trace();
        if (tr.enabled() && !links->pending.empty()) {
            for (std::uint64_t id : links->pending)
                tr.recordFlow("feeds", "dep", id, chip0, kLaneCompute,
                              cl.sim().now() + ns(1.0), false);
            links->pending.clear();
        }
        meshGemm(mesh, work, std::move(done));
    };
}

} // namespace

std::vector<int>
lowerTimed(TaskGraph &graph, TorusMesh &mesh, const GemmSchedule &sched,
           GemmRunResult *state, int after)
{
    const Gemm2DSpec &spec = sched.spec;
    if (spec.rows != mesh.rows() || spec.cols != mesh.cols())
        panic("buildGemmSchedule: spec mesh %dx%d != topology %dx%d",
              spec.rows, spec.cols, mesh.rows(), mesh.cols());
    state->flops += spec.totalFlops();
    auto links = std::make_shared<FlowLinks>();
    std::shared_ptr<OneSidedState> onesided;
    if (sched.algo == Algorithm::kOneSided) {
        onesided = std::make_shared<OneSidedState>(mesh);
        onesided->chips.resize(static_cast<size_t>(spec.chips()));
        armKillWatch(mesh, onesided);
    }
    std::vector<int> ids;
    ids.reserve(sched.steps.size());
    std::vector<bool> waited_for(sched.steps.size(), false);
    for (const GemmStep &step : sched.steps) {
        std::vector<int> deps;
        deps.reserve(step.deps.size());
        for (int d : step.deps) {
            deps.push_back(ids[static_cast<size_t>(d)]);
            waited_for[static_cast<size_t>(d)] = true;
        }
        if (deps.empty() && after >= 0)
            deps.push_back(after);
        ids.push_back(graph.addTask(
            timedTask(mesh, sched, step, state, links, onesided),
            std::move(deps)));
    }
    std::vector<int> finals;
    for (size_t i = 0; i < ids.size(); ++i)
        if (!waited_for[i])
            finals.push_back(ids[i]);
    if (!onesided)
        return finals;
    // After each tile's last GeMM, merge the per-chip get stats
    // (component-wise max, the convention for concurrent rings).
    return {graph.addTask(
        [onesided, state](std::function<void()> done) {
            for (const OneSidedChip &cs : onesided->chips) {
                state->horizontal.mergeParallel(cs.h);
                state->vertical.mergeParallel(cs.v);
            }
            done();
        },
        finals)};
}

std::vector<int>
buildGemmSchedule(TaskGraph &graph, TorusMesh &mesh, Algorithm algo,
                  const Gemm2DSpec &spec, GemmRunResult *accum)
{
    return lowerTimed(graph, mesh,
                      makeGemmSchedule(algo, spec, mesh.cluster().config()),
                      accum);
}

GemmRunResult
GemmExecutor::run(Algorithm algo, const Gemm2DSpec &spec)
{
    // Only MeshSlice and OneSided consume the slice count; the
    // baselines ignore it, so don't hold them to its divisibility
    // constraint.
    Gemm2DSpec checked = spec;
    if (algo != Algorithm::kMeshSlice && algo != Algorithm::kOneSided)
        checked.sliceCount = 1;
    validateSpec(checked);
    return run(makeGemmSchedule(algo, spec, mesh_.cluster().config()));
}

GemmRunResult
GemmExecutor::run(const GemmSchedule &sched)
{
    Cluster &cluster = mesh_.cluster();
    GemmRunResult result;
    TaskGraph graph(cluster.sim(), &cluster.profiler());
    lowerTimed(graph, mesh_, sched, &result);
    const double core_busy_before = sumCoreBusy(cluster);
    bool stopped = false;
    result.time = graph.run("GemmExecutor", &stopped);
    // A stopped run is a partial result the caller discards.
    if (!stopped)
        finishRunTelemetry(cluster, algorithmName(sched.algo), result,
                           core_busy_before, cluster.numChips());
    return result;
}

GemmRunResult
runGemm1D(RingNetwork &net, const Gemm1DSpec &spec, Algorithm algo)
{
    validateSpec(spec);
    return GemmExecutor(net.mesh())
        .run(makeGemmSchedule(algo, spec, net.cluster().config()));
}

} // namespace meshslice
