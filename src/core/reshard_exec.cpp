#include "core/reshard_exec.hpp"

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Span-node names and categories of one flow batch. */
struct BatchSpans
{
    const char *launch;
    const char *sync;
    SpanCategory launchCat;
    SpanCategory flowCat;
    SpanCategory syncCat;
    int launchChip; ///< chip of the launch node (-1: mesh-wide)
};

struct BatchState
{
    std::function<void(Time)> done;
    SpanContext span;
    BatchSpans spans;
    Time begin = 0.0;
    Time xferBegin = 0.0;
    int launchNode = -1;
    std::vector<int> flowNodes;
};

/** Starts a batch's flows; passed to `build` in the launch event. */
class FlowBatch
{
  public:
    FlowBatch(Cluster &cluster, std::shared_ptr<BatchState> st, Join *join)
        : cluster_(cluster), st_(std::move(st)), join_(join)
    {}

    Cluster &cluster() const { return cluster_; }

    /**
     * Start one flow of @p bytes over @p demands. Its span node, on
     * @p chip, is named by @p name(), which runs only while profiling.
     */
    template <class Name>
    void
    add(Bytes bytes, std::vector<Demand> demands, int chip, Name name)
    {
        Cluster *cl = &cluster_;
        auto flow_done = [cl, st = st_, join = join_, chip, name] {
            if (st->span.enabled()) {
                std::vector<int> deps;
                if (st->launchNode >= 0)
                    deps.push_back(st->launchNode);
                st->flowNodes.push_back(st->span.record(
                    name(), st->spans.flowCat, st->xferBegin,
                    cl->sim().now(), std::move(deps), chip,
                    cl->net().lastFinishedFlow()));
            }
            join->signal();
        };
        cluster_.net().startFlow(static_cast<double>(bytes),
                                 std::move(demands), std::move(flow_done));
    }

  private:
    Cluster &cluster_;
    std::shared_ptr<BatchState> st_;
    Join *join_;
};

/**
 * Shared body of the re-shard and the checkpoint: one launch overhead,
 * then @p flows concurrent flows started by @p build, then a closing
 * barrier of one sync latency, then @p done(span). @p build runs
 * inside the launch event, so the resources it registers lazily come
 * after the launch exactly where the flows need them. The +1 guard
 * signal lets a batch with no flows still reach the barrier.
 */
void
runFlowBatch(Cluster &cluster, const BatchSpans &spans, int flows,
             std::function<void(FlowBatch &)> build,
             std::function<void(Time)> done)
{
    auto st = std::make_shared<BatchState>();
    st->done = std::move(done);
    st->span = SpanContext(cluster.profiler());
    st->spans = spans;
    st->begin = cluster.sim().now();
    Cluster *cl = &cluster;
    cluster.sim().scheduleAfter(
        cluster.config().launchOverhead,
        [cl, st, flows, build = std::move(build)] {
            const Time now = cl->sim().now();
            if (st->span.enabled())
                st->launchNode = st->span.record(
                    st->spans.launch, st->spans.launchCat, st->begin, now,
                    st->span.deps(), st->spans.launchChip);
            st->xferBegin = now;
            Join *join = Join::create(flows + 1, [cl, st] {
                const Time xfer_end = cl->sim().now();
                cl->sim().scheduleAfter(
                    cl->config().syncLatency, [cl, st, xfer_end] {
                        const Time end = cl->sim().now();
                        int sync = -1;
                        if (st->span.enabled()) {
                            std::vector<int> deps = st->flowNodes;
                            if (deps.empty() && st->launchNode >= 0)
                                deps.push_back(st->launchNode);
                            sync = st->span.record(
                                st->spans.sync, st->spans.syncCat,
                                xfer_end, end, std::move(deps), -1);
                        }
                        st->span.finish(
                            sync, [&] { st->done(end - st->begin); });
                    });
            });
            FlowBatch batch(*cl, st, join);
            build(batch);
            join->signal();
        });
}

/**
 * Shared body of `runReshard` (dead_chip < 0) and `runRecoveryReshard`
 * (dead_chip >= 0: moves sourced at the corpse stream from the shared
 * `ckpt.restore` resource instead of the corpse's NIC + HBM).
 */
void
runReshardImpl(Cluster &cluster, const ReshardPlan &plan, int dead_chip,
               Rate restore_bandwidth, std::function<void(Time)> done)
{
    for (const ReshardMove &mv : plan.moves) {
        if (mv.srcChip < 0 || mv.srcChip >= cluster.numChips() ||
            mv.dstChip < 0 || mv.dstChip >= cluster.numChips())
            panic("runReshard: move %d->%d outside the %d-chip cluster",
                  mv.srcChip, mv.dstChip, cluster.numChips());
    }
    const BatchSpans spans{
        .launch = "reshard launch",
        .sync = "reshard sync",
        .launchCat = SpanCategory::kLaunch,
        .flowCat = SpanCategory::kComm,
        .syncCat = SpanCategory::kSync,
        .launchChip = plan.moves.empty() ? -1 : plan.moves.front().dstChip};
    auto build = [plan, dead_chip, restore_bandwidth](FlowBatch &batch) {
        Cluster &cl = batch.cluster();
        // Per-chip NIC resources, created lazily for the chips this
        // plan actually touches. Ingress and egress are independent
        // directions, mirroring max(maxChipIngress, maxChipEgress) in
        // the analytic model. The "ici." prefix keeps them in the link
        // resource class for what-if scaling.
        const Rate nic = reshardChipRate(cl.config());
        std::unordered_map<int, ResourceId> nics;
        auto nic_of = [&cl, &nics, nic](int chip, bool in) {
            const int key = chip * 2 + (in ? 1 : 0);
            auto it = nics.find(key);
            if (it == nics.end())
                it = nics.emplace(key, cl.net().addResource(
                                           strprintf("ici.rs.%s.c%d",
                                                     in ? "in" : "out",
                                                     chip),
                                           nic))
                         .first;
            return it->second;
        };
        // Restore path of the recovery variant: one shared resource
        // standing in for the checkpoint target's egress (host DMA /
        // DCN), registered only when a corpse-sourced move exists so
        // the plain re-shard's resource census is unchanged.
        ResourceId restore = -1;
        for (const ReshardMove &mv : plan.moves) {
            cl.noteCommBytes(mv.bytes);
            const bool from_ckpt = mv.srcChip == dead_chip && dead_chip >= 0;
            std::vector<Demand> demands;
            if (from_ckpt) {
                if (restore < 0)
                    restore = cl.net().addResource("ckpt.restore",
                                                   restore_bandwidth);
                demands = {Demand{restore, 1.0},
                           Demand{nic_of(mv.dstChip, true), 1.0},
                           Demand{cl.hbmOf(mv.dstChip), 1.0}};
            } else {
                demands = {Demand{nic_of(mv.srcChip, false), 1.0},
                           Demand{nic_of(mv.dstChip, true), 1.0},
                           Demand{cl.hbmOf(mv.srcChip), 1.0},
                           Demand{cl.hbmOf(mv.dstChip), 1.0}};
            }
            batch.add(mv.bytes, std::move(demands), mv.dstChip,
                      [from_ckpt, src = mv.srcChip, dst = mv.dstChip] {
                          return strprintf("%s %d->%d",
                                           from_ckpt ? "restore"
                                                     : "reshard",
                                           src, dst);
                      });
        }
    };
    runFlowBatch(cluster, spans, static_cast<int>(plan.moves.size()),
                 std::move(build), std::move(done));
}

} // namespace

void
runReshard(Cluster &cluster, const ReshardPlan &plan,
           std::function<void(Time)> done)
{
    runReshardImpl(cluster, plan, -1, 0.0, std::move(done));
}

void
runRecoveryReshard(Cluster &cluster, const ReshardPlan &plan, int dead_chip,
                   Rate restore_bandwidth, std::function<void(Time)> done)
{
    if (dead_chip < 0 || dead_chip >= cluster.numChips())
        panic("runRecoveryReshard: dead chip %d outside the %d-chip "
              "cluster", dead_chip, cluster.numChips());
    if (!(restore_bandwidth > 0.0))
        panic("runRecoveryReshard: restore bandwidth must be positive "
              "(got %g)", restore_bandwidth);
    runReshardImpl(cluster, plan, dead_chip, restore_bandwidth,
                   std::move(done));
}

void
runCheckpoint(Cluster &cluster, const CheckpointSpec &spec,
              std::function<void(Time)> done)
{
    if (spec.bytesPerChip <= 0)
        panic("runCheckpoint: bytesPerChip must be positive (got %lld)",
              static_cast<long long>(spec.bytesPerChip));
    if (!(spec.targetBandwidth > 0.0))
        panic("runCheckpoint: target bandwidth must be positive (got %g)",
              spec.targetBandwidth);

    const BatchSpans spans{.launch = "checkpoint launch",
                           .sync = "checkpoint sync",
                           .launchCat = SpanCategory::kCheckpoint,
                           .flowCat = SpanCategory::kCheckpoint,
                           .syncCat = SpanCategory::kCheckpoint,
                           .launchChip = -1};
    auto build = [spec](FlowBatch &batch) {
        Cluster &cl = batch.cluster();
        const ResourceId target =
            cl.net().addResource("ckpt.target", spec.targetBandwidth);
        for (int chip = 0; chip < cl.numChips(); ++chip)
            batch.add(spec.bytesPerChip,
                      {Demand{cl.hbmOf(chip), 1.0}, Demand{target, 1.0}},
                      chip,
                      [chip] { return strprintf("ckpt write c%d", chip); });
    };
    runFlowBatch(cluster, spans, cluster.numChips(), std::move(build),
                 std::move(done));
}

} // namespace meshslice
