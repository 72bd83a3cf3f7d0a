#include "hw/cluster.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace meshslice {

namespace {

/**
 * Registry path of a fluid resource: the resource names use '.' as a
 * separator ("chip3.hbm", "link.E.b0.r0.c1"), the stats hierarchy uses
 * '/'.
 */
std::string
statsPathOf(const std::string &resource_name)
{
    std::string path = resource_name;
    std::replace(path.begin(), path.end(), '.', '/');
    return path;
}

} // namespace

Cluster::Cluster(const ChipConfig &cfg, int num_chips)
    : cfg_(cfg), net_(sim_)
{
    validateChipConfig(cfg_);
    if (num_chips <= 0)
        fatal("Cluster: need at least one chip (got %d)", num_chips);
    chips_.reserve(static_cast<size_t>(num_chips));
    for (int c = 0; c < num_chips; ++c) {
        ChipResources res;
        res.core = net_.addResource(strprintf("chip%d.core", c),
                                    cfg_.peakFlops);
        res.hbm = net_.addResource(strprintf("chip%d.hbm", c),
                                   cfg_.hbmBandwidth);
        chips_.push_back(res);
        // Perfetto lane names ("chip 3" / "row comm") — metadata is
        // recorded even while tracing is disabled so lanes are named
        // regardless of when the recorder gets switched on.
        trace_.setProcessName(c, strprintf("chip %d", c));
        trace_.setThreadName(c, kLaneCompute, "compute");
        trace_.setThreadName(c, kLaneHorizontalComm, "row comm");
        trace_.setThreadName(c, kLaneVerticalComm, "col comm");
    }
}

ResourceId
Cluster::addLink(const std::string &name)
{
    return net_.addResource(name, cfg_.iciLinkBandwidth /
                                      cfg_.logicalMeshContention);
}

ResourceId
Cluster::nicOf(int chip)
{
    ChipResources &res = chips_.at(static_cast<size_t>(chip));
    if (res.nic < 0)
        res.nic = net_.addResource(
            strprintf("chip%d.nic", chip),
            kNicLinksPerChip * cfg_.iciLinkBandwidth /
                cfg_.logicalMeshContention);
    return res.nic;
}

void
Cluster::sampleCounters()
{
    if (!trace_.enabled())
        return;
    trace_.recordCounter(
        "cluster", 0, sim_.now(),
        {{"issued_gflops", issuedFlops_ * 1e-9},
         {"comm_mbytes", static_cast<double>(commBytesIssued_) * 1e-6}});
}

void
Cluster::collectResourceStats(StatsRegistry &stats) const
{
    if (!stats.enabled())
        return;
    const Time now = sim_.now();
    for (size_t r = 0; r < net_.resourceCount(); ++r) {
        const ResourceStats rs =
            net_.resourceStats(static_cast<ResourceId>(r));
        const std::string base = statsPathOf(rs.name);
        const double observed = now - rs.createdAt;
        stats.set(base + "/capacity", rs.capacity);
        stats.set(base + "/busy_s", rs.busyTime);
        stats.set(base + "/idle_s", rs.idleTime);
        stats.set(base + "/contention_s", rs.contentionTime);
        stats.set(base + "/observed_s", observed);
        stats.set(base + "/consumed", rs.totalConsumed);
        // Achieved vs peak: fraction of the capacity actually moved
        // over the whole observation window.
        stats.set(base + "/achieved_frac",
                  observed > 0.0
                      ? rs.totalConsumed / (rs.capacity * observed)
                      : 0.0);
    }
}

FlowId
Cluster::runGemm(int chip, const GemmWork &work, std::function<void()> done)
{
    if (work.empty()) {
        sim_.scheduleAfter(0.0, std::move(done));
        return FlowId{-1};
    }
    const Flops flops = gemmFlops(work);
    issuedFlops_ += flops;

    // Core demand: padding inefficiency consumes extra core-cycles per
    // useful FLOP, so the solo rate is peak * efficiency.
    const double core_demand = 1.0 / gemmPadEfficiency(cfg_, work);
    // HBM demand: bytes per useful FLOP of the tiled schedule.
    const double hbm_demand =
        static_cast<double>(gemmHbmTraffic(cfg_, work)) / flops;

    const Time begin = sim_.now();
    const bool tracing = trace_.enabled();
    auto cb = [this, chip, begin, tracing, flops,
               span = SpanContext(profiler_),
               done = std::move(done)]() mutable {
        if (tracing) {
            trace_.record("gemm", "compute", chip, kLaneCompute, begin,
                          sim_.now());
            sampleCounters();
        }
        if (stats_.enabled()) {
            stats_.add("gemm/count", 1.0);
            stats_.add("gemm/flops", flops);
            stats_.observe("gemm/span_s", sim_.now() - begin);
        }
        const int node =
            span.enabled()
                ? span.record(strprintf("gemm c%d", chip),
                              SpanCategory::kCompute, begin, sim_.now(),
                              span.deps(), chip, net_.lastFinishedFlow())
                : -1;
        span.finish(node, done);
    };
    return net_.startFlow(flops,
                          {Demand{coreOf(chip), core_demand},
                           Demand{hbmOf(chip), hbm_demand}},
                          std::move(cb));
}

} // namespace meshslice
