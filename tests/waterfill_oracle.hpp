/**
 * @file
 * Reference waterfill for the fluid network: the original linear-scan
 * pick loop, kept as a pure function of (capacities, availability,
 * flow demands) so tests can check `FluidNetwork`'s heap-indexed
 * waterfill against it bit for bit.
 */
#ifndef MESHSLICE_TESTS_WATERFILL_ORACLE_HPP_
#define MESHSLICE_TESTS_WATERFILL_ORACLE_HPP_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/fluid.hpp"

namespace meshslice {

/** Read-only access to `FluidNetwork` internals for tests. */
struct FluidNetworkTestPeer
{
    /** Active flow ids in the order a recompute gathers them — the
     *  order every member load is summed in. */
    static std::vector<FlowId>
    flowOrder(const FluidNetwork &net)
    {
        std::vector<FlowId> ids;
        for (const auto &entry : net.flows_)
            ids.push_back(entry.first);
        return ids;
    }
};

struct OracleWaterfill
{
    /** Per flow, in input order; 0 for a flow parked on a down
     *  resource. */
    std::vector<double> rates;
    /** Resources water-filled. */
    int picks = 0;
    /** Picks where a higher-id resource had exactly the same ratio. */
    int tiedPicks = 0;
};

/**
 * Rates of @p flows (each a demand vector over resource ids indexing
 * @p capacity and @p available) under saturate-and-waterfill: every
 * pick rescans and re-sums each unprocessed member resource in
 * increasing id order. Member loads are summed in flow input order, so
 * passing flows in `FluidNetworkTestPeer::flowOrder` order reproduces
 * the network's summation exactly.
 */
inline OracleWaterfill
waterfillOracle(const std::vector<double> &capacity,
                const std::vector<char> &available,
                const std::vector<std::vector<Demand>> &flows)
{
    constexpr double kOverloadEps = 1e-9;
    const size_t n = flows.size();
    OracleWaterfill out;
    std::vector<double> &rate = out.rates;
    rate.assign(n, 0.0);
    std::vector<char> parked(n, 0);
    for (size_t i = 0; i < n; ++i) {
        double r = 1e300;
        for (const auto &d : flows[i]) {
            if (!available[static_cast<size_t>(d.resource)]) {
                parked[i] = 1;
                break;
            }
            double lim = capacity[static_cast<size_t>(d.resource)] /
                         d.perUnit;
            if (lim < r)
                r = lim;
        }
        rate[i] = parked[i] ? 0.0 : r;
    }

    std::vector<ResourceId> memberIds;
    std::vector<std::vector<std::pair<std::size_t, double>>> memberLists(
        capacity.size());
    for (size_t i = 0; i < n; ++i) {
        if (parked[i])
            continue;
        for (const auto &d : flows[i]) {
            auto &list = memberLists[static_cast<size_t>(d.resource)];
            if (list.empty())
                memberIds.push_back(d.resource);
            list.emplace_back(i, d.perUnit);
        }
    }
    std::sort(memberIds.begin(), memberIds.end());

    std::vector<char> memberProcessed(memberIds.size(), 0);
    std::vector<std::pair<double, size_t>> consumption; // (c_f, idx)
    for (;;) {
        ResourceId worst = -1;
        std::int32_t worst_slot = -1;
        double worst_ratio = 1.0 + kOverloadEps;
        bool tied = false;
        for (size_t m = 0; m < memberIds.size(); ++m) {
            if (memberProcessed[m])
                continue;
            const ResourceId r = memberIds[m];
            const auto &on_r = memberLists[static_cast<size_t>(r)];
            double load = 0.0;
            for (const auto &[i, d] : on_r)
                load += d * rate[i];
            double ratio = load / capacity[static_cast<size_t>(r)];
            if (ratio > worst_ratio) {
                worst_ratio = ratio;
                worst = r;
                worst_slot = static_cast<std::int32_t>(m);
                tied = false;
            } else if (worst >= 0 && ratio == worst_ratio) {
                tied = true;
            }
        }
        if (worst < 0)
            break;
        memberProcessed[static_cast<size_t>(worst_slot)] = 1;
        ++out.picks;
        out.tiedPicks += tied ? 1 : 0;

        // Water-fill consumptions on `worst` to its capacity.
        const auto &flows_on_r = memberLists[static_cast<size_t>(worst)];
        consumption.clear();
        for (size_t k = 0; k < flows_on_r.size(); ++k)
            consumption.emplace_back(
                flows_on_r[k].second * rate[flows_on_r[k].first], k);
        std::sort(consumption.begin(), consumption.end());

        double cap = capacity[static_cast<size_t>(worst)];
        double below = 0.0; // sum of consumptions kept as-is
        size_t cn = consumption.size();
        double level = 0.0;
        for (size_t k = 0; k < cn; ++k) {
            // Remaining flows all cut to `level`; is consumption[k] kept?
            double candidate =
                (cap - below) / static_cast<double>(cn - k);
            if (consumption[k].first <= candidate) {
                below += consumption[k].first;
                level = candidate; // provisional, refined each iteration
            } else {
                level = candidate;
                break;
            }
        }
        for (const auto &[c, k] : consumption) {
            if (c > level) {
                size_t i = flows_on_r[k].first;
                double d = flows_on_r[k].second;
                double cut = level / d;
                if (cut < rate[i])
                    rate[i] = cut;
            }
        }
    }
    return out;
}

} // namespace meshslice

#endif // MESHSLICE_TESTS_WATERFILL_ORACLE_HPP_
