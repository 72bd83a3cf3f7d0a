#include "net/topology.hpp"

#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Store-and-forward hops a detour route takes through an adjacent
 *  ring (down, across, up) — the detour link gets 1/hops bandwidth. */
constexpr double kDetourHops = 3.0;

/**
 * Build a ring over all chips of @p ring except the one at @p fail_pos.
 * Direct links between surviving neighbours are kept; the two directed
 * hops that passed through the failed chip become fresh "detour"
 * resources at 1/kDetourHops of the ICI bandwidth.
 */
Ring
detourRing(Cluster &cluster, const Ring &ring, int fail_pos,
           const std::string &name_base)
{
    const int n = ring.size();
    Ring out;
    const int m = n - 1; // survivors
    for (int j = 0; j < m; ++j)
        out.chips.push_back(
            ring.chips[static_cast<size_t>((fail_pos + 1 + j) % n)]);
    if (m <= 1)
        return out; // 1-ring: no links needed, collectives no-op

    const double detour_bw = cluster.config().iciLinkBandwidth /
                             cluster.config().logicalMeshContention /
                             kDetourHops;
    const ResourceId detour_fwd = cluster.net().addResource(
        "link.detour.fwd." + name_base, detour_bw);
    const ResourceId detour_bwd = cluster.net().addResource(
        "link.detour.bwd." + name_base, detour_bw);

    // Survivor j sits at original position (fail_pos + 1 + j) % n.
    // fwd[j]: survivor j -> survivor (j+1)%m. Direct except for the
    // last survivor, whose next hop used to run through the failure.
    // bwd[j]: survivor j -> survivor (j-1+m)%m. Direct except for
    // survivor 0, whose previous neighbour was the failed chip.
    for (int j = 0; j < m; ++j) {
        const size_t orig = static_cast<size_t>((fail_pos + 1 + j) % n);
        out.fwd.push_back(j == m - 1 ? detour_fwd : ring.fwd[orig]);
        out.bwd.push_back(j == 0 ? detour_bwd : ring.bwd[orig]);
    }
    return out;
}

/** The ring over all of @p cluster's chips. */
Ring
clusterRing(Cluster &cluster)
{
    Ring ring;
    const int n = cluster.numChips();
    for (int i = 0; i < n; ++i)
        ring.chips.push_back(i);
    for (int i = 0; i < n; ++i) {
        ring.fwd.push_back(cluster.addLink(strprintf("link.CW.%d", i)));
        ring.bwd.push_back(cluster.addLink(strprintf("link.CCW.%d", i)));
    }
    return ring;
}

} // namespace

TorusMesh::TorusMesh(Cluster &cluster, int rows, int cols, int chip_base)
    : cluster_(cluster), rows_(rows), cols_(cols), chipBase_(chip_base)
{
    if (rows <= 0 || cols <= 0)
        fatal("TorusMesh: invalid shape %dx%d — both dimensions must be "
              "positive", rows, cols);
    if (chip_base < 0 || chip_base + rows * cols > cluster.numChips())
        fatal("TorusMesh: %dx%d at base %d exceeds %d chips — build the "
              "Cluster with at least chip_base + rows*cols chips", rows,
              cols, chip_base, cluster.numChips());

    rowRings_.resize(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
        Ring &ring = rowRings_[static_cast<size_t>(r)];
        for (int c = 0; c < cols; ++c)
            ring.chips.push_back(chipAt(r, c));
        for (int c = 0; c < cols; ++c) {
            ring.fwd.push_back(cluster.addLink(
                strprintf("link.E.b%d.r%d.c%d", chip_base, r, c)));
            ring.bwd.push_back(cluster.addLink(
                strprintf("link.W.b%d.r%d.c%d", chip_base, r, c)));
        }
    }

    colRings_.resize(static_cast<size_t>(cols));
    for (int c = 0; c < cols; ++c) {
        Ring &ring = colRings_[static_cast<size_t>(c)];
        for (int r = 0; r < rows; ++r)
            ring.chips.push_back(chipAt(r, c));
        for (int r = 0; r < rows; ++r) {
            ring.fwd.push_back(cluster.addLink(
                strprintf("link.S.b%d.r%d.c%d", chip_base, r, c)));
            ring.bwd.push_back(cluster.addLink(
                strprintf("link.N.b%d.r%d.c%d", chip_base, r, c)));
        }
    }
}

Ring
TorusMesh::rowRingWithout(int r, int c_fail)
{
    if (r < 0 || r >= rows_ || c_fail < 0 || c_fail >= cols_)
        fatal("TorusMesh: rowRingWithout(%d, %d) out of range for a "
              "%dx%d mesh", r, c_fail, rows_, cols_);
    if (rows_ < 2)
        fatal("TorusMesh: cannot detour row ring around chip (%d, %d) — "
              "a 1x%d mesh has no adjacent row to route through "
              "(unroutable ring)", r, c_fail, cols_);
    return detourRing(cluster_, rowRing(r), c_fail,
                      strprintf("E.b%d.r%d.c%d", chipBase_, r, c_fail));
}

Ring
TorusMesh::colRingWithout(int c, int r_fail)
{
    if (c < 0 || c >= cols_ || r_fail < 0 || r_fail >= rows_)
        fatal("TorusMesh: colRingWithout(%d, %d) out of range for a "
              "%dx%d mesh", c, r_fail, rows_, cols_);
    if (cols_ < 2)
        fatal("TorusMesh: cannot detour column ring around chip (%d, %d) "
              "— a %dx1 mesh has no adjacent column to route through "
              "(unroutable ring)", r_fail, c, rows_);
    return detourRing(cluster_, colRing(c), r_fail,
                      strprintf("S.b%d.r%d.c%d", chipBase_, r_fail, c));
}

TorusMesh::TorusMesh(Cluster &cluster, Ring row)
    : cluster_(cluster), rows_(1), cols_(row.size()), chipBase_(0)
{
    colRings_.resize(row.chips.size());
    for (size_t c = 0; c < row.chips.size(); ++c)
        colRings_[c].chips.push_back(row.chips[c]);
    rowRings_.push_back(std::move(row));
}

RingNetwork::RingNetwork(Cluster &cluster)
    : mesh_(cluster, clusterRing(cluster))
{}

} // namespace meshslice
