/**
 * @file
 * Interconnect topologies: 2D torus mesh and 1D ring.
 *
 * Directions follow the paper's geometry: *horizontal* communication
 * happens within a row of the mesh (across columns — what Figure 2
 * subscripts as `col`, "inter-column"), *vertical* communication within
 * a column (across rows, subscript `row`). Every physical ICI link is
 * represented as two directed resources so collectives can optionally
 * exploit both directions.
 */
#ifndef MESHSLICE_NET_TOPOLOGY_HPP_
#define MESHSLICE_NET_TOPOLOGY_HPP_

#include <vector>

#include "hw/cluster.hpp"

namespace meshslice {

/**
 * A ring of chips with directed links in both orientations.
 * `fwd[i]` connects `chips[i] -> chips[(i+1) % size]`,
 * `bwd[i]` connects `chips[i] -> chips[(i-1+size) % size]`.
 */
struct Ring
{
    std::vector<int> chips;
    std::vector<ResourceId> fwd;
    std::vector<ResourceId> bwd;

    int size() const { return static_cast<int>(chips.size()); }
};

/**
 * A Pr x Pc 2D torus (the paper's TPU mesh). Chip (r, c) has index
 * r * cols + c. Each chip owns four outgoing directed links: east/west
 * (horizontal) and south/north (vertical).
 */
class TorusMesh
{
  public:
    /**
     * Build a torus over chips [chip_base, chip_base + rows*cols) of
     * the cluster; chip_base > 0 is used by 3D clusters whose layers
     * are stacked 2D tori (Sec 7).
     */
    TorusMesh(Cluster &cluster, int rows, int cols, int chip_base = 0);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int chipBase() const { return chipBase_; }
    int chipAt(int r, int c) const { return chipBase_ + r * cols_ + c; }

    /** Ring across the columns of row @p r (horizontal communication). */
    const Ring &rowRing(int r) const { return rowRings_.at(r); }

    /** Ring across the rows of column @p c (vertical communication). */
    const Ring &colRing(int c) const { return colRings_.at(c); }

    /**
     * Rebuild the row ring of row @p r without the (failed) chip in
     * column @p c_fail: the surviving cols-1 chips keep their direct
     * links, and the one hop that used to pass through the failed chip
     * is replaced in each direction by a *detour* link — a fresh fluid
     * resource at 1/3 of the ICI link bandwidth, modelling the
     * 3-hop store-and-forward route through an adjacent row (down,
     * across, up). Requires rows >= 2 (otherwise there is no adjacent
     * row to route through and the ring is unroutable — a clean
     * `fatal()`, never a hang). Call once per failure; each call
     * registers new detour resources.
     */
    Ring rowRingWithout(int r, int c_fail);

    /** Column-ring analogue of `rowRingWithout` (requires cols >= 2). */
    Ring colRingWithout(int c, int r_fail);

    const std::vector<Ring> &rowRings() const { return rowRings_; }
    const std::vector<Ring> &colRings() const { return colRings_; }

    Cluster &cluster() { return cluster_; }

  private:
    friend class RingNetwork;

    /** A 1 x n mesh whose row ring is @p row (chips 0..n-1); each
     *  column ring is one chip and has no link. */
    TorusMesh(Cluster &cluster, Ring row);

    Cluster &cluster_;
    int rows_;
    int cols_;
    int chipBase_;
    std::vector<Ring> rowRings_;
    std::vector<Ring> colRings_;
};

/**
 * A 1D ring over all chips (the 1D TP / FSDP baselines, Sec 4.3). Each
 * chip connects to two neighbours only, so a chip exposes half the link
 * bandwidth it would have in a 2D mesh. Its links are `link.CW.<i>`
 * (chip i -> i+1) and `link.CCW.<i>` (chip i -> i-1). The GeMM
 * executors see it as a 1 x P mesh whose one row ring is this ring.
 */
class RingNetwork
{
  public:
    explicit RingNetwork(Cluster &cluster);

    const Ring &ring() const { return mesh_.rowRing(0); }
    TorusMesh &mesh() { return mesh_; }
    Cluster &cluster() { return mesh_.cluster(); }

  private:
    TorusMesh mesh_;
};

} // namespace meshslice

#endif // MESHSLICE_NET_TOPOLOGY_HPP_
