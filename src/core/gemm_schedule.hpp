/**
 * @file
 * One schedule, two interpreters: every timed GeMM is written once, as
 * a `GemmSchedule` — a list of steps with explicit dependencies — and
 * both the timing simulator (`core/executor`) and the data-carrying
 * functional run below read that same list. The six 2D algorithms
 * have one schedule each; the 1D baselines are the Wang rotation
 * pipeline on a 1 x P grid (the ring); a 2.5D GeMM layer is a window
 * of Cannon's systolic steps.
 *
 * Step kinds (slice indices address the schedule's slice grid: the S
 * MeshSlice slices, SUMMA's lcm(Pr,Pc) panels, or Cannon's P systolic
 * steps):
 *  - kCollective: partial AllGather / ReduceScatter of slices [lo, hi)
 *    on every ring of `dir`.
 *  - kPanel: SUMMA broadcast (AG) or reduce (RdS) of panel `lo`.
 *  - kShift: a SendRecv rotation: a Cannon systolic step, one hop of
 *    Cannon's skew, or a Wang / 1D slice's rotation.
 *  - kGetBatch: one tile's one-sided gets of slice `lo` (OneSided).
 *  - kGemm: local GeMM over slices [lo, hi), on every chip or one tile.
 *
 * Two steps are timed as a lumped cost while the functional run does
 * the exact movement (`Lump`): Cannon's skew, charged as floor(P/2)
 * full-shard rotations of every ring, and a Wang or 1D slice's
 * rotation through P-1 hops, charged as one shift of the same bytes.
 */
#ifndef MESHSLICE_CORE_GEMM_SCHEDULE_HPP_
#define MESHSLICE_CORE_GEMM_SCHEDULE_HPP_

#include <cstdint>
#include <vector>

#include "core/mesh_ops.hpp"
#include "core/spec.hpp"
#include "gemm/dist_matrix.hpp"
#include "hw/chip_config.hpp"

namespace meshslice {

enum class StepKind { kCollective, kPanel, kShift, kGetBatch, kGemm };

/** How a shift's timed charge relates to the movement it stands for. */
enum class Lump
{
    kNone,     ///< exact: one hop of `bytes` per chip
    kSkew,     ///< Cannon skew hop `lo`: every ring is charged a full
               ///< rotation; only rings still short of their offset move
    kRotation, ///< Wang, 1D: slice `lo` circles P-1 hops as an AG or
               ///< RdS; charged as one shift of the (P-1) pieces' bytes
};

struct GemmStep
{
    StepKind kind = StepKind::kGemm;
    std::vector<int> deps = {}; ///< indices of earlier steps
    Dir dir = Dir::kHorizontal;
    CollKind op = CollKind::kAllGather; ///< AG/bcast or RdS/reduce
    Lump lump = Lump::kNone;
    int lo = 0; ///< slice range [lo, hi)
    int hi = 1;
    int tile = -1; ///< OneSided tile r*cols+c; -1 = every chip
    /** Timed payload: per-chip shard (collective, per row get), ring
     *  payload (panel) or per-chip block (shift). */
    Bytes bytes = 0;
    Bytes colBytes = 0; ///< get batch: bytes per column get
    bool bidir = false; ///< shift split over both ICI directions
};

struct GemmSchedule
{
    Algorithm algo = Algorithm::kMeshSlice;
    /** As scheduled (Collective: sliceCount 1; 1D: the 1 x P grid's
     *  2D form, see the `Gemm1DSpec` overload of `makeGemmSchedule`). */
    Gemm2DSpec spec;
    int slices = 1;   ///< extent of the slice grid
    int first = 0;    ///< Cannon: first systolic step of the window
    GemmWork work;    ///< local GeMM of every kGemm step
    std::vector<GemmStep> steps;
};

/** Write @p algo's schedule for @p spec; @p cfg supplies the overlap
 *  modes and bidirectional ICI. Panics on a non-2D algorithm, Cannon
 *  on a non-square mesh and OneSided with a non-OS dataflow. */
GemmSchedule makeGemmSchedule(Algorithm algo, const Gemm2DSpec &spec,
                              const ChipConfig &cfg);

/**
 * Write the 1D baseline @p algo (kOneDTP or kFsdp) for @p spec: Wang's
 * rotation pipeline on the 1 x P grid of the ring. The shift bytes
 * (commBytes / P * (P - 1) / S) and the local GeMM (the larger free
 * dimension sliced S ways, at least 1) come from @p spec. The column
 * rings hold one chip each, so the other input never moves and has no
 * step. For the functional run the ring is a 2D GeMM on the 1 x P grid:
 * the AllGather forms are OS (1D TP: A = X, B = W, C = Y; FSDP:
 * A = W^T, B = X^T, C = Y^T) and the ReduceScatter form is LS (A is
 * m x k and B is stored n x k, both sharded along k; C is
 * reduce-scattered).
 */
GemmSchedule makeGemmSchedule(Algorithm algo, const Gemm1DSpec &spec,
                              const ChipConfig &cfg);

/**
 * Layer @p layer of a 2.5D GeMM over @p depth layers (Solomonik-Demmel,
 * Sec 7): Cannon's schedule for @p spec limited to the window of P/depth
 * systolic steps that starts at step layer * P/depth (Cannon itself is
 * the window [0, P)). The skew is charged as Cannon's; functionally it
 * aligns ring r at offset r + first. Panics unless the mesh is square
 * and @p depth divides its side.
 */
GemmSchedule make25DLayerSchedule(const Gemm2DSpec &spec, int layer,
                                  int depth);

/** The ring position that owns SUMMA panel @p it of @p panels
 *  (= the schedule's `slices`) on a ring of @p ring chips: the root of
 *  its broadcast or reduce in both interpreters. */
inline int
summaPanelOwner(int it, int ring, int panels)
{
    return it * ring / panels;
}

/** The per-chip bytes the timed interpreter charges for @p step. */
Bytes chargedBytesPerChip(const GemmSchedule &sched, const GemmStep &step);

/** What one step moved in the functional run (busiest chip). */
struct StepTraffic
{
    std::int64_t elems = 0; ///< elements received
    int hops = 0;           ///< synchronized neighbour transfers
};

/**
 * Functional interpreter: run @p sched's steps in order on per-chip
 * shards of @p a and @p b (dataflow shapes: OS C = A B; LS C = A B^T
 * with B stored N x K; RS C = A^T B with A stored K x M), slicing with
 * memory block @p block. Returns the sharded C; @p traffic, when
 * non-null, receives one entry per step.
 */
DistMatrix runFunctional(const GemmSchedule &sched, const DistMatrix &a,
                         const DistMatrix &b, int block,
                         std::vector<StepTraffic> *traffic = nullptr);

/** The spec of a @p df GeMM of operands @p a and @p b (shapes as in
 *  `runFunctional`) sliced @p s_count ways. */
Gemm2DSpec functionalSpec(Dataflow df, const DistMatrix &a,
                          const DistMatrix &b, int s_count);

/** Build @p algo's schedule for the operands and run it functionally. */
DistMatrix runGemmFunctional(Algorithm algo, Dataflow df,
                             const DistMatrix &a, const DistMatrix &b,
                             int s_count, int block);

/**
 * Functional 2.5D GeMM C = A B on a P x P base mesh with @p depth
 * layers: every layer holds a copy of the inputs (the depth-ring
 * broadcast), runs its `make25DLayerSchedule` window, and the layers'
 * partial products are summed (the depth-ring reduce).
 */
DistMatrix run25DFunctional(const DistMatrix &a, const DistMatrix &b,
                            int depth);

} // namespace meshslice

#endif // MESHSLICE_CORE_GEMM_SCHEDULE_HPP_
