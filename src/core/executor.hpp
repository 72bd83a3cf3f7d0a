/**
 * @file
 * Timing executors for the distributed GeMM algorithms (Sec 4.2/4.3).
 *
 * Each 2D algorithm is written once, as a `GemmSchedule`
 * (`core/gemm_schedule`); the timed interpreter here lowers its steps
 * to a task graph of mesh-wide operations (collectives, SUMMA panels,
 * shifts, one-sided get batches, local GeMMs) with the schedule's
 * dependencies, and the fluid cluster simulator produces the
 * wall-clock time and the launch/transfer/sync breakdown (Fig 10). The
 * functional interpreter runs the same steps on real data.
 *
 * OneSided lowers with no mesh-wide task at all: per (tile, slice) one
 * launch-batched set of RDMA gets (`net/onesided`), then the tile's
 * compute, so a straggling or killed source chip delays exactly the
 * tiles that read from it (gets from a corpse retry over a detour,
 * gets into it are written off, its compute completes vacuously).
 * The 1D baselines (1DTP / FSDP) run a ring with Wang-style
 * overlapped shifts.
 *
 * When `ChipConfig::allowCollectiveOverlap` is false (the real-TPUv4
 * mode of Sec 5.3), AG/RdS/bcast/reduce-based schedules serialize
 * communication and computation; SendRecv-based overlap stays enabled,
 * matching the hardware capability the paper describes.
 */
#ifndef MESHSLICE_CORE_EXECUTOR_HPP_
#define MESHSLICE_CORE_EXECUTOR_HPP_

#include "core/gemm_schedule.hpp"
#include "core/spec.hpp"
#include "core/taskgraph.hpp"
#include "net/topology.hpp"

namespace meshslice {

/**
 * Runs 2D distributed GeMM algorithms on a torus mesh, one at a time.
 * The underlying cluster's simulated clock advances monotonically
 * across runs; results report per-run durations.
 */
class GemmExecutor
{
  public:
    explicit GemmExecutor(TorusMesh &mesh) : mesh_(mesh) {}

    /**
     * Simulate @p algo executing @p spec (blocking until the simulated
     * schedule drains). @p algo must be a 2D algorithm; `kCollective`
     * ignores `spec.sliceCount`, Cannon requires a square mesh and uses
     * `mesh rows` iterations, `kOneSided` uses `spec.sliceCount` as the
     * per-tile get/compute chain depth.
     */
    GemmRunResult run(Algorithm algo, const Gemm2DSpec &spec);

    /** Simulate an already built schedule (no spec validation). */
    GemmRunResult run(const GemmSchedule &sched);

  private:
    TorusMesh &mesh_;
};

/**
 * Append @p algo's software-pipelined schedule for @p spec to an
 * existing task graph on @p mesh (which may be one layer of a 3D
 * cluster), accumulating communication stats and FLOPs into @p accum.
 * Used to compose multi-mesh schedules (e.g. MeshSlice+DP, Sec 7).
 */
void buildGemmSchedule(TaskGraph &graph, TorusMesh &mesh, Algorithm algo,
                       const Gemm2DSpec &spec, GemmRunResult *accum);

/** Simulate a 1D baseline (`kOneDTP` semantics == `kFsdp`: the spec's
 *  comm matrix and local work differ, the schedule is the same).
 *  @p algo only labels the telemetry (per-algorithm overlap metrics in
 *  the cluster's stats registry). */
GemmRunResult runGemm1D(RingNetwork &net, const Gemm1DSpec &spec,
                        Algorithm algo = Algorithm::kOneDTP);

/**
 * The SUMMA packet count minimizing the pipelined broadcast time of
 * @p payload bytes over @p hops hops (closed-form, clamped to [1,64]).
 */
int optimalPacketCount(const ChipConfig &cfg, int hops, Bytes payload);

} // namespace meshslice

#endif // MESHSLICE_CORE_EXECUTOR_HPP_
