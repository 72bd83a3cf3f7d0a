/**
 * @file
 * Timing executors for the distributed GeMM algorithms (Sec 4.2/4.3).
 *
 * Every timed GeMM is written once, as a `GemmSchedule`
 * (`core/gemm_schedule`): the six 2D algorithms, the 1D baselines
 * (1DTP / FSDP, Wang's rotation pipeline on the ring seen as a 1 x P
 * mesh) and the 2.5D GeMM's layers (windows of Cannon's steps,
 * `core/dp3d`). The timed interpreter here lowers a schedule's steps
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
 * Timed interpreter: append @p sched's steps to @p graph on @p mesh
 * (which may be one layer of a 3D cluster) as simulated tasks, in step
 * order with the step dependencies; steps with no dependency wait for
 * task @p after when it is >= 0. Communication stats and FLOPs
 * accumulate into @p state. Returns the tasks nothing in the schedule
 * waits for, which a composed schedule hangs its next phase on.
 */
std::vector<int> lowerTimed(TaskGraph &graph, TorusMesh &mesh,
                            const GemmSchedule &sched,
                            GemmRunResult *state, int after = -1);

/**
 * Append @p algo's software-pipelined schedule for @p spec to an
 * existing task graph (`lowerTimed` of `makeGemmSchedule`). Used to
 * compose multi-mesh schedules (e.g. MeshSlice+DP, Sec 7).
 */
std::vector<int> buildGemmSchedule(TaskGraph &graph, TorusMesh &mesh,
                                   Algorithm algo, const Gemm2DSpec &spec,
                                   GemmRunResult *accum);

/** Simulate a 1D baseline on the ring: `GemmExecutor` on the ring's
 *  1 x P mesh runs the `Gemm1DSpec` schedule. The spec's comm matrix
 *  and local work set the timing; @p algo labels the telemetry and
 *  picks the functional form (1DTP or FSDP). */
GemmRunResult runGemm1D(RingNetwork &net, const Gemm1DSpec &spec,
                        Algorithm algo = Algorithm::kOneDTP);

/**
 * The SUMMA packet count minimizing the pipelined broadcast time of
 * @p payload bytes over @p hops hops (closed-form, clamped to [1,64]).
 */
int optimalPacketCount(const ChipConfig &cfg, int hops, Bytes payload);

} // namespace meshslice

#endif // MESHSLICE_CORE_EXECUTOR_HPP_
