/**
 * @file
 * Simulated re-shard: lowers a `ReshardPlan` onto the cluster's fluid
 * network instead of the closed-form `reshardTime` estimate.
 *
 * Every block movement becomes a fluid flow demanding the source
 * chip's egress NIC, the destination chip's ingress NIC (both sized by
 * `reshardChipRate`, the same four-links-in-parallel aggregate the
 * analytic model charges) and the two HBMs. Ingress/egress contention
 * and HBM sharing therefore *emerge* instead of being summarized by
 * the bottleneck chip, and the span recorder sees one reshard-transfer
 * node per move — which is how re-shard traffic shows up on the
 * critical path with a binding resource attached.
 *
 * Inside a recovery scope the recorded nodes are categorized as
 * recovery detours (like collectives' abort/retry path), so elastic
 * re-shard time attributes to `kRecovery` rather than `kComm`.
 *
 * The re-shard, the recovery re-shard and the checkpoint share one
 * body, a flow batch: launch delay, the flows (started inside the
 * launch event, so their lazily registered resources keep their
 * order), a join with one guard signal so an empty batch still
 * completes, one sync latency, then `done(span)`. They differ only in
 * the flows they start and in their node names and categories.
 */
#ifndef MESHSLICE_CORE_RESHARD_EXEC_HPP_
#define MESHSLICE_CORE_RESHARD_EXEC_HPP_

#include <functional>

#include "gemm/reshard.hpp"
#include "hw/cluster.hpp"

namespace meshslice {

/**
 * Execute @p plan on @p cluster's fluid network: one launch overhead,
 * all moves streaming concurrently, one closing barrier. Calls
 * @p done with the end-to-end simulated span (the caller still has to
 * drive `cluster.sim().run()`). Chip ids in the plan must exist on the
 * cluster. With a balanced plan the span agrees with
 * `reshardTime(cfg, plan)`; skewed plans and background traffic make
 * the simulated span the ground truth the analytic form approximates.
 */
void runReshard(Cluster &cluster, const ReshardPlan &plan,
                std::function<void(Time)> done);

/**
 * Recovery-transaction variant of `runReshard`: @p dead_chip died and
 * cannot source its blocks over the ICI, so every move whose source is
 * the corpse instead streams from the checkpoint target — a shared
 * `ckpt.restore` resource registered at @p restore_bandwidth (the
 * host-DMA/DCN path the checkpoint was written through), demanding
 * only the destination side's ingress NIC and HBM. Moves between
 * surviving chips (including the retired line's healthy spares) run on
 * real links exactly as in `runReshard`. Call inside a recovery scope
 * so the profiler attributes the transfers to `kRecovery`.
 */
void runRecoveryReshard(Cluster &cluster, const ReshardPlan &plan,
                        int dead_chip, Rate restore_bandwidth,
                        std::function<void(Time)> done);

/** Timed checkpoint emitted by the elastic runtime at the Young–Daly
 *  interval. */
struct CheckpointSpec
{
    /** Bytes each chip streams out (optimizer + weight shards). */
    Bytes bytesPerChip = 0;
    /** Aggregate ingest bandwidth of the checkpoint target (the shared
     *  `ckpt.target` resource all per-chip write flows contend on). */
    Rate targetBandwidth = 0.0;
};

/**
 * Execute one checkpoint on @p cluster: a launch overhead, then one
 * flow per chip demanding the chip's HBM plus the shared checkpoint
 * target, then a closing barrier of one sync latency. Calls @p done
 * with the end-to-end span (the caller drives `cluster.sim().run()`).
 * All recorded span nodes carry the `kCheckpoint` category, so
 * checkpoint traffic is a first-class slice of the critical-path
 * attribution. The write also leaves each chip's checkpoint copy in
 * local HBM — which is why a later recovery re-shard can source
 * survivor blocks over real links and only the corpse's blocks from
 * the target (`runRecoveryReshard`).
 */
void runCheckpoint(Cluster &cluster, const CheckpointSpec &spec,
                   std::function<void(Time)> done);

} // namespace meshslice

#endif // MESHSLICE_CORE_RESHARD_EXEC_HPP_
