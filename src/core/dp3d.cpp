#include "core/dp3d.hpp"

#include <memory>

#include "core/mesh_ops.hpp"
#include "core/taskgraph.hpp"
#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

Torus3D::Torus3D(Cluster &cluster, int rows, int cols, int depth)
    : cluster_(cluster), rows_(rows), cols_(cols), depth_(depth)
{
    if (rows <= 0 || cols <= 0 || depth <= 0)
        panic("Torus3D: bad shape %dx%dx%d", rows, cols, depth);
    if (rows * cols * depth != cluster.numChips())
        panic("Torus3D: %dx%dx%d != %d chips", rows, cols, depth,
              cluster.numChips());
    for (int l = 0; l < depth; ++l)
        layers_.push_back(std::make_unique<TorusMesh>(
            cluster, rows, cols, l * rows * cols));
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            Ring ring;
            for (int l = 0; l < depth; ++l)
                ring.chips.push_back(l * rows * cols + r * cols + c);
            for (int l = 0; l < depth; ++l) {
                ring.fwd.push_back(cluster.addLink(
                    strprintf("link.D+.r%d.c%d.l%d", r, c, l)));
                ring.bwd.push_back(cluster.addLink(
                    strprintf("link.D-.r%d.c%d.l%d", r, c, l)));
            }
            depthRings_.push_back(std::move(ring));
        }
    }
}

namespace {

/**
 * A task that fans an operation out to every depth ring and completes
 * once all have, adding the merged stats to @p stats.
 */
template <typename IssueFn>
TaskGraph::TaskFn
allDepthRings(Torus3D &torus, CommStats &stats, IssueFn issue)
{
    return [&torus, &stats, issue](std::function<void()> done) {
        struct Fanout
        {
            CommStats merged;
            std::function<void()> done;
        };
        auto state = std::make_shared<Fanout>();
        state->done = std::move(done);
        const int rings = torus.rows() * torus.cols();
        Join *join = Join::create(rings, [state, &stats] {
            stats += state->merged;
            state->done();
        });
        for (int r = 0; r < torus.rows(); ++r)
            for (int c = 0; c < torus.cols(); ++c)
                issue(torus.depthRing(r, c),
                      [state, join](const CommStats &ring_stats) {
                          state->merged.mergeParallel(ring_stats);
                          join->signal();
                      });
    };
}

} // namespace

Gemm3DResult
runMeshSliceDP(Torus3D &torus, Algorithm algo,
               const Gemm2DSpec &layer_spec, Bytes weight_grad_bytes)
{
    Cluster &cluster = torus.cluster();
    Gemm3DResult out;
    GemmRunResult layer_accum;

    TaskGraph graph(cluster.sim(), &cluster.profiler());
    // Layers are independent data-parallel replicas: their schedules
    // share the graph with no cross dependencies.
    std::vector<int> finals;
    for (int l = 0; l < torus.depth(); ++l) {
        const std::vector<int> layer_finals = buildGemmSchedule(
            graph, torus.layer(l), algo, layer_spec, &layer_accum);
        finals.insert(finals.end(), layer_finals.begin(),
                      layer_finals.end());
    }
    // The DP all-reduce of the weight gradients over the depth rings
    // waits for every layer's GeMM.
    if (torus.depth() > 1 && weight_grad_bytes > 0)
        graph.addTask(
            allDepthRings(torus, out.interLayer,
                          [&cluster, weight_grad_bytes](const Ring &ring,
                                                        CommDone done) {
                              ringAllReduce(cluster, ring,
                                            weight_grad_bytes,
                                            kLaneVerticalComm,
                                            std::move(done));
                          }),
            std::move(finals));

    out.time = graph.run("runMeshSliceDP");
    out.flops = layer_accum.flops;
    out.intraLayer += layer_accum.horizontal;
    out.intraLayer += layer_accum.vertical;
    return out;
}

Gemm3DResult
run25DGemm(Torus3D &torus, std::int64_t m, std::int64_t k, std::int64_t n,
           int bytes_per_element)
{
    Cluster &cluster = torus.cluster();
    const int p = torus.rows();
    const int c_depth = torus.depth();
    const Gemm2DSpec spec{.m = m, .k = k, .n = n, .rows = p,
                          .cols = torus.cols(),
                          .bytesPerElement = bytes_per_element};

    Gemm3DResult out;
    out.flops = spec.totalFlops();
    const Bytes e = bytes_per_element;
    const Bytes chips2d = static_cast<Bytes>(p) * p;
    const Bytes shard_a = m * k * e / chips2d;
    const Bytes shard_b = k * n * e / chips2d;
    const Bytes shard_c = m * n * e / chips2d;

    TaskGraph graph(cluster.sim(), &cluster.profiler());
    // Replicate the A and B shards over the depth rings (broadcast
    // from layer 0: the 2.5D "c copies of the inputs").
    const int replicate = graph.addTask(allDepthRings(
        torus, out.interLayer,
        [&cluster, shard_a, shard_b, c_depth](const Ring &ring,
                                              CommDone done) {
            ringBroadcast(cluster, ring, 0, shard_a + shard_b, c_depth,
                          kLaneVerticalComm, std::move(done));
        }));
    // Each layer runs its window of Cannon's systolic steps.
    GemmRunResult intra;
    std::vector<int> finals;
    for (int l = 0; l < c_depth; ++l) {
        const std::vector<int> layer_finals =
            lowerTimed(graph, torus.layer(l),
                       make25DLayerSchedule(spec, l, c_depth), &intra,
                       replicate);
        finals.insert(finals.end(), layer_finals.begin(),
                      layer_finals.end());
    }
    // Reduce the partial C's over the depth rings.
    graph.addTask(allDepthRings(torus, out.interLayer,
                                [&cluster, shard_c, c_depth](
                                    const Ring &ring, CommDone done) {
                                    ringReduce(cluster, ring, 0, shard_c,
                                               c_depth, kLaneVerticalComm,
                                               std::move(done));
                                }),
                  std::move(finals));

    out.time = graph.run("run25DGemm");
    out.intraLayer += intra.horizontal;
    out.intraLayer += intra.vertical;
    return out;
}

} // namespace meshslice
