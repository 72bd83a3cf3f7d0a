#include "core/gemm_schedule.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "gemm/ring_collectives.hpp"
#include "gemm/slicing.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** One moving matrix of a sliced schedule. */
struct Side
{
    Dir dir;
    CollKind op;
    Bytes shardPerIter; ///< per-chip shard bytes of one slice
    int ringSize;
};

std::array<Side, 2>
sidesOf(const Gemm2DSpec &spec)
{
    const FlowSide h = horizontalFlow(spec);
    const FlowSide v = verticalFlow(spec);
    const Bytes per_slice = spec.chips() * Bytes{spec.sliceCount};
    return {Side{Dir::kHorizontal, h.op, h.matrixBytes / per_slice,
                 spec.cols},
            Side{Dir::kVertical, v.op, v.matrixBytes / per_slice,
                 spec.rows}};
}

/** Append @p step after @p deps (negative ids mean "none"). */
int
add(GemmSchedule &g, GemmStep step, const std::vector<int> &deps)
{
    for (int d : deps)
        if (d >= 0)
            step.deps.push_back(d);
    g.steps.push_back(std::move(step));
    return static_cast<int>(g.steps.size()) - 1;
}

GemmStep
collective(const Side &side, int lo, int hi, Bytes bytes)
{
    return GemmStep{.kind = StepKind::kCollective, .dir = side.dir,
                    .op = side.op, .lo = lo, .hi = hi, .bytes = bytes};
}

GemmStep
gemm(int lo, int hi, int tile = -1)
{
    return GemmStep{.kind = StepKind::kGemm, .lo = lo, .hi = hi,
                    .tile = tile};
}

/**
 * MeshSlice (and Collective, S = 1): per slice, partial AGs feed the
 * GeMM and partial RdS follow it. Pipelined: per-direction comm chains
 * and a compute chain; real-TPUv4 mode: the same steps in strict
 * program order.
 */
void
scheduleSliced(GemmSchedule &g, const ChipConfig &cfg)
{
    const auto sides = sidesOf(g.spec);
    g.slices = g.spec.sliceCount;
    g.work = localSliceWork(g.spec);
    auto put = [&](GemmStep step, const std::vector<int> &deps) {
        if (cfg.allowCollectiveOverlap)
            return add(g, std::move(step), deps);
        return add(g, std::move(step), {static_cast<int>(g.steps.size()) - 1});
    };
    int prev_pre[2] = {-1, -1};
    int prev_post[2] = {-1, -1};
    int prev_comp = -1;
    for (int s = 0; s < g.slices; ++s) {
        std::vector<int> comp_deps{prev_comp};
        for (size_t i = 0; i < 2; ++i) {
            if (sides[i].op != CollKind::kAllGather)
                continue;
            prev_pre[i] = put(collective(sides[i], s, s + 1,
                                         sides[i].shardPerIter),
                              {prev_pre[i]});
            comp_deps.push_back(prev_pre[i]);
        }
        prev_comp = put(gemm(s, s + 1), comp_deps);
        for (size_t i = 0; i < 2; ++i)
            if (sides[i].op == CollKind::kReduceScatter)
                prev_post[i] = put(collective(sides[i], s, s + 1,
                                              sides[i].shardPerIter),
                                   {prev_comp, prev_post[i]});
    }
}

/**
 * SUMMA: P = lcm(Pr, Pc) panel iterations of pipelined bcast/reduce per
 * direction (the O(P^2) synchronization cost, Sec 2.3.3); loop
 * unrolling (Sec 4.2) merges the computation into min(S, P) groups but
 * leaves the fine-grain communication in place.
 */
void
scheduleSumma(GemmSchedule &g, const ChipConfig &cfg)
{
    const Gemm2DSpec &spec = g.spec;
    const int p_iter = std::lcm(spec.rows, spec.cols);
    const int s_count = std::min(spec.sliceCount, p_iter);
    Gemm2DSpec comp_spec = spec;
    comp_spec.sliceCount = s_count;
    g.slices = p_iter;
    g.work = localSliceWork(comp_spec);

    // Per-direction, per-iteration payload of one ring.
    const FlowSide h = horizontalFlow(spec);
    const FlowSide v = verticalFlow(spec);
    const GemmStep panels[2] = {
        {.kind = StepKind::kPanel, .dir = Dir::kHorizontal, .op = h.op,
         .bytes = h.matrixBytes / (Bytes{spec.rows} * p_iter)},
        {.kind = StepKind::kPanel, .dir = Dir::kVertical, .op = v.op,
         .bytes = v.matrixBytes / (Bytes{spec.cols} * p_iter)},
    };
    auto panel = [&](int i, int it) {
        GemmStep step = panels[i];
        step.lo = it;
        step.hi = it + 1;
        return step;
    };
    auto is_reduce = [&](int i) {
        return panels[i].op == CollKind::kReduceScatter;
    };
    // Panel range feeding compute group k: [lo(k), lo(k + 1)).
    auto group_lo = [p_iter, s_count](int k) {
        return k * p_iter / s_count;
    };

    if (!cfg.allowCollectiveOverlap) {
        int prev = -1;
        int it_pre = 0;
        int it_post = 0;
        for (int k = 0; k < s_count; ++k) {
            for (; it_pre < group_lo(k + 1); ++it_pre)
                for (int i = 0; i < 2; ++i)
                    if (!is_reduce(i))
                        prev = add(g, panel(i, it_pre), {prev});
            prev = add(g, gemm(group_lo(k), group_lo(k + 1)), {prev});
            for (; it_post < group_lo(k + 1); ++it_post)
                for (int i = 0; i < 2; ++i)
                    if (is_reduce(i))
                        prev = add(g, panel(i, it_post), {prev});
        }
        return;
    }

    // Pipelined: per-direction bcast chains run ahead; compute group k
    // waits for both directions' panels of each of its iterations;
    // reduce iteration `it` waits for the group that computed it.
    int prev_comm[2] = {-1, -1};
    std::vector<std::vector<int>> bcasts(static_cast<size_t>(p_iter));
    for (int it = 0; it < p_iter; ++it)
        for (int i = 0; i < 2; ++i)
            if (!is_reduce(i))
                bcasts[static_cast<size_t>(it)].push_back(
                    prev_comm[i] = add(g, panel(i, it), {prev_comm[i]}));
    int prev_comp = -1;
    std::vector<int> comp_of_iter(static_cast<size_t>(p_iter), -1);
    for (int k = 0; k < s_count; ++k) {
        std::vector<int> deps{prev_comp};
        for (int it = group_lo(k); it < group_lo(k + 1); ++it)
            deps.insert(deps.end(), bcasts[static_cast<size_t>(it)].begin(),
                        bcasts[static_cast<size_t>(it)].end());
        prev_comp = add(g, gemm(group_lo(k), group_lo(k + 1)), deps);
        for (int it = group_lo(k); it < group_lo(k + 1); ++it)
            comp_of_iter[static_cast<size_t>(it)] = prev_comp;
    }
    int prev_post[2] = {-1, -1};
    for (int it = 0; it < p_iter; ++it)
        for (int i = 0; i < 2; ++i)
            if (is_reduce(i))
                prev_post[i] =
                    add(g, panel(i, it),
                        {comp_of_iter[static_cast<size_t>(it)],
                         prev_post[i]});
}

/**
 * The rotation pipeline of Wang and the 1D baselines: per slice s, a
 * copy of @p rotation for slice s and a GeMM. An AllGather rotation
 * feeds its GeMM; in the XLA-artifact mode (no SendRecv overlap, Sec
 * 5.3.1) it also waits for the previous GeMM. A ReduceScatter rotation
 * follows its GeMM; without overlap the next GeMM waits for it. The
 * first rotation (AG) or GeMM (RdS) also waits for @p prologue. Returns
 * the step a following epilogue waits for: the last GeMM, or without
 * overlap in the RdS case the last rotation.
 */
int
rotationPipeline(GemmSchedule &g, const GemmStep &rotation, bool overlap,
                 int prologue)
{
    int prev_shift = -1;
    int prev_comp = -1;
    for (int s = 0; s < g.slices; ++s) {
        GemmStep shift = rotation;
        shift.lo = s;
        shift.hi = s + 1;
        if (rotation.op == CollKind::kAllGather) {
            prev_shift = add(g, std::move(shift),
                             {prev_shift, overlap ? -1 : prev_comp,
                              prologue});
            prev_comp = add(g, gemm(s, s + 1), {prev_shift, prev_comp});
        } else {
            prev_comp = add(g, gemm(s, s + 1), {prev_comp, prologue});
            prev_shift = add(g, std::move(shift), {prev_comp, prev_shift});
            if (!overlap)
                prev_comp = prev_shift; // next compute waits the shift
        }
    }
    return prev_comp;
}

/**
 * Wang: the direction with more bytes per link is decomposed into S
 * SendRecv rotations overlapped with the computes; the other direction
 * is one blocking collective (AG prologue or RdS epilogue).
 */
void
scheduleWang(GemmSchedule &g, const ChipConfig &cfg)
{
    const int s_count = g.spec.sliceCount;
    g.slices = s_count;
    g.work = localSliceWork(g.spec);
    const auto sides = sidesOf(g.spec);
    auto link_traffic = [](const Side &side) {
        return static_cast<double>(side.shardPerIter) *
               static_cast<double>(side.ringSize - 1);
    };
    const size_t ov = link_traffic(sides[0]) >= link_traffic(sides[1]) ? 0
                                                                       : 1;
    const Side &ov_side = sides[ov];
    const Side &bl_side = sides[1 - ov];
    const GemmStep rotation{.kind = StepKind::kShift, .dir = ov_side.dir,
                            .op = ov_side.op, .lump = Lump::kRotation,
                            .bytes = ov_side.shardPerIter *
                                     (ov_side.ringSize - 1),
                            .bidir = cfg.bidirectionalIci &&
                                     ov_side.ringSize > 2};
    const GemmStep blocking =
        collective(bl_side, 0, s_count, bl_side.shardPerIter * s_count);

    const int prologue =
        bl_side.op == CollKind::kAllGather ? add(g, blocking, {}) : -1;
    const int last =
        rotationPipeline(g, rotation, cfg.allowSendRecvOverlap, prologue);
    if (bl_side.op == CollKind::kReduceScatter)
        add(g, blocking, {last});
}

/**
 * Cannon on a square mesh: the skew prologue, then the systolic steps
 * [first, first + count), a GeMM per step with one shift of each input
 * between consecutive steps.
 */
void
scheduleCannon(GemmSchedule &g, int first, int count)
{
    const Gemm2DSpec &spec = g.spec;
    if (spec.rows != spec.cols)
        panic("Cannon requires a square mesh, got %dx%d", spec.rows,
              spec.cols);
    const int p = spec.rows;
    const Bytes e = spec.bytesPerElement;
    g.slices = p;
    g.first = first;
    g.work = GemmWork{spec.m / p, spec.k / p, spec.n / p};
    auto shift = [&](Dir dir, Lump lump, int lo) {
        const Bytes shard = (dir == Dir::kHorizontal ? spec.m : spec.n) *
                            spec.k * e / spec.chips();
        return GemmStep{.kind = StepKind::kShift, .dir = dir,
                        .lump = lump, .lo = lo, .hi = lo + 1,
                        .bytes = shard};
    };

    int prev_h = -1;
    int prev_v = -1;
    for (int hop = 0; hop < p / 2; ++hop) {
        prev_h = add(g, shift(Dir::kHorizontal, Lump::kSkew, hop), {prev_h});
        prev_v = add(g, shift(Dir::kVertical, Lump::kSkew, hop), {prev_v});
    }
    const int end = first + count;
    int prev_comp = -1;
    for (int s = first; s < end; ++s) {
        prev_comp = add(g, gemm(s, s + 1), {prev_comp, prev_h, prev_v});
        if (s + 1 < end) {
            prev_h = add(g, shift(Dir::kHorizontal, Lump::kNone, s),
                         {prev_h});
            prev_v = add(g, shift(Dir::kVertical, Lump::kNone, s),
                         {prev_v});
        }
    }
}

/**
 * OneSided (Brock & Golin): rows*cols independent per-tile chains of
 * gets(s) -> compute(s); gets(s+1) pipeline over compute(s) unless
 * SendRecv-style overlap is disabled.
 */
void
scheduleOneSided(GemmSchedule &g, const ChipConfig &cfg)
{
    if (g.spec.dataflow != Dataflow::kOS)
        panic("OneSided pulls into a stationary C tile: dataflow must "
              "be OS, got %s", dataflowName(g.spec.dataflow));
    const int tiles = g.spec.chips();
    g.slices = g.spec.sliceCount;
    g.work = localSliceWork(g.spec);
    const auto sides = sidesOf(g.spec);
    std::vector<int> prev_get(static_cast<size_t>(tiles), -1);
    std::vector<int> prev_comp(static_cast<size_t>(tiles), -1);
    for (int s = 0; s < g.slices; ++s) {
        for (int t = 0; t < tiles; ++t) {
            const size_t idx = static_cast<size_t>(t);
            prev_get[idx] = add(
                g,
                GemmStep{.kind = StepKind::kGetBatch, .lo = s,
                         .hi = s + 1, .tile = t,
                         .bytes = sides[0].shardPerIter,
                         .colBytes = sides[1].shardPerIter},
                {prev_get[idx],
                 cfg.allowSendRecvOverlap ? -1 : prev_comp[idx]});
            prev_comp[idx] =
                add(g, gemm(s, s + 1, t), {prev_get[idx], prev_comp[idx]});
        }
    }
}

} // namespace

GemmSchedule
makeGemmSchedule(Algorithm algo, const Gemm2DSpec &spec,
                 const ChipConfig &cfg)
{
    GemmSchedule g;
    g.algo = algo;
    g.spec = spec;
    switch (algo) {
      case Algorithm::kCollective:
        g.spec.sliceCount = 1;
        scheduleSliced(g, cfg);
        break;
      case Algorithm::kMeshSlice:
        scheduleSliced(g, cfg);
        break;
      case Algorithm::kSumma:
        scheduleSumma(g, cfg);
        break;
      case Algorithm::kWang:
        scheduleWang(g, cfg);
        break;
      case Algorithm::kCannon:
        scheduleCannon(g, 0, spec.rows);
        break;
      case Algorithm::kOneSided:
        scheduleOneSided(g, cfg);
        break;
      default:
        panic("makeGemmSchedule: %s is not a 2D algorithm",
              algorithmName(algo));
    }
    return g;
}

GemmSchedule
makeGemmSchedule(Algorithm algo, const Gemm1DSpec &spec,
                 const ChipConfig &cfg)
{
    if (algo != Algorithm::kOneDTP && algo != Algorithm::kFsdp)
        panic("makeGemmSchedule: %s is not a 1D baseline",
              algorithmName(algo));
    const int s_count = spec.sliceCount;
    GemmSchedule g;
    g.algo = algo;
    g.spec = Gemm2DSpec{.m = spec.m, .k = spec.k, .n = spec.n,
                        .rows = 1, .cols = spec.chips,
                        .sliceCount = s_count,
                        .bytesPerElement = spec.bytesPerElement};
    if (spec.commIsReduce)
        g.spec.dataflow = Dataflow::kLS;
    else if (algo == Algorithm::kFsdp)
        std::swap(g.spec.m, g.spec.n); // Y^T = W^T X^T gathers W^T
    g.slices = s_count;
    // Slice the larger free dimension of the local GeMM.
    g.work = spec.localWork();
    if (g.work.m >= g.work.n)
        g.work.m = std::max<std::int64_t>(1, g.work.m / s_count);
    else
        g.work.n = std::max<std::int64_t>(1, g.work.n / s_count);
    const GemmStep rotation{
        .kind = StepKind::kShift, .dir = Dir::kHorizontal,
        .op = spec.commIsReduce ? CollKind::kReduceScatter
                                : CollKind::kAllGather,
        .lump = Lump::kRotation,
        .bytes = spec.commBytes / spec.chips * (spec.chips - 1) / s_count,
        .bidir = cfg.bidirectionalIci && spec.chips > 2};
    // The baselines overlap through SendRecv rotations too, so the
    // XLA-artifact mode (Sec 5.3.1) serializes them as it does Wang.
    rotationPipeline(g, rotation, cfg.allowSendRecvOverlap, -1);
    return g;
}

GemmSchedule
make25DLayerSchedule(const Gemm2DSpec &spec, int layer, int depth)
{
    if (depth <= 0 || spec.rows % depth != 0)
        panic("2.5D depth %d must divide the base dimension %d", depth,
              spec.rows);
    GemmSchedule g;
    g.algo = Algorithm::kCannon;
    g.spec = spec;
    const int steps = spec.rows / depth;
    scheduleCannon(g, layer * steps, steps);
    return g;
}

Bytes
chargedBytesPerChip(const GemmSchedule &sched, const GemmStep &step)
{
    const Gemm2DSpec &spec = sched.spec;
    const int ring = step.dir == Dir::kHorizontal ? spec.cols : spec.rows;
    switch (step.kind) {
      case StepKind::kCollective:
        return step.bytes * (ring - 1);
      case StepKind::kPanel:
        return ring > 1 ? step.bytes : 0;
      case StepKind::kShift:
        return step.bytes;
      case StepKind::kGetBatch:
        return step.bytes * (spec.cols - 1) +
               step.colBytes * (spec.rows - 1);
      case StepKind::kGemm:
        break;
    }
    return 0;
}

// --------------------------------------------------------------------
// Functional interpreter
// --------------------------------------------------------------------

namespace {

/** Per-chip buffers of one functional run and the step semantics. */
class FunctionalRun
{
  public:
    FunctionalRun(const GemmSchedule &sched, const DistMatrix &a,
                  const DistMatrix &b, int block)
        : sched_(sched), spec_(sched.spec), a_(a), b_(b),
          c_(a.mesh(), spec_.m, spec_.n),
          block_(spec_.sliceCount == 1 ? 1 : block),
          partial_(static_cast<size_t>(spec_.chips() * sched.slices))
    {
        for (auto &r : recv_)
            r.resize(partial_.size());
        // The first slice of Cannon's window is each chip's own shards.
        if (sched.algo == Algorithm::kCannon)
            for (int chip = 0; chip < spec_.chips(); ++chip) {
                in(Dir::kHorizontal, chip, sched.first) = shardOf(a_, chip);
                in(Dir::kVertical, chip, sched.first) = shardOf(b_, chip);
            }
        // A 1D ring's column rings are single chips: the vertical input
        // never moves, so each chip reads its own slices.
        if (sched.algo == Algorithm::kOneDTP ||
            sched.algo == Algorithm::kFsdp)
            for (int chip = 0; chip < spec_.chips(); ++chip)
                for (int s = 0; s < sched.slices; ++s)
                    in(Dir::kVertical, chip, s) =
                        piece(Dir::kVertical, chip, s);
    }

    StepTraffic
    apply(const GemmStep &step)
    {
        switch (step.kind) {
          case StepKind::kCollective:
            return ringCollective(step.dir, step.op, step.lo, step.hi);
          case StepKind::kPanel:
            return step.op == CollKind::kAllGather
                       ? panelBroadcast(step.dir, step.lo)
                       : panelReduce(step.dir, step.lo);
          case StepKind::kShift:
            return step.lump == Lump::kRotation
                       ? ringCollective(step.dir, step.op, step.lo, step.hi)
                       : cannonShift(step.dir, step.lump, step.lo);
          case StepKind::kGetBatch:
            return getBatch(step.tile, step.lo);
          case StepKind::kGemm:
            localGemm(step);
            return {};
        }
        return {};
    }

    DistMatrix take() { return std::move(c_); }

  private:
    bool horizontal(Dir d) const { return d == Dir::kHorizontal; }
    int ringSize(Dir d) const
    {
        return horizontal(d) ? spec_.cols : spec_.rows;
    }
    int ringCount(Dir d) const
    {
        return horizontal(d) ? spec_.rows : spec_.cols;
    }
    /** Chip at position @p pos of ring @p ring of direction @p d. */
    int chipOf(Dir d, int ring, int pos) const
    {
        return horizontal(d) ? ring * spec_.cols + pos
                             : pos * spec_.cols + ring;
    }
    const Matrix &shardOf(const DistMatrix &m, int chip) const
    {
        return m.shardAt(chip / spec_.cols, chip % spec_.cols);
    }
    Matrix &cShard(int chip)
    {
        return c_.shardAt(chip / spec_.cols, chip % spec_.cols);
    }
    /** The moving input chip @p chip holds for slice @p s. */
    Matrix &in(Dir d, int chip, int s)
    {
        return recv_[horizontal(d) ? 0 : 1]
                    [static_cast<size_t>(chip * sched_.slices + s)];
    }
    Matrix &partial(int chip, int s)
    {
        return partial_[static_cast<size_t>(chip * sched_.slices + s)];
    }

    /** Chip @p chip's blocked slice @p s of the input moving along @p d:
     *  A's columns horizontally, B's rows vertically (Sec 3.1.2). */
    Matrix
    piece(Dir d, int chip, int s) const
    {
        const int sc = spec_.sliceCount;
        return horizontal(d) ? sliceCols(shardOf(a_, chip), sc, s, block_)
                             : sliceRows(shardOf(b_, chip), sc, s, block_);
    }

    /**
     * Step-accurate ring AG (inputs) or RdS (outputs) of slices
     * [lo, hi) on every ring of @p d: P-1 neighbour transfers per
     * slice. Horizontal rings concatenate columns, so they run on
     * transposes.
     */
    StepTraffic
    ringCollective(Dir d, CollKind op, int lo, int hi)
    {
        StepTraffic t;
        const bool h = horizontal(d);
        const int p = ringSize(d);
        for (int s = lo; s < hi; ++s) {
            RingStepTrace steps;
            for (int r = 0; r < ringCount(d); ++r) {
                std::vector<Matrix> parts;
                for (int pos = 0; pos < p; ++pos) {
                    const int chip = chipOf(d, r, pos);
                    Matrix m = op == CollKind::kAllGather
                                   ? piece(d, chip, s)
                                   : std::move(partial(chip, s));
                    parts.push_back(h ? m.transpose() : std::move(m));
                }
                std::vector<Matrix> out =
                    op == CollKind::kAllGather
                        ? ringAllGatherFunctional(parts, &steps)
                        : ringReduceScatterFunctional(parts, &steps);
                for (int pos = 0; pos < p; ++pos) {
                    const int chip = chipOf(d, r, pos);
                    Matrix m = h ? out[static_cast<size_t>(pos)].transpose()
                                 : std::move(out[static_cast<size_t>(pos)]);
                    if (op == CollKind::kAllGather)
                        in(d, chip, s) = std::move(m);
                    else if (h)
                        unsliceColsInto(cShard(chip), m, spec_.sliceCount,
                                        s, block_);
                    else
                        unsliceRowsInto(cShard(chip), m, spec_.sliceCount,
                                        s, block_);
                }
            }
            for (std::int64_t e : steps)
                t.elems += e;
            t.hops += static_cast<int>(steps.size());
        }
        return t;
    }

    /** SUMMA panel @p it of the matrix a ring of @p d shares: its
     *  owner's ring position and the panel's offset in that shard. */
    std::pair<int, std::int64_t>
    panelOwner(Dir d, std::int64_t width, int it, std::int64_t shard) const
    {
        const int owner = summaPanelOwner(it, ringSize(d), sched_.slices);
        return {owner, it * width - owner * shard};
    }

    /** SUMMA bcast: the owner's panel reaches every chip of the ring. */
    StepTraffic
    panelBroadcast(Dir d, int it)
    {
        const bool h = horizontal(d);
        const std::int64_t w = (h ? a_.cols() : b_.rows()) / sched_.slices;
        const auto [owner, off] =
            panelOwner(d, w, it, h ? a_.shardCols() : b_.shardRows());
        StepTraffic t;
        for (int r = 0; r < ringCount(d); ++r) {
            const Matrix &src = shardOf(h ? a_ : b_, chipOf(d, r, owner));
            const Matrix panel =
                h ? src.colBlock(off, w) : src.rowBlock(off, w);
            for (int pos = 0; pos < ringSize(d); ++pos)
                in(d, chipOf(d, r, pos), it) = panel;
            if (ringSize(d) > 1)
                t = {panel.rows() * panel.cols(), 1};
        }
        return t;
    }

    /** SUMMA reduce: the ring's partials sum into the owner's C panel. */
    StepTraffic
    panelReduce(Dir d, int it)
    {
        const bool h = horizontal(d);
        const std::int64_t w = (h ? c_.cols() : c_.rows()) / sched_.slices;
        const auto [owner, off] =
            panelOwner(d, w, it, h ? c_.shardCols() : c_.shardRows());
        StepTraffic t;
        for (int r = 0; r < ringCount(d); ++r) {
            Matrix sum = std::move(partial(chipOf(d, r, 0), it));
            for (int pos = 1; pos < ringSize(d); ++pos)
                sum.add(partial(chipOf(d, r, pos), it));
            Matrix &dst = cShard(chipOf(d, r, owner));
            for (std::int64_t i = 0; i < sum.rows(); ++i)
                for (std::int64_t j = 0; j < sum.cols(); ++j)
                    (h ? dst.at(i, off + j) : dst.at(off + i, j)) +=
                        sum.at(i, j);
            if (ringSize(d) > 1)
                t = {sum.rows() * sum.cols(), 1};
        }
        return t;
    }

    /**
     * Cannon shift, one hop per ring: a systolic step moves slice @p s
     * into slice @p s + 1 (A left along rows, B up along columns); skew
     * hop @p s rotates the window's first slice of ring r towards its
     * offset o = (r + first) mod P the shorter way round, so ring r
     * moves only while min(o, P - o) > s.
     */
    StepTraffic
    cannonShift(Dir d, Lump lump, int s)
    {
        const bool skew = lump == Lump::kSkew;
        const int p = ringSize(d);
        const int from = skew ? sched_.first : s;
        const int to = skew ? sched_.first : s + 1;
        StepTraffic t;
        for (int r = 0; r < ringCount(d); ++r) {
            const int offset = (r + sched_.first) % p;
            if (skew && std::min(offset, p - offset) <= s)
                continue;
            std::vector<Matrix> held;
            for (int pos = 0; pos < p; ++pos)
                held.push_back(std::move(in(d, chipOf(d, r, pos), from)));
            t = {held.front().rows() * held.front().cols(), 1};
            std::vector<Matrix> next =
                ringShiftFunctional(held, !skew || offset <= p / 2);
            for (int pos = 0; pos < p; ++pos)
                in(d, chipOf(d, r, pos), to) =
                    std::move(next[static_cast<size_t>(pos)]);
        }
        return t;
    }

    /** OneSided: tile @p tile pulls slice @p s of A from its row peers
     *  and of B from its column peers. */
    StepTraffic
    getBatch(int tile, int s)
    {
        const int r = tile / spec_.cols;
        const int c = tile % spec_.cols;
        std::vector<Matrix> a_parts;
        for (int cc = 0; cc < spec_.cols; ++cc)
            a_parts.push_back(piece(Dir::kHorizontal, r * spec_.cols + cc, s));
        std::vector<Matrix> b_parts;
        for (int rr = 0; rr < spec_.rows; ++rr)
            b_parts.push_back(piece(Dir::kVertical, rr * spec_.cols + c, s));
        StepTraffic t{(spec_.cols - 1) * a_parts.front().rows() *
                              a_parts.front().cols() +
                          (spec_.rows - 1) * b_parts.front().rows() *
                              b_parts.front().cols(),
                      1};
        in(Dir::kHorizontal, tile, s) = Matrix::hcat(a_parts);
        in(Dir::kVertical, tile, s) = Matrix::vcat(b_parts);
        return t;
    }

    /**
     * Local GeMM of slices [lo, hi): moving inputs come from the
     * receive buffers, stationary ones from the shards. OS accumulates
     * into C; LS/RS leave a partial for the following RdS/reduce.
     */
    void
    localGemm(const GemmStep &step)
    {
        const Dataflow df = spec_.dataflow;
        const int first = step.tile < 0 ? 0 : step.tile;
        const int last = step.tile < 0 ? spec_.chips() : step.tile + 1;
        for (int chip = first; chip < last; ++chip) {
            for (int s = step.lo; s < step.hi; ++s) {
                const Matrix &l = df == Dataflow::kLS
                                      ? shardOf(a_, chip)
                                      : in(Dir::kHorizontal, chip, s);
                const Matrix &r = df == Dataflow::kRS
                                      ? shardOf(b_, chip)
                                      : in(Dir::kVertical, chip, s);
                if (df == Dataflow::kOS)
                    Matrix::gemmAcc(l, r, cShard(chip));
                else if (df == Dataflow::kLS)
                    partial(chip, s) = Matrix::gemm(l, r.transpose());
                else
                    partial(chip, s) = Matrix::gemm(l.transpose(), r);
            }
        }
    }

    const GemmSchedule &sched_;
    const Gemm2DSpec &spec_;
    const DistMatrix &a_;
    const DistMatrix &b_;
    DistMatrix c_;
    int block_;
    std::vector<Matrix> recv_[2]; ///< [dir][chip * slices + s]
    std::vector<Matrix> partial_; ///< [chip * slices + s]
};

} // namespace

DistMatrix
runFunctional(const GemmSchedule &sched, const DistMatrix &a,
              const DistMatrix &b, int block,
              std::vector<StepTraffic> *traffic)
{
    const Gemm2DSpec ref = functionalSpec(sched.spec.dataflow, a, b, 1);
    if (ref.m != sched.spec.m || ref.k != sched.spec.k ||
        ref.n != sched.spec.n || ref.rows != sched.spec.rows ||
        ref.cols != sched.spec.cols)
        panic("runFunctional: operands %s do not match schedule %s",
              ref.str().c_str(), sched.spec.str().c_str());
    FunctionalRun run(sched, a, b, block);
    if (traffic)
        traffic->clear();
    for (const GemmStep &step : sched.steps) {
        const StepTraffic t = run.apply(step);
        if (traffic)
            traffic->push_back(t);
    }
    return run.take();
}

Gemm2DSpec
functionalSpec(Dataflow df, const DistMatrix &a, const DistMatrix &b,
               int s_count)
{
    if (!(a.mesh() == b.mesh()))
        panic("functionalSpec: operands on different meshes");
    Gemm2DSpec spec;
    spec.dataflow = df;
    spec.rows = a.mesh().rows;
    spec.cols = a.mesh().cols;
    spec.sliceCount = s_count;
    // OS: A M x K, B K x N; LS: A M x K, B N x K; RS: A K x M, B K x N.
    const bool a_t = df == Dataflow::kRS;
    const bool b_t = df == Dataflow::kLS;
    spec.m = a_t ? a.cols() : a.rows();
    spec.k = a_t ? a.rows() : a.cols();
    spec.n = b_t ? b.rows() : b.cols();
    if ((b_t ? b.cols() : b.rows()) != spec.k)
        panic("functionalSpec: %s K mismatch", dataflowName(df));
    return spec;
}

DistMatrix
runGemmFunctional(Algorithm algo, Dataflow df, const DistMatrix &a,
                  const DistMatrix &b, int s_count, int block)
{
    const GemmSchedule sched = makeGemmSchedule(
        algo, functionalSpec(df, a, b, s_count), ChipConfig{});
    return runFunctional(sched, a, b, block);
}

DistMatrix
run25DFunctional(const DistMatrix &a, const DistMatrix &b, int depth)
{
    const Gemm2DSpec spec = functionalSpec(Dataflow::kOS, a, b, 1);
    DistMatrix c(a.mesh(), spec.m, spec.n);
    for (int layer = 0; layer < depth; ++layer) {
        // The layer works on its own copy of the inputs.
        const DistMatrix part =
            runFunctional(make25DLayerSchedule(spec, layer, depth), a, b, 1);
        for (int r = 0; r < spec.rows; ++r)
            for (int col = 0; col < spec.cols; ++col)
                c.shardAt(r, col).add(part.shardAt(r, col));
    }
    return c;
}

} // namespace meshslice
