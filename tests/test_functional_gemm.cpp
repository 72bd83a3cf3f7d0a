/**
 * @file
 * Numerical verification of every distributed GeMM algorithm against a
 * dense reference, swept over mesh shapes, dataflows and slice counts
 * with parameterized tests — the repository's ground truth that the
 * MeshSlice algorithm (and each baseline) computes the right answer.
 *
 * Every case is also the timed-equals-functional property: the
 * algorithm's `GemmSchedule` (a 2D algorithm's, a 1D baseline's on the
 * ring, or a 2.5D layer's Cannon window) is built once, timed on a
 * simulated mesh or ring, then run functionally as the same object:
 * every step must wait for the steps whose output it reads (so the
 * timed dependencies allow the functional order), and each
 * communication step's timed per-chip bytes must equal the elements
 * the functional run moved (the two lumped steps must also keep their
 * stated hop relation).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core/executor.hpp"
#include "model/transformer.hpp"

namespace meshslice {
namespace {

constexpr double kTol = 2e-3; // float accumulation-order slack

/** The dense product a @p df GeMM of @p a and @p b computes. */
Matrix
referenceProduct(Dataflow df, const Matrix &a, const Matrix &b)
{
    if (df == Dataflow::kLS)
        return Matrix::gemm(a, b.transpose());
    if (df == Dataflow::kRS)
        return Matrix::gemm(a.transpose(), b);
    return Matrix::gemm(a, b);
}

/**
 * The functional run executes the steps in list order; the timed run
 * starts a step once its dependencies finish. The two agree only if
 * every step that reads a buffer (a slice of a moving input, or a
 * GeMM partial) waits, directly or transitively, for the step that
 * last wrote it. Returns the number of violations.
 */
int
unorderedReads(const GemmSchedule &sched)
{
    const size_t n = sched.steps.size();
    std::vector<std::vector<bool>> waits(n, std::vector<bool>(n, false));
    // Buffer key: (what, slice, tile); what = 0/1 input dir, 2 partial.
    std::map<std::tuple<int, int, int>, int> last_writer;
    int violations = 0;
    for (size_t i = 0; i < n; ++i) {
        const GemmStep &step = sched.steps[i];
        for (int d : step.deps) {
            waits[i][static_cast<size_t>(d)] = true;
            for (size_t j = 0; j < n; ++j)
                if (waits[static_cast<size_t>(d)][j])
                    waits[i][j] = true;
        }
        auto read = [&](int what, int s) {
            auto it = last_writer.find({what, s, step.tile});
            if (it != last_writer.end() &&
                !waits[i][static_cast<size_t>(it->second)])
                ++violations;
        };
        auto write = [&](int what, int s) {
            last_writer[{what, s, step.tile}] = static_cast<int>(i);
        };
        const int dir = step.dir == Dir::kHorizontal ? 0 : 1;
        const bool gathers = step.op == CollKind::kAllGather;
        for (int s = step.lo; s < step.hi; ++s) {
            switch (step.kind) {
              case StepKind::kCollective:
              case StepKind::kPanel:
                gathers ? write(dir, s) : read(2, s);
                break;
              case StepKind::kShift:
                if (step.lump == Lump::kRotation) {
                    gathers ? write(dir, s) : read(2, s);
                } else if (step.lump == Lump::kSkew) {
                    read(dir, sched.first);
                    write(dir, sched.first);
                } else {
                    read(dir, s);
                    write(dir, s + 1);
                }
                break;
              case StepKind::kGetBatch:
                write(0, s);
                write(1, s);
                break;
              case StepKind::kGemm:
                if (sched.spec.dataflow != Dataflow::kLS)
                    read(0, s);
                if (sched.spec.dataflow != Dataflow::kRS)
                    read(1, s);
                if (sched.spec.dataflow != Dataflow::kOS)
                    write(2, s);
                break;
            }
        }
    }
    return violations;
}

/** Time @p sched on a fresh cluster: 1D schedules on the ring, the
 *  others on a torus of the schedule's mesh. */
Time
timeSchedule(const GemmSchedule &sched, const ChipConfig &cfg)
{
    Cluster cluster(cfg, sched.spec.chips());
    if (sched.algo == Algorithm::kOneDTP || sched.algo == Algorithm::kFsdp) {
        RingNetwork ring(cluster);
        return GemmExecutor(ring.mesh()).run(sched).time;
    }
    TorusMesh torus(cluster, sched.spec.rows, sched.spec.cols);
    return GemmExecutor(torus).run(sched).time;
}

/**
 * Time @p sched, run it functionally on @p a and @p b and check the
 * step ordering and every step's traffic against its timed charge, and
 * the product against @p ref when given. Returns the product.
 */
Matrix
checkSchedule(const GemmSchedule &sched, int block, const DistMatrix &a,
              const DistMatrix &b, const Matrix *ref,
              const ChipConfig &cfg = tpuV4Config())
{
    const char *algo = algorithmName(sched.algo);
    EXPECT_EQ(unorderedReads(sched), 0) << algo;
    EXPECT_GT(timeSchedule(sched, cfg), 0.0) << algo;

    std::vector<StepTraffic> traffic;
    const Matrix got = runFunctional(sched, a, b, block, &traffic).gather();
    if (ref) {
        EXPECT_TRUE(got.allClose(*ref, kTol))
            << algo << " " << dataflowName(sched.spec.dataflow)
            << " max diff " << got.maxAbsDiff(*ref);
    }

    EXPECT_EQ(traffic.size(), sched.steps.size());
    int skew_hops[2] = {0, 0};
    for (size_t i = 0; i < std::min(traffic.size(), sched.steps.size());
         ++i) {
        const GemmStep &step = sched.steps[i];
        const int ring = step.dir == Dir::kHorizontal ? sched.spec.cols
                                                      : sched.spec.rows;
        EXPECT_EQ(chargedBytesPerChip(sched, step),
                  traffic[i].elems * sched.spec.bytesPerElement)
            << algo << " step " << i;
        // A Wang or 1D rotation is timed as one shift but moves its
        // slice around the whole ring.
        if (step.lump == Lump::kRotation) {
            EXPECT_EQ(traffic[i].hops, ring - 1) << "step " << i;
        }
        if (step.lump == Lump::kSkew)
            ++skew_hops[step.dir == Dir::kHorizontal ? 0 : 1];
    }
    // Cannon's skew is charged as floor(P/2) rotations of every ring:
    // exactly the farthest ring's shorter-way distance to its offset
    // (r + first) mod P.
    if (sched.algo == Algorithm::kCannon) {
        const int p = sched.spec.rows;
        int farthest = 0;
        for (int r = 0; r < p; ++r) {
            const int offset = (r + sched.first) % p;
            farthest = std::max(farthest, std::min(offset, p - offset));
        }
        EXPECT_EQ(skew_hops[0], farthest);
        EXPECT_EQ(skew_hops[1], farthest);
    }
    return got;
}

/**
 * Build @p algo's schedule for the scattered operands once, simulate
 * it, run it functionally and check the product against @p ref and
 * every step's traffic against its timed charge. Returns the product.
 */
Matrix
timedEqualsFunctional(Algorithm algo, Dataflow df, MeshShape mesh, int s,
                      int block, const Matrix &a, const Matrix &b,
                      const Matrix &ref,
                      const ChipConfig &cfg = tpuV4Config())
{
    const DistMatrix da = DistMatrix::scatter(a, mesh);
    const DistMatrix db = DistMatrix::scatter(b, mesh);
    const GemmSchedule sched =
        makeGemmSchedule(algo, functionalSpec(df, da, db, s), cfg);
    return checkSchedule(sched, block, da, db, &ref, cfg);
}

/**
 * The 1D baseline @p algo of Y = X W (@p x is m x k, @p w is k x n) on
 * a ring of @p chips, sliced @p s ways: its schedule is checked like
 * every 2D one on the operands of its 1 x P form. Returns Y.
 */
Matrix
oneDTimedEqualsFunctional(Algorithm algo, const Matrix &x, const Matrix &w,
                          int chips, int s = 1, int block = 1,
                          const ChipConfig &cfg = tpuV4Config())
{
    Gemm2DSpec ring;
    ring.m = x.rows();
    ring.k = x.cols();
    ring.n = w.cols();
    ring.cols = chips;
    ring.sliceCount = s;
    const GemmSchedule sched =
        makeGemmSchedule(algo, to1DSpec(ring, algo), cfg);
    const MeshShape mesh{1, chips};
    const Matrix ref = Matrix::gemm(x, w);
    if (algo == Algorithm::kOneDTP)
        return checkSchedule(sched, block, DistMatrix::scatter(x, mesh),
                             DistMatrix::scatter(w, mesh), &ref, cfg);
    // FSDP gathers W: on the 1 x P grid it is Y^T = W^T X^T.
    const Matrix ref_t = ref.transpose();
    return checkSchedule(sched, block,
                         DistMatrix::scatter(w.transpose(), mesh),
                         DistMatrix::scatter(x.transpose(), mesh), &ref_t,
                         cfg)
        .transpose();
}

/**
 * The backward-weight form of a 1D baseline: the m x n gradient
 * G = A B^T (@p a is m x k, @p b_t is n x k, both sharded along k over
 * @p chips) is reduce-scattered around the ring. Returns G.
 */
Matrix
oneDReduceTimedEqualsFunctional(Algorithm algo, const Matrix &a,
                                const Matrix &b_t, int chips, int s,
                                int block, const ChipConfig &cfg)
{
    const FcGemm gemm{"dw", a.rows(), a.cols(), b_t.rows(),
                      Pass::kBackwardWeight, 0};
    Gemm1DSpec spec = make1DSpec(gemm, algo, chips, 2);
    spec.sliceCount = s;
    const GemmSchedule sched = makeGemmSchedule(algo, spec, cfg);
    const MeshShape mesh{1, chips};
    const Matrix ref = Matrix::gemm(a, b_t.transpose());
    return checkSchedule(sched, block, DistMatrix::scatter(a, mesh),
                         DistMatrix::scatter(b_t, mesh), &ref, cfg);
}

struct FuncCase
{
    int meshRows;
    int meshCols;
    int sliceCount;
    int block;
};

std::string
caseName(const ::testing::TestParamInfo<FuncCase> &info)
{
    const FuncCase &c = info.param;
    return "mesh" + std::to_string(c.meshRows) + "x" +
           std::to_string(c.meshCols) + "_S" +
           std::to_string(c.sliceCount) + "_B" + std::to_string(c.block);
}

class FunctionalGemm : public ::testing::TestWithParam<FuncCase>
{
  protected:
    // Global dims chosen so every swept mesh/S/B divides evenly in
    // every dataflow (the sliced dim is K for OS, N for LS, M for RS).
    static constexpr std::int64_t kM = 96;
    static constexpr std::int64_t kK = 96;
    static constexpr std::int64_t kN = 96;

    Matrix
    check(Algorithm algo, Dataflow df, const Matrix &a, const Matrix &b,
          const Matrix &ref)
    {
        const FuncCase &p = GetParam();
        return timedEqualsFunctional(algo, df, {p.meshRows, p.meshCols},
                                     p.sliceCount, p.block, a, b, ref);
    }
};

TEST_P(FunctionalGemm, MeshSliceOSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 1);
    Matrix b = Matrix::random(kK, kN, 2);
    check(Algorithm::kMeshSlice, Dataflow::kOS, a, b, Matrix::gemm(a, b));
}

TEST_P(FunctionalGemm, MeshSliceLSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 3);
    Matrix b = Matrix::random(kN, kK, 4); // B is N x K; C = A B^T
    check(Algorithm::kMeshSlice, Dataflow::kLS, a, b,
          Matrix::gemm(a, b.transpose()));
}

TEST_P(FunctionalGemm, MeshSliceRSMatchesReference)
{
    Matrix a = Matrix::random(kK, kM, 5); // A is K x M; C = A^T B
    Matrix b = Matrix::random(kK, kN, 6);
    check(Algorithm::kMeshSlice, Dataflow::kRS, a, b,
          Matrix::gemm(a.transpose(), b));
}

TEST_P(FunctionalGemm, CollectiveAgreesWithMeshSlice)
{
    // Collective 2D GeMM is the S=1 special case; both must agree with
    // each other (and the reference).
    Matrix a = Matrix::random(kM, kK, 7);
    Matrix b = Matrix::random(kK, kN, 8);
    const Matrix ref = Matrix::gemm(a, b);
    const Matrix collective =
        check(Algorithm::kCollective, Dataflow::kOS, a, b, ref);
    const Matrix meshslice =
        check(Algorithm::kMeshSlice, Dataflow::kOS, a, b, ref);
    EXPECT_TRUE(collective.allClose(meshslice, kTol));
}

TEST_P(FunctionalGemm, OneSidedOSBitIdenticalToMeshSlice)
{
    // Per C shard the accumulation order over slices is MeshSlice's —
    // the per-tile pull reorders tiles, never a tile's additions.
    Matrix a = Matrix::random(kM, kK, 9);
    Matrix b = Matrix::random(kK, kN, 10);
    const Matrix ref = Matrix::gemm(a, b);
    const Matrix onesided =
        check(Algorithm::kOneSided, Dataflow::kOS, a, b, ref);
    const Matrix meshslice =
        check(Algorithm::kMeshSlice, Dataflow::kOS, a, b, ref);
    EXPECT_EQ(onesided.maxAbsDiff(meshslice), 0.0);
}

TEST_P(FunctionalGemm, WangSlicedMatchesReference)
{
    // Wang's rotations carry the same blocked slices as MeshSlice.
    for (Dataflow df : {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS}) {
        Matrix a = Matrix::random(kM, kK, 11);
        Matrix b = Matrix::random(kK, kN, 12);
        check(Algorithm::kWang, df, a, b, referenceProduct(df, a, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionalGemm,
    ::testing::Values(FuncCase{1, 1, 1, 8}, FuncCase{2, 2, 2, 4},
                      FuncCase{2, 4, 2, 2}, FuncCase{4, 2, 3, 2},
                      FuncCase{4, 4, 2, 2}, FuncCase{2, 2, 6, 2},
                      FuncCase{1, 4, 4, 2}, FuncCase{4, 1, 4, 2},
                      FuncCase{2, 2, 1, 8}, FuncCase{8, 2, 2, 1},
                      FuncCase{2, 8, 3, 1}, FuncCase{3, 2, 2, 2}),
    caseName);

// ------------------------------------------------------------------
// Baseline algorithms
// ------------------------------------------------------------------

struct BaselineCase
{
    int meshRows;
    int meshCols;
};

class BaselineGemm : public ::testing::TestWithParam<BaselineCase>
{
  protected:
    static constexpr std::int64_t kM = 48;
    static constexpr std::int64_t kK = 96;
    static constexpr std::int64_t kN = 48;

    void
    check(Algorithm algo, Dataflow df, const Matrix &a, const Matrix &b,
          const Matrix &ref)
    {
        timedEqualsFunctional(algo, df,
                              {GetParam().meshRows, GetParam().meshCols},
                              1, 1, a, b, ref);
    }
};

TEST_P(BaselineGemm, CollectiveOSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 11);
    Matrix b = Matrix::random(kK, kN, 12);
    check(Algorithm::kCollective, Dataflow::kOS, a, b, Matrix::gemm(a, b));
}

TEST_P(BaselineGemm, CollectiveLSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 13);
    Matrix b = Matrix::random(kN, kK, 14);
    check(Algorithm::kCollective, Dataflow::kLS, a, b,
          Matrix::gemm(a, b.transpose()));
}

TEST_P(BaselineGemm, CollectiveRSMatchesReference)
{
    Matrix a = Matrix::random(kK, kM, 15);
    Matrix b = Matrix::random(kK, kN, 16);
    check(Algorithm::kCollective, Dataflow::kRS, a, b,
          Matrix::gemm(a.transpose(), b));
}

TEST_P(BaselineGemm, SummaOSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 17);
    Matrix b = Matrix::random(kK, kN, 18);
    check(Algorithm::kSumma, Dataflow::kOS, a, b, Matrix::gemm(a, b));
}

TEST_P(BaselineGemm, SummaLSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 19);
    Matrix b = Matrix::random(kN, kK, 20);
    check(Algorithm::kSumma, Dataflow::kLS, a, b,
          Matrix::gemm(a, b.transpose()));
}

TEST_P(BaselineGemm, SummaRSMatchesReference)
{
    Matrix a = Matrix::random(kK, kM, 21);
    Matrix b = Matrix::random(kK, kN, 22);
    check(Algorithm::kSumma, Dataflow::kRS, a, b,
          Matrix::gemm(a.transpose(), b));
}

TEST_P(BaselineGemm, WangOSMatchesReference)
{
    // On 4x2 the vertical direction carries more bytes per link, so B
    // rotates and A is the blocking AllGather.
    Matrix a = Matrix::random(kM, kK, 23);
    Matrix b = Matrix::random(kK, kN, 24);
    check(Algorithm::kWang, Dataflow::kOS, a, b, Matrix::gemm(a, b));
}

TEST_P(BaselineGemm, WangLSMatchesReference)
{
    Matrix a = Matrix::random(kM, kK, 25);
    Matrix b = Matrix::random(kN, kK, 26);
    check(Algorithm::kWang, Dataflow::kLS, a, b,
          Matrix::gemm(a, b.transpose()));
}

TEST_P(BaselineGemm, WangRSMatchesReference)
{
    Matrix a = Matrix::random(kK, kM, 27);
    Matrix b = Matrix::random(kK, kN, 28);
    check(Algorithm::kWang, Dataflow::kRS, a, b,
          Matrix::gemm(a.transpose(), b));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineGemm,
    ::testing::Values(BaselineCase{1, 1}, BaselineCase{2, 2},
                      BaselineCase{2, 4}, BaselineCase{4, 2},
                      BaselineCase{4, 4}, BaselineCase{1, 8},
                      BaselineCase{8, 1}, BaselineCase{3, 4},
                      BaselineCase{6, 2}),
    [](const ::testing::TestParamInfo<BaselineCase> &info) {
        return "mesh" + std::to_string(info.param.meshRows) + "x" +
               std::to_string(info.param.meshCols);
    });

TEST(TimedEqualsFunctional, EveryOverlapModeAndIciDirection)
{
    // The overlap modes and bidirectional ICI change only the timed
    // dependencies and shift splits, never what a step moves.
    const Matrix a = Matrix::random(64, 64, 51);
    const Matrix b = Matrix::random(64, 64, 52);
    for (int mode = 0; mode < 3; ++mode) {
        for (bool bidir : {true, false}) {
            ChipConfig cfg = tpuV4Config();
            cfg.allowCollectiveOverlap = mode != 1;
            cfg.allowSendRecvOverlap = mode != 2;
            cfg.bidirectionalIci = bidir;
            for (Algorithm algo : all2DAlgorithms()) {
                const MeshShape mesh = algo == Algorithm::kCannon
                                           ? MeshShape{4, 4}
                                           : MeshShape{4, 2};
                for (Dataflow df :
                     {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS}) {
                    if (runsOutputStationaryOnly(algo) &&
                        df != Dataflow::kOS)
                        continue;
                    SCOPED_TRACE(std::string(algorithmName(algo)) + " " +
                                 dataflowName(df) + " mode " +
                                 std::to_string(mode));
                    timedEqualsFunctional(algo, df, mesh, 2, 2, a, b,
                                          referenceProduct(df, a, b), cfg);
                }
            }
        }
    }
}

TEST(CannonGemm, MatchesReferenceOnSquareMeshes)
{
    for (int p : {1, 2, 3, 4, 6}) {
        SCOPED_TRACE("P=" + std::to_string(p));
        Matrix a = Matrix::random(48, 96, 31);
        Matrix b = Matrix::random(96, 48, 32);
        timedEqualsFunctional(Algorithm::kCannon, Dataflow::kOS, {p, p}, 1,
                              1, a, b, Matrix::gemm(a, b));
    }
}

TEST(CannonGemmDeath, RejectsNonSquareMesh)
{
    MeshShape mesh{2, 4};
    Matrix a = Matrix::random(16, 16, 1);
    Matrix b = Matrix::random(16, 16, 2);
    EXPECT_DEATH(runGemmFunctional(Algorithm::kCannon, Dataflow::kOS,
                                   DistMatrix::scatter(a, mesh),
                                   DistMatrix::scatter(b, mesh), 1, 1),
                 "square");
}

TEST(TwoPointFiveD, MatchesReferenceAcrossDepths)
{
    // The functional 2.5D algorithm must compute the exact product for
    // every depth dividing the base dimension (depth 1 == Cannon).
    for (int p : {2, 4}) {
        for (int depth : {1, 2, p}) {
            if (p % depth != 0)
                continue;
            MeshShape mesh{p, p};
            Matrix a = Matrix::random(32, 64, 61);
            Matrix b = Matrix::random(64, 32, 62);
            Matrix ref = Matrix::gemm(a, b);
            Matrix got = run25DFunctional(DistMatrix::scatter(a, mesh),
                                          DistMatrix::scatter(b, mesh),
                                          depth)
                             .gather();
            EXPECT_TRUE(got.allClose(ref, kTol))
                << "P=" << p << " depth=" << depth;
        }
    }
}

TEST(TwoPointFiveDDeath, RejectsBadDepth)
{
    MeshShape mesh{4, 4};
    Matrix a = Matrix::random(16, 16, 1);
    Matrix b = Matrix::random(16, 16, 2);
    EXPECT_DEATH(run25DFunctional(DistMatrix::scatter(a, mesh),
                                  DistMatrix::scatter(b, mesh), 3),
                 "divide");
}

TEST(TimedEqualsFunctional, TwoPointFiveDLayersSumToTheProduct)
{
    // Each layer's Cannon window is checked on its own (its partial
    // product has no closed form); the windows sum to the product.
    const Matrix a = Matrix::random(48, 96, 63);
    const Matrix b = Matrix::random(96, 48, 64);
    const Matrix ref = Matrix::gemm(a, b);
    for (int p : {1, 2, 3, 4, 6}) {
        const MeshShape mesh{p, p};
        const DistMatrix da = DistMatrix::scatter(a, mesh);
        const DistMatrix db = DistMatrix::scatter(b, mesh);
        const Gemm2DSpec spec = functionalSpec(Dataflow::kOS, da, db, 1);
        for (int depth = 1; depth <= p; ++depth) {
            if (p % depth != 0)
                continue;
            SCOPED_TRACE("P=" + std::to_string(p) +
                         " depth=" + std::to_string(depth));
            Matrix sum(ref.rows(), ref.cols());
            for (int l = 0; l < depth; ++l)
                sum.add(checkSchedule(make25DLayerSchedule(spec, l, depth),
                                      1, da, db, nullptr));
            EXPECT_TRUE(sum.allClose(ref, kTol));
        }
    }
}

TEST(OneDBaselines, OneDTPMatchesReference)
{
    for (int chips : {1, 2, 4, 8}) {
        Matrix x = Matrix::random(32, 24, 41);
        Matrix w = Matrix::random(24, 16, 42);
        Matrix ref = Matrix::gemm(x, w);
        Matrix got =
            oneDTimedEqualsFunctional(Algorithm::kOneDTP, x, w, chips);
        EXPECT_TRUE(got.allClose(ref, kTol)) << "chips=" << chips;
    }
}

TEST(OneDBaselines, FsdpMatchesReference)
{
    for (int chips : {1, 2, 4, 8}) {
        Matrix x = Matrix::random(32, 24, 43);
        Matrix w = Matrix::random(24, 16, 44);
        Matrix ref = Matrix::gemm(x, w);
        Matrix got =
            oneDTimedEqualsFunctional(Algorithm::kFsdp, x, w, chips);
        EXPECT_TRUE(got.allClose(ref, kTol)) << "chips=" << chips;
    }
}

TEST(TimedEqualsFunctional, OneDBaselinesEveryFormAndMode)
{
    // Both baselines, the AllGather and the backward-weight
    // ReduceScatter form, sliced, under every overlap mode and ICI
    // direction setting.
    const Matrix a = Matrix::random(64, 64, 45);
    const Matrix b = Matrix::random(64, 64, 46);
    for (int mode = 0; mode < 3; ++mode) {
        for (bool bidir : {true, false}) {
            ChipConfig cfg = tpuV4Config();
            cfg.allowCollectiveOverlap = mode != 1;
            cfg.allowSendRecvOverlap = mode != 2;
            cfg.bidirectionalIci = bidir;
            for (Algorithm algo : {Algorithm::kOneDTP, Algorithm::kFsdp}) {
                for (int chips : {2, 4, 8}) {
                    for (int s : {1, 2, 4}) {
                        SCOPED_TRACE(std::string(algorithmName(algo)) +
                                     " chips " + std::to_string(chips) +
                                     " S " + std::to_string(s) + " mode " +
                                     std::to_string(mode));
                        oneDTimedEqualsFunctional(algo, a, b, chips, s, 2,
                                                  cfg);
                        oneDReduceTimedEqualsFunctional(algo, a, b, chips,
                                                        s, 2, cfg);
                    }
                }
            }
        }
    }
}

TEST(DistMatrixTest, ScatterGatherRoundTrip)
{
    Matrix m = Matrix::random(24, 36, 50);
    for (auto [r, c] : {std::pair{1, 1}, {2, 3}, {4, 6}, {3, 2}}) {
        DistMatrix d = DistMatrix::scatter(m, MeshShape{r, c});
        EXPECT_TRUE(d.gather().allClose(m, 0.0));
        EXPECT_EQ(d.shardRows(), 24 / r);
        EXPECT_EQ(d.shardCols(), 36 / c);
    }
}

TEST(FunctionalCrossCheck, AllDataflowsComputeSameLogicalGemm)
{
    // Y = X W computed through OS, LS (W stored transposed) and RS (X
    // stored transposed) must all match — the Table 1 equivalence the
    // autotuner's dataflow selection relies on.
    MeshShape mesh{2, 4};
    const std::int64_t m = 32, k = 48, n = 64;
    Matrix x = Matrix::random(m, k, 60);
    Matrix w = Matrix::random(k, n, 61);
    Matrix ref = Matrix::gemm(x, w);

    auto meshslice = [&](Dataflow df, const Matrix &l, const Matrix &r) {
        return runGemmFunctional(Algorithm::kMeshSlice, df,
                                 DistMatrix::scatter(l, mesh),
                                 DistMatrix::scatter(r, mesh), 2, 2)
            .gather();
    };
    Matrix y_os = meshslice(Dataflow::kOS, x, w);
    // LS: Y = LS(X, W^T) where the right operand is stored N x K.
    Matrix y_ls = meshslice(Dataflow::kLS, x, w.transpose());
    // RS: Y = RS(X^T, W) where the left operand is stored K x M.
    Matrix y_rs = meshslice(Dataflow::kRS, x.transpose(), w);
    EXPECT_TRUE(y_os.allClose(ref, kTol));
    EXPECT_TRUE(y_ls.allClose(ref, kTol));
    EXPECT_TRUE(y_rs.allClose(ref, kTol));
}

} // namespace
} // namespace meshslice
