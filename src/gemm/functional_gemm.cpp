#include "gemm/functional_gemm.hpp"

#include "util/logging.hpp"

namespace meshslice {

namespace {

void
checkSameMesh(const DistMatrix &a, const DistMatrix &b, const char *what)
{
    if (!(a.mesh() == b.mesh()))
        panic("%s: operands on different meshes", what);
}

} // namespace

DistMatrix
func25DGemm(const DistMatrix &a, const DistMatrix &b, int depth)
{
    checkSameMesh(a, b, "func25DGemm");
    const MeshShape mesh = a.mesh();
    if (mesh.rows != mesh.cols)
        panic("func25DGemm: requires a square base mesh, got %dx%d",
              mesh.rows, mesh.cols);
    const int p = mesh.rows;
    if (depth <= 0 || p % depth != 0)
        panic("func25DGemm: depth %d must divide the base dimension %d",
              depth, p);
    const int iterations = p / depth;
    DistMatrix c(mesh, a.rows(), b.cols());

    // Each depth layer holds a replica of the (skewed) shards and
    // performs `iterations` Cannon steps from its own rotation offset;
    // the final per-layer partials are reduced over depth (here: the
    // accumulation into the shared C shards).
    for (int l = 0; l < depth; ++l) {
        const int offset = l * iterations;
        for (int t = 0; t < iterations; ++t) {
            const int shift = offset + t;
            for (int i = 0; i < p; ++i) {
                for (int j = 0; j < p; ++j) {
                    // Cannon alignment after `shift` rotations: chip
                    // (i, j) multiplies A(i, i+j+shift) by
                    // B(i+j+shift, j).
                    const int kidx = (i + j + shift) % p;
                    Matrix::gemmAcc(a.shardAt(i, kidx),
                                    b.shardAt(kidx, j), c.shardAt(i, j));
                }
            }
        }
    }
    return c;
}

// --------------------------------------------------------------------
// 1D baselines
// --------------------------------------------------------------------

std::vector<Matrix>
func1DTP(const Matrix &x, const Matrix &w, int chips)
{
    if (x.rows() % chips != 0 || w.cols() % chips != 0)
        panic("func1DTP: dimensions not divisible by %d chips", chips);
    // X sharded by rows; AG makes it whole; W sharded by columns.
    std::vector<Matrix> x_shards;
    for (int c = 0; c < chips; ++c)
        x_shards.push_back(
            x.rowBlock(c * (x.rows() / chips), x.rows() / chips));
    Matrix x_full = Matrix::vcat(x_shards); // the AllGather
    std::vector<Matrix> y_shards;
    const std::int64_t nc = w.cols() / chips;
    for (int c = 0; c < chips; ++c)
        y_shards.push_back(Matrix::gemm(x_full, w.colBlock(c * nc, nc)));
    return y_shards;
}

std::vector<Matrix>
funcFsdp(const Matrix &x, const Matrix &w, int chips)
{
    if (x.rows() % chips != 0 || w.rows() % chips != 0)
        panic("funcFsdp: dimensions not divisible by %d chips", chips);
    // W sharded by rows; AG makes it whole; X stays data-sharded.
    std::vector<Matrix> w_shards;
    for (int c = 0; c < chips; ++c)
        w_shards.push_back(
            w.rowBlock(c * (w.rows() / chips), w.rows() / chips));
    Matrix w_full = Matrix::vcat(w_shards); // the AllGather
    std::vector<Matrix> y_shards;
    const std::int64_t mr = x.rows() / chips;
    for (int c = 0; c < chips; ++c)
        y_shards.push_back(Matrix::gemm(x.rowBlock(c * mr, mr), w_full));
    return y_shards;
}

} // namespace meshslice
