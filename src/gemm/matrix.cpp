#include "gemm/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace meshslice {

Matrix::Matrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows * cols), 0.0f)
{
    if (rows < 0 || cols < 0)
        panic("Matrix: negative dimensions %lld x %lld",
              static_cast<long long>(rows), static_cast<long long>(cols));
}

Matrix
Matrix::random(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    std::uint64_t state = seed;
    for (auto &v : m.data_)
        v = static_cast<float>(uniform01(state) * 2.0 - 1.0);
    return m;
}

Matrix
Matrix::identity(std::int64_t n)
{
    Matrix m(n, n);
    for (std::int64_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0f;
    return m;
}

Matrix
Matrix::transpose() const
{
    Matrix t(cols_, rows_);
    for (std::int64_t r = 0; r < rows_; ++r)
        for (std::int64_t c = 0; c < cols_; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

Matrix
Matrix::rowBlock(std::int64_t start, std::int64_t count) const
{
    if (start < 0 || start + count > rows_)
        panic("Matrix::rowBlock out of range");
    Matrix b(count, cols_);
    std::copy_n(data_.begin() + static_cast<size_t>(start * cols_),
                static_cast<size_t>(count * cols_), b.data_.begin());
    return b;
}

Matrix
Matrix::colBlock(std::int64_t start, std::int64_t count) const
{
    if (start < 0 || start + count > cols_)
        panic("Matrix::colBlock out of range");
    Matrix b(rows_, count);
    for (std::int64_t r = 0; r < rows_; ++r)
        std::copy_n(data_.begin() +
                        static_cast<size_t>(r * cols_ + start),
                    static_cast<size_t>(count),
                    b.data_.begin() + static_cast<size_t>(r * count));
    return b;
}

Matrix
Matrix::hcat(const std::vector<Matrix> &parts)
{
    if (parts.empty())
        panic("Matrix::hcat: no parts");
    std::int64_t cols = 0;
    for (const Matrix &p : parts) {
        if (p.rows() != parts.front().rows())
            panic("Matrix::hcat: row mismatch");
        cols += p.cols();
    }
    Matrix out(parts.front().rows(), cols);
    std::int64_t offset = 0;
    for (const Matrix &p : parts) {
        for (std::int64_t r = 0; r < p.rows(); ++r)
            std::copy_n(p.data_.begin() +
                            static_cast<size_t>(r * p.cols()),
                        static_cast<size_t>(p.cols()),
                        out.data_.begin() +
                            static_cast<size_t>(r * cols + offset));
        offset += p.cols();
    }
    return out;
}

Matrix
Matrix::vcat(const std::vector<Matrix> &parts)
{
    if (parts.empty())
        panic("Matrix::vcat: no parts");
    std::int64_t rows = 0;
    for (const Matrix &p : parts) {
        if (p.cols() != parts.front().cols())
            panic("Matrix::vcat: column mismatch");
        rows += p.rows();
    }
    Matrix out(rows, parts.front().cols());
    auto it = out.data_.begin();
    for (const Matrix &p : parts)
        it = std::copy(p.data_.begin(), p.data_.end(), it);
    return out;
}

void
Matrix::add(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("Matrix::add: shape mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("Matrix::maxAbsDiff: shape mismatch (%lldx%lld vs %lldx%lld)",
              static_cast<long long>(rows_), static_cast<long long>(cols_),
              static_cast<long long>(other.rows_),
              static_cast<long long>(other.cols_));
    double worst = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        worst = std::max(
            worst, static_cast<double>(std::fabs(data_[i] - other.data_[i])));
    return worst;
}

bool
Matrix::allClose(const Matrix &other, double tol) const
{
    return maxAbsDiff(other) <= tol;
}

namespace {

/** Rows of A/C per panel: one panel of C plus the matching A panel
 *  stays cache-resident while a K-panel of B streams through. */
constexpr std::int64_t kRowTile = 64;

/** Contraction extent per panel (~64 KiB of B rows at n=64). */
constexpr std::int64_t kColTileK = 256;

/**
 * One (kRowTile x kColTileK) panel update: C[i0:i1, :] +=
 * A[i0:i1, k0:k1] * B[k0:k1, :]. Branch-free, with the contraction
 * unrolled 4x so each C element stays in a register across four
 * multiply-adds (4x less C traffic than the naive loop). The four
 * adds are issued as *separate* statements in increasing-p order and
 * the k-panels are visited in order, so every output element
 * accumulates its terms in exactly the naive triple loop's order —
 * results are bit-identical, not merely close.
 */
void
gemmPanel(const float *__restrict a, const float *__restrict b,
          float *__restrict c, std::int64_t i0, std::int64_t i1,
          std::int64_t k0, std::int64_t k1, std::int64_t k,
          std::int64_t n)
{
    for (std::int64_t i = i0; i < i1; ++i) {
        const float *arow = a + i * k;
        float *__restrict crow = c + i * n;
        std::int64_t p = k0;
        for (; p + 4 <= k1; p += 4) {
            const float a0 = arow[p], a1 = arow[p + 1];
            const float a2 = arow[p + 2], a3 = arow[p + 3];
            const float *b0 = b + p * n, *b1 = b0 + n;
            const float *b2 = b1 + n, *b3 = b2 + n;
            for (std::int64_t j = 0; j < n; ++j) {
                float v = crow[j];
                v += a0 * b0[j];
                v += a1 * b1[j];
                v += a2 * b2[j];
                v += a3 * b3[j];
                crow[j] = v;
            }
        }
        for (; p < k1; ++p) {
            const float av = arow[p];
            const float *brow = b + p * n;
            for (std::int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

} // namespace

void
Matrix::gemmAcc(const Matrix &a, const Matrix &b, Matrix &c)
{
    if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols())
        panic("Matrix::gemmAcc: shape mismatch");
    const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
    if (m == 0 || k == 0 || n == 0)
        return;
    // Cache-blocked (i/k tiled) kernel, parallelized over row panels:
    // each pool task owns disjoint C rows, so there are no write
    // races and the result is independent of the thread count.
    const std::int64_t panels = ceilDiv(m, kRowTile);
    const auto run_panels = [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t panel = begin; panel < end; ++panel) {
            const std::int64_t i0 = panel * kRowTile;
            const std::int64_t i1 = std::min(i0 + kRowTile, m);
            for (std::int64_t k0 = 0; k0 < k; k0 += kColTileK)
                gemmPanel(a.data(), b.data(), c.data(), i0, i1, k0,
                          std::min(k0 + kColTileK, k), k, n);
        }
    };
    // Pool dispatch costs a mutex round-trip plus a std::function call
    // per chunk — pure overhead when the pool has a single executing
    // thread or the matrix is a panel or two tall. Run those inline.
    if (ThreadPool::global().threads() == 1 || panels <= 2) {
        run_panels(0, panels);
        return;
    }
    parallelFor(panels, 1, run_panels);
}

Matrix
Matrix::gemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    gemmAcc(a, b, c);
    return c;
}

} // namespace meshslice
