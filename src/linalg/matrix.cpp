#include "linalg/matrix.hpp"

#include "foundation/simd.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace illixr {

namespace {

/**
 * rrow[j] += a * orow[j], vectorized over j. Each output element
 * keeps its own accumulator, so the k-ascending accumulation order of
 * the callers is untouched and results stay bit-identical to the
 * scalar loop (VIO-path contract, DESIGN.md "SIMD & data layout").
 * The rows never alias (outputs are freshly allocated result
 * matrices), which __restrict asserts so the compiler can skip the
 * runtime overlap checks.
 */
inline void
axpyRow(double *__restrict rrow, const double *__restrict orow, double a,
        std::size_t n)
{
    if constexpr (simd::backendId() == 0) {
        // Scalar backend: the plain loop optimizes better than the
        // lane-array emulation and computes the identical per-element
        // sums.
        for (std::size_t j = 0; j < n; ++j)
            rrow[j] += a * orow[j];
        return;
    }
    using simd::VecD4;
    const VecD4 av = VecD4::broadcast(a);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4)
        simd::madd(VecD4::load(rrow + j), VecD4::load(orow + j), av)
            .store(rrow + j);
    for (; j < n; ++j)
        rrow[j] += a * orow[j];
}

/**
 * Row-major GEMM body of operator*. Kept out-of-line on purpose: when
 * this body is inlined into operator* the surrounding member-field
 * accesses defeat the vectorizer's alias versioning and the scalar
 * backend loses ~35% (measured on BM_MsckfGemm).
 */
__attribute__((noinline)) void
gemmRows(double *rdata, const double *adata, const double *odata,
         std::size_t rows, std::size_t cols, std::size_t ocols)
{
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t k = 0; k < cols; ++k) {
            const double a = adata[i * cols + k];
            if (a == 0.0)
                continue;
            axpyRow(rdata + i * ocols, odata + k * ocols, a, ocols);
        }
    }
}

/** Out-of-line body of timesTranspose (see gemmRows). */
__attribute__((noinline)) void
gemmNtRows(double *rdata, const double *adata, const double *odata,
           std::size_t rows, std::size_t cols, std::size_t orows)
{
    for (std::size_t i = 0; i < rows; ++i) {
        const double *arow = adata + i * cols;
        for (std::size_t j = 0; j < orows; ++j) {
            const double *brow = odata + j * cols;
            double acc = 0.0;
            for (std::size_t k = 0; k < cols; ++k)
                acc += arow[k] * brow[k];
            rdata[i * orows + j] = acc;
        }
    }
}

/**
 * Shape check of the products and block copies, which would otherwise
 * read or write out of bounds: unlike assert it holds in every build
 * type, NDEBUG included.
 */
void
requireShape(bool ok, const char *op)
{
    if (!ok)
        throw std::invalid_argument(std::string("MatX::") + op +
                                    ": shape mismatch");
}

} // namespace

MatX::MatX(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

MatX
MatX::identity(std::size_t n)
{
    MatX r(n, n);
    for (std::size_t i = 0; i < n; ++i)
        r(i, i) = 1.0;
    return r;
}

MatX
MatX::zero(std::size_t rows, std::size_t cols)
{
    return MatX(rows, cols);
}

MatX
MatX::fromRows(std::initializer_list<std::initializer_list<double>> rows)
{
    const std::size_t nr = rows.size();
    const std::size_t nc = nr ? rows.begin()->size() : 0;
    MatX r(nr, nc);
    std::size_t i = 0;
    for (const auto &row : rows) {
        assert(row.size() == nc);
        std::size_t j = 0;
        for (double v : row)
            r(i, j++) = v;
        ++i;
    }
    return r;
}

MatX
MatX::operator+(const MatX &o) const
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    MatX r(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        r.data_[i] = data_[i] + o.data_[i];
    return r;
}

MatX
MatX::operator-(const MatX &o) const
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    MatX r(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        r.data_[i] = data_[i] - o.data_[i];
    return r;
}

MatX
MatX::operator*(const MatX &o) const
{
    requireShape(cols_ == o.rows_, "operator*");
    MatX r(rows_, o.cols_);
    // i-k-j loop order keeps the inner loop contiguous for row-major.
    gemmRows(r.data_.data(), data_.data(), o.data_.data(), rows_, cols_,
             o.cols_);
    return r;
}

MatX
MatX::operator*(double s) const
{
    MatX r(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        r.data_[i] = data_[i] * s;
    return r;
}

VecX
MatX::operator*(const VecX &v) const
{
    requireShape(cols_ == v.size(), "operator*");
    VecX r(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
        double acc = 0.0;
        const double *row = &data_[i * cols_];
        for (std::size_t j = 0; j < cols_; ++j)
            acc += row[j] * v[j];
        r[i] = acc;
    }
    return r;
}

MatX &
MatX::operator+=(const MatX &o)
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

MatX &
MatX::operator-=(const MatX &o)
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

MatX
MatX::transpose() const
{
    MatX r(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

MatX
MatX::transposeTimes(const MatX &o) const
{
    requireShape(rows_ == o.rows_, "transposeTimes");
    MatX r(cols_, o.cols_);
    for (std::size_t k = 0; k < rows_; ++k) {
        const double *arow = &data_[k * cols_];
        const double *brow = &o.data_[k * o.cols_];
        for (std::size_t i = 0; i < cols_; ++i) {
            const double a = arow[i];
            if (a == 0.0)
                continue;
            axpyRow(&r.data_[i * o.cols_], brow, a, o.cols_);
        }
    }
    return r;
}

MatX
MatX::timesTranspose(const MatX &o) const
{
    requireShape(cols_ == o.cols_, "timesTranspose");
    MatX r(rows_, o.rows_);
    gemmNtRows(r.data_.data(), data_.data(), o.data_.data(), rows_, cols_,
               o.rows_);
    return r;
}

MatX
MatX::block(std::size_t r0, std::size_t c0, std::size_t nrows,
            std::size_t ncols) const
{
    requireShape(nrows <= rows_ && r0 <= rows_ - nrows && ncols <= cols_ &&
                     c0 <= cols_ - ncols,
                 "block");
    MatX r(nrows, ncols);
    for (std::size_t i = 0; i < nrows; ++i)
        for (std::size_t j = 0; j < ncols; ++j)
            r(i, j) = (*this)(r0 + i, c0 + j);
    return r;
}

void
MatX::setBlock(std::size_t r0, std::size_t c0, const MatX &b)
{
    requireShape(b.rows() <= rows_ && r0 <= rows_ - b.rows() &&
                     b.cols() <= cols_ && c0 <= cols_ - b.cols(),
                 "setBlock");
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            (*this)(r0 + i, c0 + j) = b(i, j);
}

double
MatX::norm() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

double
MatX::maxAbs() const
{
    double best = 0.0;
    for (double v : data_)
        best = std::max(best, std::fabs(v));
    return best;
}

void
MatX::symmetrize()
{
    assert(rows_ == cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t j = i + 1; j < cols_; ++j) {
            const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
            (*this)(i, j) = avg;
            (*this)(j, i) = avg;
        }
    }
}

void
MatX::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

VecX
VecX::operator+(const VecX &o) const
{
    assert(size() == o.size());
    VecX r(size());
    for (std::size_t i = 0; i < size(); ++i)
        r[i] = data_[i] + o.data_[i];
    return r;
}

VecX
VecX::operator-(const VecX &o) const
{
    assert(size() == o.size());
    VecX r(size());
    for (std::size_t i = 0; i < size(); ++i)
        r[i] = data_[i] - o.data_[i];
    return r;
}

VecX
VecX::operator*(double s) const
{
    VecX r(size());
    for (std::size_t i = 0; i < size(); ++i)
        r[i] = data_[i] * s;
    return r;
}

VecX &
VecX::operator+=(const VecX &o)
{
    assert(size() == o.size());
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

VecX &
VecX::operator-=(const VecX &o)
{
    assert(size() == o.size());
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

double
VecX::dot(const VecX &o) const
{
    assert(size() == o.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
        acc += data_[i] * o.data_[i];
    return acc;
}

double
VecX::norm() const
{
    return std::sqrt(dot(*this));
}

VecX
VecX::segment(std::size_t start, std::size_t len) const
{
    assert(start + len <= size());
    VecX r(len);
    for (std::size_t i = 0; i < len; ++i)
        r[i] = data_[start + i];
    return r;
}

void
VecX::setSegment(std::size_t start, const VecX &v)
{
    assert(start + v.size() <= size());
    for (std::size_t i = 0; i < v.size(); ++i)
        data_[start + i] = v[i];
}

} // namespace illixr
