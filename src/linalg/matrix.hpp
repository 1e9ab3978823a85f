/**
 * @file
 * Dense dynamic-size matrix and vector.
 *
 * This is the numerical workhorse behind the MSCKF VIO filter, ICP,
 * feature triangulation, and the hologram optimizer. Storage is
 * row-major double. The class deliberately exposes a small, explicit
 * API (no expression templates) to keep compile times and behaviour
 * predictable.
 */

#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace illixr {

class VecX;

/**
 * Dense row-major matrix of doubles. Every operation with a shape
 * precondition (the sums, products, block copies, symmetrize and
 * fromRows) throws std::invalid_argument on a mismatch in every build
 * type; element access is unchecked.
 */
class MatX
{
  public:
    MatX() = default;

    /** @p rows x @p cols matrix of zeros. */
    MatX(std::size_t rows, std::size_t cols);

    /** Square identity. */
    static MatX identity(std::size_t n);

    /** Zeros. */
    static MatX zero(std::size_t rows, std::size_t cols);

    /** Build from nested initializer lists (rows of values). */
    static MatX fromRows(
        std::initializer_list<std::initializer_list<double>> rows);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Raw row-major storage. */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    MatX operator+(const MatX &o) const;
    MatX operator-(const MatX &o) const;
    MatX operator*(const MatX &o) const;
    MatX operator*(double s) const;
    VecX operator*(const VecX &v) const;
    MatX &operator+=(const MatX &o);
    MatX &operator-=(const MatX &o);

    MatX transpose() const;

    /** this^T * o without forming the transpose. */
    MatX transposeTimes(const MatX &o) const;

    /** this * o^T without forming the transpose. */
    MatX timesTranspose(const MatX &o) const;

    /** Copy a rectangular block. */
    MatX block(std::size_t r0, std::size_t c0, std::size_t nrows,
               std::size_t ncols) const;

    /** Write matrix @p b into the block starting at (r0, c0). */
    void setBlock(std::size_t r0, std::size_t c0, const MatX &b);

    /** Frobenius norm. */
    double norm() const;

    /** Largest absolute entry. */
    double maxAbs() const;

    /** Symmetrize in place: A = (A + A^T) / 2. Keeps EKF covariances PSD. */
    void symmetrize();

    /** Resize, zero-filling (destroys contents). */
    void resize(std::size_t rows, std::size_t cols);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dense column vector of doubles. */
class VecX
{
  public:
    VecX() = default;
    explicit VecX(std::size_t n) : data_(n, 0.0) {}
    VecX(std::initializer_list<double> values) : data_(values) {}

    static VecX zero(std::size_t n) { return VecX(n); }

    std::size_t size() const { return data_.size(); }

    double &operator[](std::size_t i) { return data_[i]; }
    double operator[](std::size_t i) const { return data_[i]; }

    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    VecX operator+(const VecX &o) const;
    VecX operator-(const VecX &o) const;
    VecX operator*(double s) const;
    VecX &operator+=(const VecX &o);
    VecX &operator-=(const VecX &o);

    double dot(const VecX &o) const;
    double norm() const;

    /** Copy a contiguous segment. */
    VecX segment(std::size_t start, std::size_t len) const;

    /** Write @p v into positions [start, start + v.size()). */
    void setSegment(std::size_t start, const VecX &v);

    void resize(std::size_t n) { data_.assign(n, 0.0); }

  private:
    std::vector<double> data_;
};

} // namespace illixr
