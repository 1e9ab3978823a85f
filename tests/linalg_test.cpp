/**
 * @file
 * Unit and property tests for the dense linear algebra substrate.
 */

#include "foundation/rng.hpp"
#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace illixr {
namespace {

/** Random matrix with entries in [-1, 1]. */
MatX
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    MatX m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = rng.uniform(-1.0, 1.0);
    return m;
}

/** Random symmetric positive-definite matrix A = B^T B + n*I. */
MatX
randomSpd(std::size_t n, Rng &rng)
{
    const MatX b = randomMatrix(n, n, rng);
    MatX a = b.transposeTimes(b);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += static_cast<double>(n);
    return a;
}

TEST(MatXTest, IdentityAndZero)
{
    const MatX id = MatX::identity(4);
    const MatX z = MatX::zero(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_DOUBLE_EQ(id(i, j), (i == j) ? 1.0 : 0.0);
            EXPECT_DOUBLE_EQ(z(i, j), 0.0);
        }
    }
}

TEST(MatXTest, MultiplyAgainstHandComputed)
{
    const MatX a = MatX::fromRows({{1, 2}, {3, 4}});
    const MatX b = MatX::fromRows({{5, 6}, {7, 8}});
    const MatX c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatXTest, TransposeTimesMatchesExplicit)
{
    Rng rng(5);
    const MatX a = randomMatrix(7, 4, rng);
    const MatX b = randomMatrix(7, 3, rng);
    const MatX fast = a.transposeTimes(b);
    const MatX slow = a.transpose() * b;
    EXPECT_NEAR((fast - slow).maxAbs(), 0.0, 1e-12);
}

TEST(MatXTest, TimesTransposeMatchesExplicit)
{
    Rng rng(6);
    const MatX a = randomMatrix(5, 4, rng);
    const MatX b = randomMatrix(6, 4, rng);
    const MatX fast = a.timesTranspose(b);
    const MatX slow = a * b.transpose();
    EXPECT_NEAR((fast - slow).maxAbs(), 0.0, 1e-12);
}

TEST(MatXTest, BlockRoundTrip)
{
    Rng rng(7);
    MatX a = randomMatrix(6, 6, rng);
    const MatX b = randomMatrix(2, 3, rng);
    a.setBlock(2, 1, b);
    const MatX back = a.block(2, 1, 2, 3);
    EXPECT_NEAR((back - b).maxAbs(), 0.0, 1e-15);
}

// Shape checks throw in every build type, NDEBUG (Release,
// RelWithDebInfo) included, so a mismatch never computes silently.

TEST(MatXTest, MatrixProductRejectsMismatchedShapes)
{
    const MatX a(2, 2);
    EXPECT_THROW(a * MatX(3, 2), std::invalid_argument);
    EXPECT_NO_THROW(a * MatX(2, 3));
}

TEST(MatXTest, VectorProductRejectsMismatchedLength)
{
    const MatX a(2, 2);
    EXPECT_THROW(a * VecX(3), std::invalid_argument);
    EXPECT_NO_THROW(a * VecX(2));
}

TEST(MatXTest, TransposeTimesRejectsMismatchedRows)
{
    const MatX a(2, 2);
    EXPECT_THROW(a.transposeTimes(MatX(3, 2)), std::invalid_argument);
    EXPECT_NO_THROW(a.transposeTimes(MatX(2, 3)));
}

TEST(MatXTest, TimesTransposeRejectsMismatchedCols)
{
    const MatX a(2, 2);
    EXPECT_THROW(a.timesTranspose(MatX(2, 3)), std::invalid_argument);
    EXPECT_NO_THROW(a.timesTranspose(MatX(3, 2)));
}

TEST(MatXTest, BlockRejectsOutOfRange)
{
    const MatX a(3, 3);
    EXPECT_THROW(a.block(0, 2, 2, 2), std::invalid_argument);
    EXPECT_THROW(a.block(2, 0, 2, 1), std::invalid_argument);
    EXPECT_NO_THROW(a.block(1, 1, 2, 2));
}

TEST(MatXTest, SetBlockRejectsOutOfRange)
{
    MatX a(3, 3);
    EXPECT_THROW(a.setBlock(0, 2, MatX(2, 2)), std::invalid_argument);
    EXPECT_THROW(a.setBlock(2, 0, MatX(2, 1)), std::invalid_argument);
    EXPECT_NO_THROW(a.setBlock(1, 1, MatX(2, 2)));
}

TEST(MatXTest, SymmetrizeMakesSymmetric)
{
    Rng rng(8);
    MatX a = randomMatrix(5, 5, rng);
    a.symmetrize();
    EXPECT_NEAR((a - a.transpose()).maxAbs(), 0.0, 1e-15);
}

TEST(VecXTest, DotAndNorm)
{
    const VecX a{1.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(a.norm(), 3.0);
    const VecX b{3.0, -1.0, 0.5};
    EXPECT_DOUBLE_EQ(a.dot(b), 2.0);
}

TEST(VecXTest, SegmentRoundTrip)
{
    VecX a(10);
    const VecX s{1.0, 2.0, 3.0};
    a.setSegment(4, s);
    const VecX back = a.segment(4, 3);
    EXPECT_DOUBLE_EQ(back[0], 1.0);
    EXPECT_DOUBLE_EQ(back[2], 3.0);
    EXPECT_DOUBLE_EQ(a[3], 0.0);
    EXPECT_DOUBLE_EQ(a[7], 0.0);
}

class CholeskySizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CholeskySizes, FactorizationReconstructs)
{
    Rng rng(100 + GetParam());
    const MatX a = randomSpd(GetParam(), rng);
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    const MatX l = chol.matrixL();
    const MatX rebuilt = l.timesTranspose(l);
    EXPECT_NEAR((rebuilt - a).maxAbs(), 0.0, 1e-9 * a.maxAbs());
}

TEST_P(CholeskySizes, SolveSatisfiesSystem)
{
    Rng rng(200 + GetParam());
    const std::size_t n = GetParam();
    const MatX a = randomSpd(n, rng);
    VecX b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = rng.uniform(-1.0, 1.0);
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    const VecX x = chol.solve(b);
    const VecX residual = a * x - b;
    EXPECT_NEAR(residual.norm(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 3, 6, 15, 40));

TEST(CholeskyTest, RejectsIndefinite)
{
    const MatX a = MatX::fromRows({{1.0, 2.0}, {2.0, 1.0}});
    Cholesky chol(a);
    EXPECT_FALSE(chol.ok());
}

class QrShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(QrShapes, RIsUpperTriangularAndQtPreservesNorm)
{
    Rng rng(300);
    const auto [m, n] = GetParam();
    const MatX a = randomMatrix(m, n, rng);
    HouseholderQR qr(a);
    const MatX r = qr.matrixR();
    for (std::size_t i = 0; i < r.rows(); ++i)
        for (std::size_t j = 0; j < std::min(i, r.cols()); ++j)
            EXPECT_NEAR(r(i, j), 0.0, 1e-12);

    VecX v(m);
    for (std::size_t i = 0; i < m; ++i)
        v[i] = rng.uniform(-1.0, 1.0);
    const VecX qtv = qr.applyQT(v);
    EXPECT_NEAR(qtv.norm(), v.norm(), 1e-9);
}

TEST_P(QrShapes, LeastSquaresSolvesExactSystems)
{
    Rng rng(400);
    const auto [m, n] = GetParam();
    if (m < n)
        GTEST_SKIP() << "least squares requires m >= n";
    const MatX a = randomMatrix(m, n, rng);
    VecX x_true(n);
    for (std::size_t i = 0; i < n; ++i)
        x_true[i] = rng.uniform(-2.0, 2.0);
    const VecX b = a * x_true;
    HouseholderQR qr(a);
    const VecX x = qr.solve(b);
    EXPECT_NEAR((x - x_true).norm(), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapes,
    ::testing::Values(std::make_pair(4, 4), std::make_pair(8, 3),
                      std::make_pair(20, 6), std::make_pair(50, 10)));

TEST(QrTest, RankOfRankDeficientMatrix)
{
    // Third column = first + second: rank 2.
    MatX a(5, 3);
    Rng rng(55);
    for (std::size_t i = 0; i < 5; ++i) {
        a(i, 0) = rng.uniform(-1.0, 1.0);
        a(i, 1) = rng.uniform(-1.0, 1.0);
        a(i, 2) = a(i, 0) + a(i, 1);
    }
    HouseholderQR qr(a);
    EXPECT_EQ(qr.rank(1e-10), 2u);
}

TEST(LuTest, SolveMatchesCholeskyOnSpd)
{
    Rng rng(60);
    const MatX a = randomSpd(8, rng);
    VecX b(8);
    for (std::size_t i = 0; i < 8; ++i)
        b[i] = rng.uniform(-1.0, 1.0);
    const VecX x_lu = luSolve(a, b);
    Cholesky chol(a);
    const VecX x_ch = chol.solve(b);
    EXPECT_NEAR((x_lu - x_ch).norm(), 0.0, 1e-9);
}

TEST(LuTest, InverseRoundTrip)
{
    Rng rng(61);
    const MatX a = randomMatrix(6, 6, rng) + MatX::identity(6) * 3.0;
    const MatX prod = a * luInverse(a);
    EXPECT_NEAR((prod - MatX::identity(6)).maxAbs(), 0.0, 1e-9);
}

TEST(TriangularTest, ForwardAndBackSubstitution)
{
    const MatX l = MatX::fromRows({{2, 0, 0}, {1, 3, 0}, {-1, 2, 4}});
    const VecX b{2.0, 7.0, 9.0};
    const VecX y = forwardSubstitute(l, b);
    const VecX residual = l * y - b;
    EXPECT_NEAR(residual.norm(), 0.0, 1e-12);

    const MatX u = l.transpose();
    const VecX x = backSubstitute(u, b);
    const VecX residual2 = u * x - b;
    EXPECT_NEAR(residual2.norm(), 0.0, 1e-12);
}

TEST(NullspaceTest, ProjectorAnnihilatesJacobian)
{
    Rng rng(70);
    const MatX hf = randomMatrix(12, 3, rng);
    const MatX nt = leftNullspaceTranspose(hf);
    ASSERT_EQ(nt.rows(), 9u);
    ASSERT_EQ(nt.cols(), 12u);
    const MatX zero = nt * hf;
    EXPECT_NEAR(zero.maxAbs(), 0.0, 1e-10);
    // Rows are orthonormal: N^T * N = I.
    const MatX gram = nt.timesTranspose(nt);
    EXPECT_NEAR((gram - MatX::identity(9)).maxAbs(), 0.0, 1e-10);
}

class SvdShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(SvdShapes, ReconstructionAndOrthogonality)
{
    Rng rng(80);
    const auto [m, n] = GetParam();
    const MatX a = randomMatrix(m, n, rng);
    const SvdResult svd = jacobiSvd(a);
    ASSERT_TRUE(svd.converged);

    // A == U S V^T.
    MatX us = svd.u;
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            us(i, j) *= svd.s[j];
    const MatX rebuilt = us.timesTranspose(svd.v);
    EXPECT_NEAR((rebuilt - a).maxAbs(), 0.0, 1e-9);

    // Orthonormal columns.
    const MatX utu = svd.u.transposeTimes(svd.u);
    EXPECT_NEAR((utu - MatX::identity(n)).maxAbs(), 0.0, 1e-9);
    const MatX vtv = svd.v.transposeTimes(svd.v);
    EXPECT_NEAR((vtv - MatX::identity(n)).maxAbs(), 0.0, 1e-9);

    // Descending singular values.
    for (std::size_t j = 0; j + 1 < n; ++j)
        EXPECT_GE(svd.s[j], svd.s[j + 1]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::make_pair(3, 3), std::make_pair(6, 4),
                      std::make_pair(12, 5), std::make_pair(20, 8)));

TEST(SvdTest, SingularValuesOfDiagonal)
{
    MatX a(3, 3);
    a(0, 0) = 3.0;
    a(1, 1) = -5.0; // Sign folds into U/V.
    a(2, 2) = 1.0;
    const SvdResult svd = jacobiSvd(a);
    EXPECT_NEAR(svd.s[0], 5.0, 1e-12);
    EXPECT_NEAR(svd.s[1], 3.0, 1e-12);
    EXPECT_NEAR(svd.s[2], 1.0, 1e-12);
    EXPECT_NEAR(conditionNumber(svd), 5.0, 1e-9);
}

} // namespace
} // namespace illixr
