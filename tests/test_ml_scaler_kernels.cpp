/// Tests for the StandardScaler and the kernel-function utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "linalg/decompositions.hpp"
#include "ml/kernel_functions.hpp"
#include "ml/scaler.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::ml::gram_matrix;
using htd::ml::KernelFn;
using htd::ml::StandardScaler;

TEST(Scaler, TransformsToZeroMeanUnitVariance) {
    htd::rng::Rng rng(1);
    Matrix data(200, 3);
    for (std::size_t r = 0; r < 200; ++r) {
        data(r, 0) = rng.normal(10.0, 3.0);
        data(r, 1) = rng.normal(-5.0, 0.1);
        data(r, 2) = rng.normal(0.0, 42.0);
    }
    StandardScaler scaler;
    scaler.fit(data);
    const Matrix z = scaler.transform(data);
    const Vector m = htd::stats::column_means(z);
    const Vector s = htd::stats::column_stddevs(z);
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(m[c], 0.0, 1e-10);
        EXPECT_NEAR(s[c], 1.0, 1e-10);
    }
}

TEST(Scaler, InverseTransformRoundTrips) {
    htd::rng::Rng rng(2);
    Matrix data(50, 2);
    for (std::size_t r = 0; r < 50; ++r)
        for (std::size_t c = 0; c < 2; ++c) data(r, c) = rng.normal(3.0, 2.0);
    StandardScaler scaler;
    scaler.fit(data);
    const Vector x = data.row(7);
    const Vector back = scaler.inverse_transform(scaler.transform(x));
    EXPECT_NEAR(back[0], x[0], 1e-12);
    EXPECT_NEAR(back[1], x[1], 1e-12);
}

TEST(Scaler, ConstantColumnPassesThrough) {
    Matrix data{{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
    StandardScaler scaler;
    scaler.fit(data);
    const Vector z = scaler.transform(Vector{5.0, 2.0});
    EXPECT_NEAR(z[0], 0.0, 1e-12);
}

TEST(Scaler, ThrowsWhenNotFitted) {
    const StandardScaler scaler;
    EXPECT_THROW((void)scaler.transform(Vector{1.0}), std::logic_error);
}

TEST(Scaler, ThrowsOnDimensionMismatch) {
    StandardScaler scaler;
    scaler.fit(Matrix{{1.0, 2.0}, {3.0, 4.0}});
    EXPECT_THROW((void)scaler.transform(Vector{1.0}), std::invalid_argument);
}

TEST(Scaler, RejectsEmptyFit) {
    StandardScaler scaler;
    EXPECT_THROW(scaler.fit(Matrix()), std::invalid_argument);
}

// --- kernel functions -------------------------------------------------------------

TEST(Kernels, RbfSelfSimilarityIsOne) {
    const KernelFn k = htd::ml::rbf_kernel(0.7);
    const double x[] = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(k(x, x), 1.0);
}

TEST(Kernels, RbfDecaysWithDistance) {
    const KernelFn k = htd::ml::rbf_kernel(1.0);
    const double a[] = {0.0};
    const double b[] = {1.0};
    const double c[] = {2.0};
    EXPECT_GT(k(a, b), k(a, c));
    EXPECT_NEAR(k(a, b), std::exp(-1.0), 1e-12);
}

TEST(Kernels, RbfRejectsBadGamma) {
    EXPECT_THROW((void)htd::ml::rbf_kernel(0.0), std::invalid_argument);
    EXPECT_THROW((void)htd::ml::rbf_kernel(-1.0), std::invalid_argument);
}

TEST(Kernels, DimMismatchThrows) {
    const KernelFn k = htd::ml::rbf_kernel(1.0);
    const double a[] = {1.0};
    const double b[] = {1.0, 2.0};
    EXPECT_THROW((void)k(a, b), std::invalid_argument);
}

TEST(Kernels, MedianHeuristicPositive) {
    htd::rng::Rng rng(3);
    Matrix data(100, 4);
    for (std::size_t r = 0; r < 100; ++r)
        for (std::size_t c = 0; c < 4; ++c) data(r, c) = rng.normal();
    const double gamma = htd::ml::median_heuristic_gamma(data);
    EXPECT_GT(gamma, 0.0);
    // For standard normal data in 4-D, median pairwise distance ~ sqrt(2*4)
    // => gamma ~ 1/(2*8) ~ 0.06; sanity band:
    EXPECT_GT(gamma, 0.01);
    EXPECT_LT(gamma, 0.5);
}

TEST(Kernels, MedianHeuristicNeedsTwoRows) {
    EXPECT_THROW((void)htd::ml::median_heuristic_gamma(Matrix{{1.0}}),
                 std::invalid_argument);
}

TEST(Kernels, GramMatrixSymmetricPsdDiagonalOnes) {
    htd::rng::Rng rng(4);
    Matrix data(20, 3);
    for (std::size_t r = 0; r < 20; ++r)
        for (std::size_t c = 0; c < 3; ++c) data(r, c) = rng.normal();
    const Matrix g = gram_matrix(htd::ml::rbf_kernel(0.5), data);
    EXPECT_TRUE(g.is_symmetric());
    for (std::size_t i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(g(i, i), 1.0);
    // PSD check via eigenvalues.
    const auto eig = htd::linalg::symmetric_eigen(g);
    EXPECT_GE(eig.values[19], -1e-9);
}

}  // namespace
