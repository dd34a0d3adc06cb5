/// \file test_svm_oracle.cpp
/// Oracle tests for the lazy-column one-class SVM fit. The reference below
/// is the dense-Gram implementation the column cache replaced, kept
/// verbatim: it builds the full l x l RBF Gram matrix through
/// `gram_matrix(rbf_kernel(gamma), x)`, resolves gamma with the flat
/// all-pairs walk of the median heuristic and a full-sort median, and runs
/// the same SMO. Every test demands *bitwise* agreement — alpha, rho,
/// gamma, support vectors and the SMO iteration count — because the
/// column cache is meant to change the cost of a fit, never its result.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/decompositions.hpp"
#include "ml/kernel_functions.hpp"
#include "ml/one_class_svm.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::ml::OneClassSvm;

Matrix gaussian_cloud(std::size_t n, std::size_t d, std::uint64_t seed) {
    htd::rng::Rng rng(seed);
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal();
    return data;
}

double squared_dist(std::span<const double> x, std::span<const double> y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - y[i];
        acc += d * d;
    }
    return acc;
}

/// Sort-based linear-interpolation quantile (the pre-selection version).
double sorted_quantile(std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Median heuristic walking every pair and keeping flat % stride == 0.
double flat_walk_median_gamma(const Matrix& data, std::size_t max_pairs = 100000) {
    const std::size_t n = data.rows();
    std::vector<double> dists;
    const std::size_t total_pairs = n * (n - 1) / 2;
    if (total_pairs <= max_pairs) {
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                dists.push_back(std::sqrt(squared_dist(data.row_span(i), data.row_span(j))));
    } else {
        const std::size_t stride = std::max<std::size_t>(1, total_pairs / max_pairs);
        std::size_t flat = 0;
        for (std::size_t i = 0; i < n && dists.size() < max_pairs; ++i) {
            for (std::size_t j = i + 1; j < n && dists.size() < max_pairs; ++j, ++flat) {
                if (flat % stride == 0) {
                    dists.push_back(
                        std::sqrt(squared_dist(data.row_span(i), data.row_span(j))));
                }
            }
        }
    }
    const double med = sorted_quantile(std::move(dists), 0.5);
    if (med <= 0.0) return 1.0 / static_cast<double>(data.cols());
    return 1.0 / (2.0 * med * med);
}

/// The reference fit: same subsample, preprocessing and SMO as
/// OneClassSvm::fit, over a dense Gram matrix.
OneClassSvm::State dense_reference_fit(const Matrix& data, const OneClassSvm::Options& opts) {
    Matrix train;
    if (data.rows() > opts.max_training_samples) {
        htd::rng::Rng rng(opts.subsample_seed);
        const auto perm = rng.permutation(data.rows());
        train = Matrix(opts.max_training_samples, data.cols());
        for (std::size_t i = 0; i < opts.max_training_samples; ++i) {
            train.set_row(i, data.row(perm[i]));
        }
    } else {
        train = data;
    }
    const std::size_t l = train.rows();
    const std::size_t d = train.cols();
    const double c = 1.0 / (opts.nu * static_cast<double>(l));

    OneClassSvm::State st;
    st.opts = opts;
    st.input_mean = htd::stats::column_means(train);
    st.input_transform = Matrix(d, d);
    if (opts.whiten && l >= 2) {
        const htd::linalg::EigenResult eig =
            htd::linalg::symmetric_eigen(htd::stats::covariance_matrix(train));
        const double floor_val = std::max(eig.values[0], 0.0) * opts.whiten_floor + 1e-300;
        for (std::size_t k = 0; k < d; ++k) {
            const double scale = 1.0 / std::sqrt(std::max(eig.values[k], floor_val));
            for (std::size_t col = 0; col < d; ++col) {
                st.input_transform(k, col) = scale * eig.vectors(col, k);
            }
        }
    } else {
        Vector scale(d, 1.0);
        if (l >= 2) scale = htd::stats::column_stddevs(train);
        for (std::size_t k = 0; k < d; ++k) {
            st.input_transform(k, k) = 1.0 / std::max(scale[k], 1e-12);
        }
    }
    Matrix x(l, d);
    for (std::size_t r = 0; r < l; ++r) {
        x.set_row(r, st.input_transform.matvec(train.row(r) - st.input_mean));
    }
    st.gamma = opts.gamma > 0.0 ? opts.gamma : flat_walk_median_gamma(x) * opts.gamma_scale;
    const Matrix q = htd::ml::gram_matrix(htd::ml::rbf_kernel(st.gamma), x);

    std::vector<double> alpha(l, 0.0);
    const auto n_full = static_cast<std::size_t>(opts.nu * static_cast<double>(l));
    for (std::size_t i = 0; i < std::min(n_full, l); ++i) alpha[i] = c;
    if (n_full < l) alpha[n_full] = 1.0 - static_cast<double>(n_full) * c;

    std::vector<double> grad(l, 0.0);
    for (std::size_t i = 0; i < l; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < l; ++j) {
            if (alpha[j] != 0.0) acc += q(i, j) * alpha[j];
        }
        grad[i] = acc;
    }

    st.iterations = 0;
    for (; st.iterations < opts.max_iterations; ++st.iterations) {
        std::size_t bi = l, bj = l;
        double gi = std::numeric_limits<double>::infinity();
        double gj = -std::numeric_limits<double>::infinity();
        for (std::size_t t = 0; t < l; ++t) {
            if (alpha[t] < c - 1e-15 && grad[t] < gi) {
                gi = grad[t];
                bi = t;
            }
            if (alpha[t] > 1e-15 && grad[t] > gj) {
                gj = grad[t];
                bj = t;
            }
        }
        if (bi == l || bj == l || gj - gi < opts.tolerance) break;
        double eta = q(bi, bi) + q(bj, bj) - 2.0 * q(bi, bj);
        if (eta <= 1e-15) eta = 1e-15;
        double step = (gj - gi) / eta;
        step = std::min(step, c - alpha[bi]);
        step = std::min(step, alpha[bj]);
        if (step <= 0.0) break;
        alpha[bi] += step;
        alpha[bj] -= step;
        for (std::size_t t = 0; t < l; ++t) grad[t] += step * (q(t, bi) - q(t, bj));
    }

    double free_sum = 0.0;
    std::size_t free_count = 0;
    double lower = -std::numeric_limits<double>::infinity();
    double upper = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < l; ++t) {
        if (alpha[t] > 1e-12 && alpha[t] < c - 1e-12) {
            free_sum += grad[t];
            ++free_count;
        } else if (alpha[t] <= 1e-12) {
            upper = std::min(upper, grad[t]);
        } else {
            lower = std::max(lower, grad[t]);
        }
    }
    if (free_count > 0) {
        st.rho = free_sum / static_cast<double>(free_count);
    } else {
        if (!std::isfinite(lower)) lower = upper;
        if (!std::isfinite(upper)) upper = lower;
        st.rho = 0.5 * (lower + upper);
    }
    for (std::size_t t = 0; t < l; ++t) {
        if (alpha[t] > 1e-12) {
            st.support_vectors.append_row(x.row(t));
            st.alpha.push_back(alpha[t]);
        }
    }
    st.fitted = true;
    return st;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Fit both ways and demand bitwise-equal trained state.
void expect_matches_dense_reference(const Matrix& data, const OneClassSvm::Options& opts) {
    OneClassSvm svm(opts);
    svm.fit(data);
    const OneClassSvm::State got = svm.export_state();
    const OneClassSvm::State want = dense_reference_fit(data, opts);

    EXPECT_EQ(bits(got.gamma), bits(want.gamma));
    EXPECT_EQ(bits(got.rho), bits(want.rho));
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(got.alpha.size(), want.alpha.size());
    for (std::size_t i = 0; i < got.alpha.size(); ++i) {
        EXPECT_EQ(bits(got.alpha[i]), bits(want.alpha[i])) << "alpha " << i;
    }
    ASSERT_EQ(got.support_vectors.rows(), want.support_vectors.rows());
    ASSERT_EQ(got.support_vectors.cols(), want.support_vectors.cols());
    for (std::size_t r = 0; r < got.support_vectors.rows(); ++r) {
        for (std::size_t c = 0; c < got.support_vectors.cols(); ++c) {
            EXPECT_EQ(bits(got.support_vectors(r, c)), bits(want.support_vectors(r, c)))
                << "support vector " << r << " col " << c;
        }
    }
}

// --- lazy-column fit vs dense reference -------------------------------------

TEST(SvmColumnCacheOracle, BelowSampleCap) {
    expect_matches_dense_reference(gaussian_cloud(300, 6, 11), {});
}

TEST(SvmColumnCacheOracle, AboveSampleCapSubsamples) {
    // 2500 > 2000 rows: subsample permutation + strided median heuristic.
    expect_matches_dense_reference(gaussian_cloud(2500, 6, 12), {});
}

TEST(SvmColumnCacheOracle, AboveSmallSampleCap) {
    OneClassSvm::Options opts;
    opts.max_training_samples = 250;
    expect_matches_dense_reference(gaussian_cloud(900, 4, 13), opts);
}

TEST(SvmColumnCacheOracle, WhitenedInputs) {
    Matrix data = gaussian_cloud(400, 5, 14);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        for (std::size_t c = 1; c < data.cols(); ++c) data(r, c) += 0.9 * data(r, 0);
    }
    OneClassSvm::Options opts;
    opts.whiten = true;
    expect_matches_dense_reference(data, opts);
    opts.whiten = false;
    expect_matches_dense_reference(data, opts);
}

TEST(SvmColumnCacheOracle, DuplicateRows) {
    const Matrix base = gaussian_cloud(60, 3, 15);
    Matrix data(180, 3);
    for (std::size_t r = 0; r < data.rows(); ++r) data.set_row(r, base.row(r % 60));
    expect_matches_dense_reference(data, {});
}

TEST(SvmColumnCacheOracle, NuTimesLExactInteger) {
    // nu * l = 20 exactly, so the remainder coefficient alpha[20] is zero
    // and its column is skipped by the gradient initialisation.
    OneClassSvm::Options opts;
    opts.nu = 0.125;
    const std::size_t l = 160;
    const double c = 1.0 / (opts.nu * static_cast<double>(l));
    ASSERT_EQ(opts.nu * static_cast<double>(l), 20.0);
    ASSERT_EQ(1.0 - 20.0 * c, 0.0);
    expect_matches_dense_reference(gaussian_cloud(l, 4, 16), opts);
}

TEST(SvmColumnCacheOracle, MaxIterationsReached) {
    OneClassSvm::Options opts;
    opts.max_iterations = 5;
    OneClassSvm probe(opts);
    probe.fit(gaussian_cloud(300, 6, 17));
    ASSERT_EQ(probe.iterations_used(), 5U);
    expect_matches_dense_reference(gaussian_cloud(300, 6, 17), opts);
}

TEST(SvmColumnCacheOracle, TwoRows) {
    OneClassSvm::Options opts;
    opts.nu = 0.6;
    expect_matches_dense_reference(Matrix{{0.5, -1.0}, {1.5, 2.0}}, opts);
}

TEST(SvmColumnCacheOracle, ExplicitGammaAndLooseTolerance) {
    OneClassSvm::Options opts;
    opts.gamma = 0.3;
    opts.nu = 0.2;
    opts.tolerance = 1e-2;
    expect_matches_dense_reference(gaussian_cloud(250, 3, 18), opts);
}

// --- strided median heuristic vs the flat walk ------------------------------

TEST(MedianHeuristicOracle, MatchesFlatWalkAroundPairThreshold) {
    // 447 rows: 99681 pairs (all kept); 448/449/500: stride 1, first 100k
    // pairs; 1999/2000: stride 19; 2001: stride 20.
    for (const std::size_t n : {447U, 448U, 449U, 500U, 1999U, 2000U, 2001U}) {
        const Matrix data = gaussian_cloud(n, 6, 20 + n);
        EXPECT_EQ(bits(htd::ml::median_heuristic_gamma(data)),
                  bits(flat_walk_median_gamma(data)))
            << "n=" << n;
    }
}

TEST(MedianHeuristicOracle, MatchesFlatWalkForNonDividingStrides) {
    // 4950 pairs at n = 100: strides 4, 7 and 13 leave a remainder, and
    // max_pairs = 2476 gives stride 1 with a cut mid-row.
    const Matrix data = gaussian_cloud(100, 3, 21);
    for (const std::size_t max_pairs : {1000U, 700U, 379U, 2476U, 4949U}) {
        EXPECT_EQ(bits(htd::ml::median_heuristic_gamma(data, max_pairs)),
                  bits(flat_walk_median_gamma(data, max_pairs)))
            << "max_pairs=" << max_pairs;
    }
}

TEST(MedianHeuristicOracle, MatchesFlatWalkOnTwoRows) {
    const Matrix data{{0.0, 1.0}, {3.0, 5.0}};
    EXPECT_EQ(bits(htd::ml::median_heuristic_gamma(data)),
              bits(flat_walk_median_gamma(data)));
}

}  // namespace
