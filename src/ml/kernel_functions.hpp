#pragma once
/// \file kernel_functions.hpp
/// Positive-definite kernels for KMM, and the median-heuristic RBF width
/// shared with the 1-class SVM (which inlines its own RBF over a column
/// cache). Kernels operate on raw row spans so the Gram-matrix loops stay
/// allocation-free.

#include <functional>
#include <span>

#include "linalg/matrix.hpp"

namespace htd::ml {

/// A positive-definite kernel function k(x, y) on equal-length spans.
using KernelFn = std::function<double(std::span<const double>, std::span<const double>)>;

/// Gaussian RBF kernel k(x, y) = exp(-gamma ||x - y||^2).
/// Throws std::invalid_argument when gamma <= 0.
[[nodiscard]] KernelFn rbf_kernel(double gamma);

/// Median heuristic for the RBF width: gamma = 1 / (2 median^2) where the
/// median is over pairwise Euclidean distances of the rows of `data`. Above
/// `max_pairs` pairs it takes every stride-th pair of the row-major (i < j)
/// pair order, stride = total / max_pairs, and stops after `max_pairs`. Returns a
/// fallback of 1/dim when the median distance is zero. Throws on datasets
/// with fewer than 2 rows.
[[nodiscard]] double median_heuristic_gamma(const linalg::Matrix& data,
                                            std::size_t max_pairs = 100000);

/// Symmetric Gram matrix K_ij = k(x_i, x_j) over the rows of `x` (computes
/// only the upper triangle and mirrors it).
[[nodiscard]] linalg::Matrix gram_matrix(const KernelFn& kernel,
                                         const linalg::Matrix& x);

}  // namespace htd::ml
