#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/decompositions.hpp"

namespace htd::stats {

double mean(std::span<const double> xs) {
    if (xs.empty()) throw std::invalid_argument("mean: empty sample");
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 2) throw std::invalid_argument("variance: need >= 2 samples");
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
    if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
    // Only the order statistics at lo and lo + 1 are needed: select lo,
    // then the smallest of the (all >= it) elements behind it.
    std::vector<double> v(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const auto at_lo = v.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(v.begin(), at_lo, v.end());
    const double lo_value = *at_lo;
    const double hi_value = lo + 1 < v.size() ? *std::min_element(at_lo + 1, v.end())
                                              : lo_value;
    const double frac = pos - static_cast<double>(lo);
    return lo_value * (1.0 - frac) + hi_value * frac;
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
    if (xs.size() != ys.size()) {
        throw std::invalid_argument("pearson_correlation: size mismatch");
    }
    if (xs.size() < 2) throw std::invalid_argument("pearson_correlation: need >= 2 samples");
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0) {
        throw std::invalid_argument("pearson_correlation: zero variance");
    }
    return sxy / std::sqrt(sxx * syy);
}

linalg::Vector column_means(const linalg::Matrix& data) {
    if (data.rows() == 0) throw std::invalid_argument("column_means: empty dataset");
    linalg::Vector m(data.cols());
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const auto row = data.row_span(r);
        for (std::size_t c = 0; c < data.cols(); ++c) m[c] += row[c];
    }
    m /= static_cast<double>(data.rows());
    return m;
}

linalg::Vector column_stddevs(const linalg::Matrix& data) {
    if (data.rows() < 2) throw std::invalid_argument("column_stddevs: need >= 2 rows");
    const linalg::Vector m = column_means(data);
    linalg::Vector s(data.cols());
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const auto row = data.row_span(r);
        for (std::size_t c = 0; c < data.cols(); ++c) {
            const double d = row[c] - m[c];
            s[c] += d * d;
        }
    }
    for (std::size_t c = 0; c < data.cols(); ++c) {
        s[c] = std::sqrt(s[c] / static_cast<double>(data.rows() - 1));
    }
    return s;
}

linalg::Matrix covariance_matrix(const linalg::Matrix& data) {
    if (data.rows() < 2) throw std::invalid_argument("covariance_matrix: need >= 2 rows");
    const linalg::Vector m = column_means(data);
    const std::size_t d = data.cols();
    linalg::Matrix cov(d, d);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const auto row = data.row_span(r);
        for (std::size_t i = 0; i < d; ++i) {
            const double di = row[i] - m[i];
            for (std::size_t j = i; j < d; ++j) {
                cov(i, j) += di * (row[j] - m[j]);
            }
        }
    }
    const double denom = static_cast<double>(data.rows() - 1);
    for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = i; j < d; ++j) {
            cov(i, j) /= denom;
            cov(j, i) = cov(i, j);
        }
    return cov;
}

linalg::Matrix centered(const linalg::Matrix& data) {
    const linalg::Vector m = column_means(data);
    linalg::Matrix out = data;
    for (std::size_t r = 0; r < out.rows(); ++r) {
        auto row = out.row_span(r);
        for (std::size_t c = 0; c < out.cols(); ++c) row[c] -= m[c];
    }
    return out;
}

double mahalanobis(const linalg::Vector& x, const linalg::Vector& mean,
                   const linalg::Matrix& cov) {
    if (x.size() != mean.size()) {
        throw std::invalid_argument("mahalanobis: dimension mismatch");
    }
    const linalg::Vector diff = x - mean;
    const linalg::Vector solved = linalg::solve_spd_ridge(cov, diff);
    return std::sqrt(std::max(0.0, linalg::dot(diff, solved)));
}

// --- Histogram -----------------------------------------------------------------

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
    if (bins == 0) throw std::invalid_argument("Histogram: bins == 0");
    if (!(hi > lo)) throw std::invalid_argument("Histogram: hi <= lo");
}

void Histogram::add(double x) noexcept {
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        // The right edge belongs to the last bin.
        if (x == hi_) {
            ++counts_.back();
        } else {
            ++overflow_;
        }
        return;
    }
    const auto bin = static_cast<std::size_t>((x - lo_) / width_);
    ++counts_[std::min(bin, counts_.size() - 1)];
}

void Histogram::add_all(std::span<const double> xs) noexcept {
    for (double x : xs) add(x);
}

double Histogram::bin_center(std::size_t bin) const {
    if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_center");
    return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::density(std::size_t bin) const {
    if (bin >= counts_.size()) throw std::out_of_range("Histogram::density");
    if (total_ == 0) return 0.0;
    return static_cast<double>(counts_[bin]) /
           (static_cast<double>(total_) * width_);
}

// --- RunningStats ----------------------------------------------------------------

void RunningStats::add(double x) noexcept {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
    if (n_ < 2) throw std::logic_error("RunningStats::variance: need >= 2 observations");
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace htd::stats
