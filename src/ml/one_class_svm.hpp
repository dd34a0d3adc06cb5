#pragma once
/// \file one_class_svm.hpp
/// One-class support vector machine (Schölkopf et al., 2001) — the paper's
/// trusted-region learner. Each classification boundary B1..B5 is a 1-class
/// SVM trained on one of the golden fingerprint populations S1..S5; a device
/// whose fingerprint scores >= 0 is inside the trusted region (Trojan-free).
///
/// The dual
///     min_alpha  1/2 alpha^T Q alpha
///     s.t.       0 <= alpha_i <= 1/(nu l),   sum_i alpha_i = 1,
/// with Q_ij = k(x_i, x_j), is solved by SMO with maximal-violating-pair
/// working-set selection over a per-fit kernel column cache: column j of Q
/// is evaluated the first time SMO reads it, and SMO reads only a few
/// hundred of the l columns. The columns share one l x l block whose pages
/// become resident only as columns are written. Training sets beyond
/// `Options::max_training_samples` are uniformly subsampled first — the
/// tail-enhanced populations (10^5 KDE draws) are i.i.d., so a uniform
/// subsample is an unbiased surrogate at a fraction of the cost.

#include <cstdint>
#include <optional>

#include "linalg/matrix.hpp"
#include "ml/kernel_functions.hpp"
#include "rng/rng.hpp"

namespace htd::ml {

/// One-class SVM with an RBF kernel on internally standardized inputs.
class OneClassSvm {
public:
    struct Options {
        /// Fraction of training points allowed outside the boundary
        /// (equivalently, lower bound on the support-vector fraction).
        /// Must lie in (0, 1).
        double nu = 0.05;

        /// RBF width; <= 0 selects the median heuristic on the (subsampled,
        /// standardized) training set.
        double gamma = 0.0;

        /// Multiplier applied to the resolved gamma (only when the median
        /// heuristic is used). > 1 tightens the boundary around the training
        /// cloud; < 1 relaxes it.
        double gamma_scale = 1.0;

        /// KKT violation tolerance for SMO convergence.
        double tolerance = 1e-4;

        /// Hard cap on SMO iterations (safety net; reached only on
        /// pathological inputs).
        std::size_t max_iterations = 2'000'000;

        /// Subsample cap: training sets larger than this are uniformly
        /// subsampled, which bounds the column cache at l^2 cells and each
        /// kernel column at l evaluations.
        std::size_t max_training_samples = 2000;

        /// Seed for the subsampling permutation.
        std::uint64_t subsample_seed = 0x5eed'0c5fULL;

        /// Preprocess inputs by full PCA whitening instead of per-column
        /// standardization. Whitening equalizes the strongly correlated
        /// "common gain" direction with the small orthogonal directions of
        /// side-channel clouds, which is essential when the training data
        /// has real spread in every direction (e.g. measured golden chips);
        /// it must stay off for the regression-predicted tubes S3/S4 whose
        /// orthogonal variance is numerically zero.
        bool whiten = false;

        /// Eigenvalue floor for whitening, relative to the largest
        /// eigenvalue (guards against blowing up null directions).
        double whiten_floor = 1e-4;
    };

    /// The complete trained state: everything decision_value consumes, in
    /// the exact representation it consumes it. Exporting and re-importing
    /// a State reproduces decision values *bitwise* — the contract behind
    /// the htd.boundary.v1 calibrate/score split.
    struct State {
        Options opts{};
        bool fitted = false;
        linalg::Vector input_mean;
        linalg::Matrix input_transform;  ///< z = W (x - mean)
        linalg::Matrix support_vectors;  ///< preprocessed rows
        std::vector<double> alpha;       ///< one coefficient per support vector
        double rho = 0.0;
        double gamma = 0.0;
        std::size_t iterations = 0;
    };

    OneClassSvm() = default;

    /// Construct with explicit options; throws std::invalid_argument for
    /// nu outside (0, 1) or a zero sample cap.
    explicit OneClassSvm(Options opts);

    /// Snapshot of the trained state (valid to export an unfitted model).
    [[nodiscard]] State export_state() const;

    /// Rebuild a model from exported state. Throws std::invalid_argument
    /// on internally inconsistent state (mismatched support-vector /
    /// alpha / transform shapes, non-finite rho or gamma on a fitted
    /// model) so a corrupted artifact cannot produce a silently wrong
    /// scorer.
    [[nodiscard]] static OneClassSvm from_state(State state);

    /// Train on the rows of `data`. Throws std::invalid_argument on an empty
    /// dataset or when nu * n < 1 (no feasible alpha).
    void fit(const linalg::Matrix& data);

    /// True once fit() succeeded.
    [[nodiscard]] bool fitted() const noexcept { return fitted_; }

    /// Decision value f(x) = sum_i alpha_i k(x_i, x) - rho. Positive means
    /// inside the trusted region. Throws std::logic_error if not fitted.
    [[nodiscard]] double decision_value(const linalg::Vector& x) const;

    /// Convenience: decision_value(x) >= 0.
    [[nodiscard]] bool contains(const linalg::Vector& x) const;

    /// Decision values for every row of `data`.
    [[nodiscard]] linalg::Vector decision_values(const linalg::Matrix& data) const;

    /// Number of support vectors (alpha_i > 0) after training.
    [[nodiscard]] std::size_t support_vector_count() const noexcept {
        return support_vectors_.rows();
    }

    /// Offset rho of the decision function.
    [[nodiscard]] double rho() const noexcept { return rho_; }

    /// The RBF gamma in effect after fitting (resolved median heuristic).
    [[nodiscard]] double effective_gamma() const noexcept { return gamma_; }

    /// SMO iterations consumed by the last fit.
    [[nodiscard]] std::size_t iterations_used() const noexcept { return iterations_; }

    [[nodiscard]] const Options& options() const noexcept { return opts_; }

private:
    [[nodiscard]] linalg::Vector preprocess(const linalg::Vector& x) const;

    Options opts_{};
    bool fitted_ = false;
    linalg::Vector input_mean_;
    linalg::Matrix input_transform_;  // z = W (x - mean)
    linalg::Matrix support_vectors_;  // preprocessed
    std::vector<double> alpha_;       // matching support-vector coefficients
    double rho_ = 0.0;
    double gamma_ = 0.0;
    std::size_t iterations_ = 0;
};

}  // namespace htd::ml
