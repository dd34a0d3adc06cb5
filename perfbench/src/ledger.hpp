#pragma once
/// \file ledger.hpp
/// The benchmark's own arithmetic, kept apart from the workloads so it can
/// be unit-tested (selftest.cpp):
///
///   - timing summaries: median plus the highest ladder percentile that has
///     at least ten samples beyond it;
///   - the self-time ledger: a span tree rebuilt from parent ids, where a
///     node's self time is its wall time minus what its children cover;
///   - operation accounting behind `error_rate`.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

/// Samples a tail percentile must leave beyond it.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Highest percentile with at least kTailSamplesBeyond samples beyond it:
/// 100 * (n - 10) / n, the rank of the 11th-largest sample. 0 when even
/// the median has fewer (n < 20). Continuous rather than a fixed ladder so
/// the reported tail does not jump between ladder rungs when a run's
/// operation count drifts.
[[nodiscard]] double tail_percent(std::size_t n);

/// Median and tail of one timing series.
struct Summary {
    std::size_t count = 0;
    double median = 0.0;
    double tail = 0.0;      ///< the 11th-largest sample (the median when tail_pct = 0)
    double tail_pct = 0.0;  ///< 0 = fewer than 20 samples
};

/// Median (mean of the two middle samples for even n) and tail of
/// `samples`. All zero for an empty series.
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// One node of the aggregated run -> stage -> algorithm tree. Spans are
/// merged by their name path, so the 5 svm.fit calls under one stage form
/// a single node with count 5.
struct LedgerNode {
    std::string name;
    std::size_t count = 0;
    double wall_ms = 0.0;
    double self_ms = 0.0;  ///< wall minus the part its children cover
    std::vector<LedgerNode> children;  ///< in first-seen order
};

/// Per-span self time (ms) keyed by span id: wall_ns minus the summed
/// wall_ns of the spans whose parent is this span. Spans on one thread nest
/// without overlap, so this is the uncovered part of the interval. Negative
/// only when the records are inconsistent.
[[nodiscard]] std::map<std::uint64_t, double> self_times_ms(
    const std::vector<htd::obs::SpanRecord>& spans);

/// The aggregated tree under span `root_id` (which must be in `spans`).
[[nodiscard]] LedgerNode build_ledger(const std::vector<htd::obs::SpanRecord>& spans,
                                      std::uint64_t root_id);

/// Sum of self_ms over a subtree.
[[nodiscard]] double sum_self_ms(const LedgerNode& node);

/// True when every self time is >= -tolerance and the subtree's self
/// times sum to its wall time within `tolerance_ms`.
[[nodiscard]] bool ledger_adds_up(const LedgerNode& node, double tolerance_ms);

/// Indented text rendering: name, count, wall, self, share of root wall.
[[nodiscard]] std::string render_ledger(const LedgerNode& root, std::size_t max_depth);

/// What went wrong in one operation. An operation fails when any of these
/// happened; several problems in one operation count once.
struct OpProblems {
    std::size_t unusable_boundaries = 0;  ///< verdict or bscores boundary unusable
    std::size_t exceptions = 0;           ///< an exception escaped the operation
    std::size_t parity_mismatches = 0;    ///< artifact path != in-process path
    [[nodiscard]] bool any() const noexcept {
        return unusable_boundaries + exceptions + parity_mismatches > 0;
    }
};

/// attempted / failed counts behind `error_rate`.
class OpTally {
public:
    void record(const OpProblems& problems);
    /// Add another tally's counts to this one.
    void merge(const OpTally& other);
    [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
    [[nodiscard]] std::size_t parity_mismatches() const noexcept { return parity_; }
    /// failed / attempted; 0 before the first operation.
    [[nodiscard]] double error_rate() const noexcept;

private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t parity_ = 0;
};

}  // namespace perfbench
