/// \file selftest.cpp
/// Unit tests of the benchmark's own arithmetic (ledger.hpp): tail
/// percentile selection, self time on hand-built span trees, and the
/// operation accounting behind error_rate.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

using htd::obs::SpanRecord;

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
    return v;
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start_ms,
                std::int64_t wall_ms, const char* name) {
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_wall_ns = start_ms * 1'000'000;
    s.wall_ns = wall_ms * 1'000'000;
    return s;
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
    EXPECT_EQ(tail_percent(0), 0.0);
    EXPECT_EQ(tail_percent(19), 0.0);   // the median would have only 9 beyond
    EXPECT_EQ(tail_percent(20), 50.0);  // the median has exactly 10 beyond
    EXPECT_EQ(tail_percent(40), 75.0);
    EXPECT_EQ(tail_percent(100), 90.0);
    EXPECT_EQ(tail_percent(1000), 99.0);
    EXPECT_EQ(tail_percent(10000), 99.9);
}

TEST(TailPercentile, TailIsTheEleventhLargest) {
    for (std::size_t n = 20; n < 500; n += 7) {
        const Summary s = summarize(ramp(n));  // samples 1..n
        EXPECT_EQ(s.tail, static_cast<double>(n - 10)) << n;
        // Exactly ten samples lie beyond the tail value.
        EXPECT_EQ(n - static_cast<std::size_t>(s.tail), kTailSamplesBeyond) << n;
    }
}

TEST(Summarize, MedianAndTail) {
    const Summary odd = summarize({5.0, 1.0, 3.0});
    EXPECT_EQ(odd.count, 3u);
    EXPECT_EQ(odd.median, 3.0);
    EXPECT_EQ(odd.tail_pct, 0.0);
    EXPECT_EQ(odd.tail, odd.median);

    const Summary even = summarize(ramp(100));
    EXPECT_DOUBLE_EQ(even.median, 50.5);
    EXPECT_EQ(even.tail_pct, 90.0);
    EXPECT_EQ(even.tail, 90.0);  // 91..100 lie beyond

    const Summary empty = summarize({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.median, 0.0);
}

TEST(SelfTime, NestedChain) {
    // root 100 -> stage 60 -> algo 45
    const std::vector<SpanRecord> spans = {span(3, 2, 10, 45, "algo"),
                                           span(2, 1, 5, 60, "stage"),
                                           span(1, 0, 0, 100, "root")};
    const auto self = self_times_ms(spans);
    EXPECT_DOUBLE_EQ(self.at(1), 40.0);
    EXPECT_DOUBLE_EQ(self.at(2), 15.0);
    EXPECT_DOUBLE_EQ(self.at(3), 45.0);
    const LedgerNode ledger = build_ledger(spans, 1);
    EXPECT_DOUBLE_EQ(sum_self_ms(ledger), 100.0);
    EXPECT_TRUE(ledger_adds_up(ledger, 1e-9));
}

TEST(SelfTime, SiblingsMergeByName) {
    // root 100 with two "fit" siblings (20 + 30) and one "draw" (25).
    const std::vector<SpanRecord> spans = {
        span(1, 0, 0, 100, "root"), span(2, 1, 0, 20, "fit"),
        span(3, 1, 20, 25, "draw"), span(4, 1, 45, 30, "fit")};
    const LedgerNode ledger = build_ledger(spans, 1);
    ASSERT_EQ(ledger.children.size(), 2u);
    EXPECT_EQ(ledger.children[0].name, "fit");
    EXPECT_EQ(ledger.children[0].count, 2u);
    EXPECT_DOUBLE_EQ(ledger.children[0].wall_ms, 50.0);
    EXPECT_DOUBLE_EQ(ledger.children[1].wall_ms, 25.0);
    EXPECT_DOUBLE_EQ(ledger.self_ms, 25.0);  // the unaccounted root time
    EXPECT_TRUE(ledger_adds_up(ledger, 1e-9));
}

TEST(SelfTime, ZeroLengthSpans) {
    const std::vector<SpanRecord> spans = {span(1, 0, 0, 10, "root"),
                                           span(2, 1, 4, 0, "empty"),
                                           span(3, 2, 4, 0, "empty_child")};
    const auto self = self_times_ms(spans);
    EXPECT_DOUBLE_EQ(self.at(1), 10.0);
    EXPECT_DOUBLE_EQ(self.at(2), 0.0);
    EXPECT_DOUBLE_EQ(self.at(3), 0.0);
    EXPECT_TRUE(ledger_adds_up(build_ledger(spans, 1), 1e-9));
}

TEST(SelfTime, OverlappingChildrenAreFlagged) {
    // Children longer than their parent: negative self time, ledger fails.
    const std::vector<SpanRecord> spans = {span(1, 0, 0, 10, "root"),
                                           span(2, 1, 0, 8, "a"),
                                           span(3, 1, 2, 8, "b")};
    EXPECT_DOUBLE_EQ(self_times_ms(spans).at(1), -6.0);
    EXPECT_FALSE(ledger_adds_up(build_ledger(spans, 1), 1e-9));
}

TEST(SelfTime, SpansOutsideTheRootAreIgnored) {
    const std::vector<SpanRecord> spans = {span(1, 0, 0, 10, "root"),
                                           span(2, 1, 0, 4, "inside"),
                                           span(3, 0, 20, 50, "other_root")};
    const LedgerNode ledger = build_ledger(spans, 1);
    EXPECT_DOUBLE_EQ(ledger.wall_ms, 10.0);
    EXPECT_DOUBLE_EQ(sum_self_ms(ledger), 10.0);
    EXPECT_THROW((void)build_ledger(spans, 99), std::invalid_argument);
}

TEST(ErrorRate, CountsFailedOperationsOnce) {
    OpTally tally;
    EXPECT_EQ(tally.error_rate(), 0.0);
    tally.record({});
    tally.record({.unusable_boundaries = 1});
    tally.record({.exceptions = 1, .parity_mismatches = 3});  // one failed op
    tally.record({});
    EXPECT_EQ(tally.attempted(), 4u);
    EXPECT_EQ(tally.failed(), 2u);
    EXPECT_EQ(tally.parity_mismatches(), 3u);
    EXPECT_DOUBLE_EQ(tally.error_rate(), 0.5);

    OpTally other;
    other.record({.parity_mismatches = 1});
    tally.merge(other);
    EXPECT_EQ(tally.attempted(), 5u);
    EXPECT_EQ(tally.failed(), 3u);
    EXPECT_EQ(tally.parity_mismatches(), 4u);
    EXPECT_DOUBLE_EQ(tally.error_rate(), 0.6);
}

}  // namespace
}  // namespace perfbench
