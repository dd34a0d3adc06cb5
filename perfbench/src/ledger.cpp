#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <stdexcept>

namespace perfbench {

double tail_percent(std::size_t n) {
    if (n < 2 * kTailSamplesBeyond) return 0.0;
    return 100.0 * static_cast<double>(n - kTailSamplesBeyond) / static_cast<double>(n);
}

Summary summarize(std::vector<double> samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.median = n % 2 == 1 ? samples[n / 2]
                          : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    s.tail_pct = tail_percent(n);
    s.tail = s.tail_pct > 0.0 ? samples[n - 1 - kTailSamplesBeyond] : s.median;
    return s;
}

std::map<std::uint64_t, double> self_times_ms(
    const std::vector<htd::obs::SpanRecord>& spans) {
    std::map<std::uint64_t, std::int64_t> self_ns;
    for (const auto& s : spans) self_ns[s.id] += s.wall_ns;
    for (const auto& s : spans) {
        const auto parent = self_ns.find(s.parent);
        if (s.parent != 0 && parent != self_ns.end()) parent->second -= s.wall_ns;
    }
    std::map<std::uint64_t, double> out;
    for (const auto& [id, ns] : self_ns) out[id] = static_cast<double>(ns) / 1e6;
    return out;
}

LedgerNode build_ledger(const std::vector<htd::obs::SpanRecord>& spans,
                        std::uint64_t root_id) {
    std::map<std::uint64_t, std::vector<const htd::obs::SpanRecord*>> children;
    const htd::obs::SpanRecord* root = nullptr;
    for (const auto& s : spans) {
        if (s.id == root_id) root = &s;
        children[s.parent].push_back(&s);
    }
    if (root == nullptr) {
        throw std::invalid_argument("build_ledger: root span not recorded");
    }
    for (auto& [parent, kids] : children) {
        std::sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
            return a->start_wall_ns != b->start_wall_ns
                       ? a->start_wall_ns < b->start_wall_ns
                       : a->id < b->id;
        });
    }
    const std::map<std::uint64_t, double> self = self_times_ms(spans);

    const std::function<void(LedgerNode&, const htd::obs::SpanRecord&)> add =
        [&](LedgerNode& node, const htd::obs::SpanRecord& span) {
            node.count += 1;
            node.wall_ms += static_cast<double>(span.wall_ns) / 1e6;
            node.self_ms += self.at(span.id);
            const auto kids = children.find(span.id);
            if (kids == children.end()) return;
            for (const auto* kid : kids->second) {
                auto it = std::find_if(
                    node.children.begin(), node.children.end(),
                    [&](const LedgerNode& c) { return c.name == kid->name; });
                if (it == node.children.end()) {
                    node.children.emplace_back().name = kid->name;
                    it = std::prev(node.children.end());
                }
                add(*it, *kid);
            }
        };
    LedgerNode out;
    out.name = root->name;
    add(out, *root);
    return out;
}

double sum_self_ms(const LedgerNode& node) {
    double total = node.self_ms;
    for (const LedgerNode& c : node.children) total += sum_self_ms(c);
    return total;
}

namespace {

bool self_non_negative(const LedgerNode& node, double tolerance_ms) {
    if (node.self_ms < -tolerance_ms) return false;
    return std::all_of(node.children.begin(), node.children.end(),
                       [&](const LedgerNode& c) {
                           return self_non_negative(c, tolerance_ms);
                       });
}

void render(const LedgerNode& node, double root_ms, std::size_t depth,
            std::size_t max_depth, std::string& out) {
    char line[256];
    const double share = root_ms > 0.0 ? 100.0 * node.wall_ms / root_ms : 0.0;
    std::snprintf(line, sizeof line, "%*s%-*s %7zu x %12.3f ms wall %12.3f ms self %6.2f%%\n",
                  static_cast<int>(2 * depth), "",
                  std::max(1, 44 - static_cast<int>(2 * depth)), node.name.c_str(),
                  node.count, node.wall_ms, node.self_ms, share);
    out += line;
    if (depth + 1 >= max_depth) return;
    for (const LedgerNode& c : node.children) {
        render(c, root_ms, depth + 1, max_depth, out);
    }
}

}  // namespace

bool ledger_adds_up(const LedgerNode& node, double tolerance_ms) {
    return self_non_negative(node, tolerance_ms) &&
           std::abs(sum_self_ms(node) - node.wall_ms) <= tolerance_ms;
}

std::string render_ledger(const LedgerNode& root, std::size_t max_depth) {
    std::string out;
    render(root, root.wall_ms, 0, max_depth, out);
    return out;
}

void OpTally::record(const OpProblems& problems) {
    ++attempted_;
    if (problems.any()) ++failed_;
    parity_ += problems.parity_mismatches;
}

void OpTally::merge(const OpTally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    parity_ += other.parity_;
}

double OpTally::error_rate() const noexcept {
    return attempted_ == 0
               ? 0.0
               : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

}  // namespace perfbench
