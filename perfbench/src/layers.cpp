#include "layers.hpp"

#include <algorithm>

#include "ledger.hpp"

namespace perfbench {

namespace {

using htd::obs::SpanRecord;

double attr_or(const SpanRecord& s, const std::string& key, double fallback) {
    for (const auto& [k, v] : s.attrs) {
        if (k == key) return v;
    }
    return fallback;
}

double trained_rows(const SpanRecord& fit, std::size_t cap) {
    return std::min(attr_or(fit, "samples", 0.0), static_cast<double>(cap));
}

/// SVM training rows of the fits that trained on KDE draws (the first
/// svm.fit after each kde.adaptive_sample_n under the same parent) over the
/// rows drawn; 0 when nothing was drawn.
double draws_trained_ratio(const std::vector<SpanRecord>& spans,
                           std::size_t svm_training_cap) {
    std::vector<const SpanRecord*> ordered;
    for (const auto& s : spans) ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
        return a->start_wall_ns < b->start_wall_ns;
    });
    double drawn = 0.0;
    double trained = 0.0;
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const SpanRecord& draw = *ordered[i];
        if (draw.name != "kde.adaptive_sample_n") continue;
        drawn += attr_or(draw, "samples", 0.0);
        for (std::size_t j = i + 1; j < ordered.size(); ++j) {
            if (ordered[j]->name == "svm.fit" && ordered[j]->parent == draw.parent) {
                trained += trained_rows(*ordered[j], svm_training_cap);
                break;
            }
        }
    }
    return drawn > 0.0 ? trained / drawn : 0.0;
}

}  // namespace

std::vector<Metric> per_layer_metrics(const std::vector<SpanRecord>& spans,
                                      const std::map<std::string, double>& works,
                                      const LayerInputs& in) {
    const std::map<std::uint64_t, double> self = self_times_ms(spans);
    std::map<std::string, double> wall_ms;
    std::map<std::string, double> self_ms;
    std::map<std::string, double> calls;
    double svm_rows = 0.0;
    for (const auto& s : spans) {
        wall_ms[s.name] += static_cast<double>(s.wall_ns) / 1e6;
        self_ms[s.name] += self.at(s.id);
        calls[s.name] += 1.0;
        if (s.name == "svm.fit") svm_rows += trained_rows(s, in.svm_training_cap);
    }
    const double ops = static_cast<double>(std::max<std::size_t>(in.ops, 1));
    const auto get = [](const std::map<std::string, double>& m, const std::string& k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    const auto wall = [&](const std::string& name) { return get(wall_ms, name) / ops; };
    const auto own = [&](const std::string& name) { return get(self_ms, name) / ops; };
    const auto count = [&](const std::string& name) { return get(calls, name) / ops; };
    const auto work = [&](const std::string& name) { return get(works, name) / ops; };
    const double explains = get(calls, "perfbench.explain");
    double root_self = 0.0;
    for (const auto& s : spans) {
        if (s.id == in.root_id) root_self = self.at(s.id);
    }

    return {
        {"pipeline.stage1_ms", wall("pipeline.stage1_premanufacturing"), "ms"},
        {"pipeline.stage2_ms", wall("pipeline.stage2_silicon"), "ms"},
        {"pipeline.stage1_self_ms", own("pipeline.stage1_premanufacturing"), "ms"},
        {"pipeline.stage2_self_ms", own("pipeline.stage2_silicon"), "ms"},
        {"pipeline.artifact.save_ms", wall("perfbench.artifact.save"), "ms"},
        {"pipeline.artifact.bytes", in.artifact_bytes, "bytes"},
        {"pipeline.artifact.load_ms", wall("perfbench.artifact.load"), "ms"},
        {"pipeline.scorer.decision_values_ms", wall("perfbench.decision_values"), "ms"},
        {"pipeline.scorer.classify_ms", wall("perfbench.classify"), "ms"},
        {"pipeline.scorer.devices", work("work.score.devices"), "count"},
        {"pipeline.explain.record_ms",
         explains > 0.0 ? get(wall_ms, "perfbench.explain") / explains : 0.0, "ms"},
        {"pipeline.explain.records", count("perfbench.explain"), "count"},
        {"silicon.fabricate_measure_ms", wall("perfbench.fabricate_measure"), "ms"},
        {"silicon.monte_carlo_ms", wall("pipeline.monte_carlo"), "ms"},
        {"silicon.mc_samples", work("work.mc.samples"), "count"},
        {"ml.svm.fit_ms", wall("svm.fit"), "ms"},
        {"ml.svm.fit_calls", count("svm.fit"), "count"},
        {"ml.svm.train_rows", svm_rows / ops, "count"},
        {"ml.svm.gram_cells", work("work.svm.gram_cells"), "count"},
        {"ml.svm.kernel_evals", work("work.svm.kernel_evals"), "count"},
        {"ml.svm.smo_iterations", work("work.svm.smo_iterations"), "count"},
        {"ml.kmm.calibrate_ms", wall("kmm.calibrate"), "ms"},
        {"ml.kmm.gram_cells", work("work.kmm.gram_cells"), "count"},
        {"ml.kmm.pgd_matvec_cells", work("work.kmm.pgd_matvec_cells"), "count"},
        {"ml.kmm.shift_pair_evals", work("work.kmm.shift_pair_evals"), "count"},
        {"ml.mars.fit_ms", wall("mars.bank_fit"), "ms"},
        {"ml.mars.basis_evals", work("work.mars.basis_evals"), "count"},
        {"stats.kde.build_ms", wall("kde.adaptive_build"), "ms"},
        {"stats.kde.sample_ms", wall("kde.adaptive_sample_n"), "ms"},
        {"stats.kde.samples_drawn", work("work.kde.samples_drawn"), "count"},
        {"stats.kde.kernel_evals", work("work.kde.kernel_evals"), "count"},
        {"stats.kde.draws_trained_ratio", draws_trained_ratio(spans, in.svm_training_cap),
         "ratio"},
        {"io.csv.read_ms", wall("perfbench.csv.read"), "ms"},
        {"io.json.dump_ms", wall("perfbench.json.dump"), "ms"},
        {"io.json.bytes", in.json_bytes / ops, "bytes"},
        {"obs.journal.overhead_ms", in.journal_overhead_ms, "ms"},
        {"obs.journal.events", in.journal_events / ops, "count"},
        {"obs.journal.bytes", in.journal_bytes / ops, "bytes"},
        {"obs.trace.overhead_ratio", in.trace_overhead_ratio, "ratio"},
        {"run.unaccounted_ms", root_self / ops, "ms"},
    };
}

}  // namespace perfbench
