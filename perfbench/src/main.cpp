/// \file main.cpp
/// htd_perfbench — one workload, one seed, one run:
///
///   htd_perfbench --workload calibrate_paper|score_lot|triage_journaled
///                 --seed N --seconds S --trace 0|1
///                 --work-dir DIR [--trace-out FILE]
///
/// With --trace 0 observability is forced off (whatever HTD_OBS* the shell
/// sets) and the run reports the end-to-end metrics. With --trace 1 the run
/// times an untraced loop of --seconds / 2, then a traced pass of a fixed
/// number of operations, reports the per-layer ledger of the traced pass
/// and writes it as an htd.trace.v1 file. The last line
/// of stdout is one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. Exit 0 when every output checked out, 1 otherwise (a parity
/// mismatch included), 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;
namespace obs = htd::obs;

/// Allocations at least this large are mapped and unmapped on free. glibc's
/// default adaptive threshold lets the 32 MB dense SVM Gram matrix land on
/// the heap after its first free, and whether the heap then grows by a
/// second such block depends on allocation history (seed, path lengths):
/// peak RSS flips between ~55 and ~75 MB. A fixed threshold makes
/// peak_rss_mb track live data.
constexpr int kMmapThresholdBytes = 16 << 20;

/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

/// Passes over the lot when measuring the journal's share of classify.
constexpr std::size_t kJournalRounds = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string work_dir;
    std::string trace_out;
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "htd_perfbench: %s\n"
                 "usage: htd_perfbench --workload calibrate_paper|score_lot|"
                 "triage_journaled --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out FILE]\n",
                 why);
    return 2;
}

/// Remove every HTD_OBS* variable before any obs singleton reads the
/// environment, then pin the registry and journal off. Returns the names
/// removed.
std::vector<std::string> force_observability_off() {
    std::vector<std::string> names;
    for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("HTD_OBS", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& name : names) unsetenv(name.c_str());
    obs::Registry& registry = obs::Registry::global();
    registry.configure(obs::SinkKind::kOff);
    registry.set_trace_normalize(false);
    registry.set_resource_attribution(false);
    obs::EventJournal::global().close();
    obs::EventJournal::global().set_normalized(false);
    return names;
}

std::string obs_state() {
    const obs::Registry& registry = obs::Registry::global();
    const std::string journal = obs::EventJournal::global().enabled()
                                    ? obs::EventJournal::global().path()
                                    : std::string("off");
    return "registry=" + obs::sink_kind_name(registry.sink()) + " journal=" + journal;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_line(const std::string& name, double value, const std::string& unit,
                std::size_t n, const std::string& detail = {}) {
    std::printf("  %-26s %14.6g %-8s n=%-7zu %s\n", name.c_str(), value, unit.c_str(), n,
                detail.c_str());
}

std::string tail_label(const Summary& s) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "tail=p%g", s.tail_pct);
    return buf;
}

int run(int argc, char** argv) {
#if defined(__GLIBC__)
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
#endif
    const std::vector<std::string> scrubbed = force_observability_off();

    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value);
            } else if (flag == "--work-dir") {
                args.work_dir = value;
            } else if (flag == "--trace-out") {
                args.trace_out = value;
            } else {
                return usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    const std::optional<Workload> workload = parse_workload(args.workload);
    if (!workload) return usage("unknown or missing --workload");
    if (args.seconds <= 0.0) return usage("--seconds must be positive");
    if (args.trace != 0 && args.trace != 1) return usage("--trace must be 0 or 1");
    if (args.work_dir.empty()) return usage("--work-dir is required");
    if (args.trace == 1 && args.trace_out.empty()) return usage("--trace 1 needs --trace-out");

    std::error_code ec;
    std::filesystem::create_directories(args.work_dir, ec);
    if (ec) return usage(("cannot create --work-dir: " + ec.message()).c_str());

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace);
    std::string scrubbed_list;
    for (const std::string& n : scrubbed) scrubbed_list += " " + n;
    std::printf("obs (untimed runs) %s; scrubbed from environment:%s\n", obs_state().c_str(),
                scrubbed.empty() ? " none" : scrubbed_list.c_str());

    WorkloadRunner runner(*workload, args.seed, args.work_dir);
    bool correct = true;
    htd::io::Json metrics = htd::io::Json::object();
    const auto emit = [&](const std::string& name, double value, const std::string& unit) {
        htd::io::Json m = htd::io::Json::object();
        m.set("value", value);
        m.set("unit", unit);
        metrics.set(name, std::move(m));
    };

    const Summary setup = summarize(runner.setup(kSetupReps));
    if (runner.workload() == Workload::kTriageJournaled) {
        std::printf("obs (workload) %s\n", obs_state().c_str());
    }
    OpTally total = runner.setup_tally();

    if (args.trace == 0) {
        const LoopStats st = runner.run_loop(args.seconds, runner.min_ops());
        total.merge(st.tally);
        const Summary op = summarize(st.op_ms);
        const Summary fv = summarize(st.first_verdict_ms);
        const double chips_per_s =
            st.timed_ms > 0.0 ? static_cast<double>(st.devices) / (st.timed_ms / 1e3) : 0.0;
        const double rss = peak_rss_mb();
        correct = correct && st.op_ms.size() >= runner.min_ops();

        std::printf("end-to-end (%s):\n", args.workload.c_str());
        print_line("setup_s", setup.median, "s", setup.count);
        print_line("peak_rss_mb", rss, "MB", 1);
        print_line("op_p50_ms", op.median, "ms", op.count);
        print_line("op_tail_ms", op.tail, "ms", op.count, tail_label(op));
        print_line("chips_per_s", chips_per_s, "chips/s", st.devices);
        print_line("first_verdict_ms", fv.median, "ms", fv.count);
        const Quality& q = runner.quality();
        char detail[96];
        std::snprintf(detail, sizeof detail, "%zu/%zu over %zu calibration(s)",
                      q.false_rejects, q.trojan_free, q.calibrations);
        print_line("false_reject_rate", q.false_reject_rate(), "ratio", q.trojan_free, detail);
        std::snprintf(detail, sizeof detail, "%zu/%zu over %zu calibration(s)", q.escapes,
                      q.infested, q.calibrations);
        print_line("escape_rate", q.escape_rate(), "ratio", q.infested, detail);
        print_line("error_rate", total.error_rate(), "ratio", total.attempted());

        std::printf("by workload name:\n");
        if (runner.workload() == Workload::kCalibratePaper) {
            print_line("calibrate_p50_ms", op.median, "ms", op.count);
            print_line("calibrate_tail_ms", op.tail, "ms", op.count, tail_label(op));
        } else if (runner.workload() == Workload::kScoreLot) {
            print_line("score_chips_per_s", chips_per_s, "chips/s", st.devices);
            print_line("score_batch_p50_ms", op.median, "ms", op.count,
                       std::to_string(runner.batch_devices()) + "-device batches");
            print_line("score_batch_tail_ms", op.tail, "ms", op.count, tail_label(op));
        } else {
            const Summary ex = summarize(st.explain_ms);
            print_line("triage_chips_per_s", chips_per_s, "chips/s", st.devices);
            print_line("explain_p50_ms", ex.median, "ms", ex.count);
            print_line("explain_tail_ms", ex.tail, "ms", ex.count, tail_label(ex));
        }

        emit("setup_s", setup.median, "s");
        emit("peak_rss_mb", rss, "MB");
        emit("op_p50_ms", op.median, "ms");
        emit("op_tail_ms", op.tail, "ms");
        emit("chips_per_s", chips_per_s, "chips/s");
        emit("first_verdict_ms", fv.median, "ms");
    } else {
        obs::Registry& registry = obs::Registry::global();
        const LoopStats plain = runner.run_loop(args.seconds / 2.0, runner.min_ops());
        total.merge(plain.tally);

        registry.reset();
        registry.configure(obs::SinkKind::kJson);
        runner.begin_traced_pass();
        LoopStats traced;
        std::uint64_t root_id = 0;
        {
            obs::ScopedSpan root("perfbench.run");
            traced = runner.run_loop(0.0, runner.traced_ops());
        }
        const std::vector<obs::SpanRecord> spans = registry.spans();
        const std::map<std::string, double> works = registry.works();
        for (const auto& s : spans) {
            if (s.name == "perfbench.run") root_id = s.id;
        }
        obs::write_trace(args.trace_out, registry);
        const bool dropped = registry.spans_dropped() > 0;
        registry.configure(obs::SinkKind::kOff);
        registry.reset();
        total.merge(traced.tally);

        const std::vector<double> journal = runner.journal_overhead_ms(kJournalRounds);
        LayerInputs in;
        in.ops = traced.op_ms.size();
        in.root_id = root_id;
        in.svm_training_cap = runner.svm_training_cap();
        in.artifact_bytes = runner.artifact_bytes();
        in.json_bytes = traced.json_bytes;
        in.journal_events = traced.journal_events;
        in.journal_bytes = traced.journal_bytes;
        in.journal_overhead_ms = summarize(journal).median;
        const double plain_p50 = summarize(plain.op_ms).median;
        in.trace_overhead_ratio = plain_p50 > 0.0 ? summarize(traced.op_ms).median / plain_p50 : 0.0;

        const LedgerNode ledger = build_ledger(spans, root_id);
        const bool adds_up = ledger_adds_up(ledger, 1e-6 * ledger.wall_ms + 1e-6);
        correct = correct && adds_up && !dropped && traced.op_ms.size() == runner.traced_ops() &&
                  plain.op_ms.size() >= runner.min_ops();

        std::printf("ledger (%s, traced pass, %zu ops, %zu spans):\n%s", args.workload.c_str(),
                    traced.op_ms.size(), spans.size(), render_ledger(ledger, 6).c_str());
        std::printf("self times sum to %.6f ms of %.6f ms root: %s\n", sum_self_ms(ledger),
                    ledger.wall_ms, adds_up ? "ok" : "MISMATCH");
        if (runner.workload() == Workload::kCalibratePaper) {
            std::map<std::string, double> wall_ns;
            for (const auto& sp : spans) wall_ns[sp.name] += static_cast<double>(sp.wall_ns);
            const double cal = std::max(wall_ns["perfbench.calibrate"], 1.0);
            std::printf("calibration wall shares: svm.fit %.1f%% (ROADMAP ~55%%), "
                        "kde.adaptive_sample_n %.1f%% (ROADMAP ~37%%)\n",
                        100.0 * wall_ns["svm.fit"] / cal,
                        100.0 * wall_ns["kde.adaptive_sample_n"] / cal);
        }
        std::printf("trace written to %s\n", args.trace_out.c_str());
        std::printf("per-layer (per operation unless named otherwise):\n");
        for (const Metric& m : per_layer_metrics(spans, works, in)) {
            print_line(m.name, m.value, m.unit, in.ops);
            emit(m.name, m.value, m.unit);
        }
        const Quality& q = runner.quality();
        print_line("pipeline.verdict.escape_rate", q.escape_rate(), "ratio", q.infested);
        print_line("pipeline.verdict.false_reject_rate", q.false_reject_rate(), "ratio",
                   q.trojan_free);
        emit("pipeline.verdict.escape_rate", q.escape_rate(), "ratio");
        emit("pipeline.verdict.false_reject_rate", q.false_reject_rate(), "ratio");
        emit("run.error_rate", total.error_rate(), "ratio");
    }

    correct = correct && total.failed() == 0;
    if (total.parity_mismatches() > 0) {
        std::printf("PARITY MISMATCHES: %zu\n", total.parity_mismatches());
    }

    htd::io::Json result = htd::io::Json::object();
    result.set("correct", correct);
    result.set("attempted", total.attempted());
    result.set("failed", total.failed());
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "htd_perfbench: %s\n", e.what());
        return 1;
    }
}
