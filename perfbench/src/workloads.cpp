#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "io/csv.hpp"
#include "io/json.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "pipeline/explain.hpp"

namespace perfbench {

namespace {

using namespace htd;
using Clock = std::chrono::steady_clock;

constexpr const char* kTool = "htd_perfbench";

/// Loop guard: a run that cannot reach its minimum operation count by now
/// stops and reports itself incorrect instead of overrunning its budget.
constexpr double kHardStopSeconds = 140.0;

constexpr std::size_t kSpanBudget = obs::Registry::kMaxStoredSpans - 4096;

/// First calibration index of a traced pass: a seed range of its own, past
/// any untraced loop and the calibrations the detection rates pool over.
constexpr std::size_t kTracedCycleOffset = 1'000'000;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double file_bytes(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size);
}

/// The boundary a production verdict comes from in the in-process
/// pipeline: the same highest-usable rule as BoundaryScorer.
std::optional<core::Boundary> pipeline_verdict_boundary(
    const core::GoldenFreePipeline& pipeline) {
    for (auto it = core::kAllBoundaries.rbegin(); it != core::kAllBoundaries.rend();
         ++it) {
        if (pipeline.boundary_ready(*it)) return *it;
    }
    return std::nullopt;
}

std::size_t unusable_boundaries(const core::GoldenFreePipeline& pipeline) {
    return static_cast<std::size_t>(
        std::count_if(core::kAllBoundaries.begin(), core::kAllBoundaries.end(),
                      [&](core::Boundary b) { return !pipeline.boundary_ready(b); }));
}

void report_exception(const char* where, const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", where, e.what());
}

/// One full calibration at the paper's budget, with the same stream
/// discipline as `htd_score calibrate`: one master seed, one split per
/// stochastic stage. Saves the artifact and, when `csv_path` is set, the
/// measured fingerprints.
Calibration calibrate(std::uint64_t seed, std::size_t chips,
                      const std::string& artifact_path, const std::string& csv_path) {
    obs::ScopedSpan span("perfbench.calibrate");
    core::ExperimentConfig config;
    config.seed = seed;
    config.n_chips = chips;
    Calibration cal;
    cal.artifact_path = artifact_path;

    rng::Rng rng(config.seed);
    rng::Rng fab_rng = rng.split();
    {
        obs::ScopedSpan s("perfbench.fabricate_measure");
        cal.devices = core::fabricate_and_measure(config, fab_rng);
    }
    const core::ProcessPair processes = core::make_process_pair(config.process_shift_sigma);
    cal.pipeline = std::make_unique<core::GoldenFreePipeline>(
        config.pipeline, silicon::SpiceSimulator(config.platform, processes.spice));
    rng::Rng sim_rng = rng.split();
    rng::Rng pipe_rng = rng.split();
    {
        obs::ScopedSpan s("perfbench.stage1");
        cal.pipeline->run_premanufacturing(sim_rng);
    }
    {
        obs::ScopedSpan s("perfbench.stage2");
        cal.pipeline->run_silicon_stage(cal.devices.pcms, pipe_rng);
    }
    std::optional<core::BoundaryArtifact> artifact;
    {
        obs::ScopedSpan s("perfbench.artifact.from_pipeline");
        artifact.emplace(core::BoundaryArtifact::from_pipeline(*cal.pipeline, seed, kTool));
    }
    {
        obs::ScopedSpan s("perfbench.artifact.save");
        artifact->save(artifact_path);
    }
    if (!csv_path.empty()) {
        obs::ScopedSpan s("perfbench.csv.write");
        io::write_csv(csv_path, cal.devices.fingerprints);
    }
    return cal;
}

/// The htd.bscores.v1 report `htd_score score` writes: per-boundary health
/// and decision values for one batch.
io::Json bscores_json(const core::BoundaryScorer& scorer,
                      const std::vector<linalg::Vector>& decisions,
                      std::size_t devices) {
    io::Json boundaries = io::Json::object();
    for (const core::Boundary b : core::kAllBoundaries) {
        const core::BoundaryStatus& st = scorer.boundary_status(b);
        io::Json entry = io::Json::object();
        entry.set("health", core::boundary_health_name(st.health));
        entry.set("detail", st.detail);
        const auto& dv = decisions[static_cast<std::size_t>(b)];
        entry.set("scores", scorer.boundary_ready(b) ? io::Json::from(dv) : io::Json());
        boundaries.set(core::boundary_name(b), std::move(entry));
    }
    char seed[17];
    std::snprintf(seed, sizeof seed, "%016llx",
                  static_cast<unsigned long long>(scorer.artifact().provenance().seed));
    io::Json doc = io::Json::object();
    doc.set("schema", "htd.bscores.v1");
    doc.set("seed", std::string(seed));
    doc.set("devices", devices);
    doc.set("boundaries", std::move(boundaries));
    return doc;
}

void count_quality(Quality& q, const std::vector<bool>& inside,
                   const std::vector<ml::DeviceLabel>& labels) {
    for (std::size_t i = 0; i < inside.size(); ++i) {
        if (labels[i] == ml::DeviceLabel::kTrojanFree) {
            ++q.trojan_free;
            q.false_rejects += inside[i] ? 0 : 1;
        } else {
            ++q.infested;
            q.escapes += inside[i] ? 1 : 0;
        }
    }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
    if (name == "calibrate_paper") return Workload::kCalibratePaper;
    if (name == "score_lot") return Workload::kScoreLot;
    if (name == "triage_journaled") return Workload::kTriageJournaled;
    return std::nullopt;
}

double Quality::escape_rate() const noexcept {
    return infested == 0 ? 0.0
                         : static_cast<double>(escapes) / static_cast<double>(infested);
}

double Quality::false_reject_rate() const noexcept {
    return trojan_free == 0 ? 0.0
                            : static_cast<double>(false_rejects) /
                                  static_cast<double>(trojan_free);
}

WorkloadRunner::WorkloadRunner(Workload workload, std::uint64_t seed, std::string work_dir)
    : workload_(workload),
      seed_(seed),
      work_dir_(std::move(work_dir)),
      journal_path_(work_dir_ + "/journal.jsonl") {}

std::size_t WorkloadRunner::min_ops() const noexcept {
    return workload_ == Workload::kCalibratePaper ? kQualityCalibrations : 20;
}

std::size_t WorkloadRunner::traced_ops() const noexcept {
    // About 15 s each at the time of writing.
    switch (workload_) {
        case Workload::kCalibratePaper: return 32;
        case Workload::kScoreLot: return 40;
        case Workload::kTriageJournaled: return 32;
    }
    return 0;
}

void WorkloadRunner::begin_traced_pass() {
    cycles_ = kTracedCycleOffset;
    next_batch_ = 0;
    scorer_.reset();
}

std::size_t WorkloadRunner::lot_chips() const noexcept {
    switch (workload_) {
        case Workload::kCalibratePaper: return kPaperChips;
        case Workload::kScoreLot: return kScoreLotChips;
        case Workload::kTriageJournaled: return kTriageLotChips;
    }
    return 0;
}

std::size_t WorkloadRunner::batch_devices() const noexcept {
    switch (workload_) {
        case Workload::kCalibratePaper: return 0;
        case Workload::kScoreLot: return 3 * kScoreLotChips;
        case Workload::kTriageJournaled: return kTriageBatchDevices;
    }
    return 0;
}

std::size_t WorkloadRunner::svm_training_cap() const noexcept {
    return core::PipelineConfig{}.svm.max_training_samples;
}

std::uint64_t WorkloadRunner::cycle_seed(std::size_t index) const noexcept {
    return splitmix64(seed_ + 0x9E3779B97F4A7C15ULL * (index + 1));
}

std::vector<double> WorkloadRunner::setup(std::size_t reps) {
    const bool paper = workload_ == Workload::kCalibratePaper;
    const std::string artifact = work_dir_ + "/lot.boundary.json";
    std::vector<double> seconds;
    std::string first_bytes;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        OpProblems problems;
        const Clock::time_point start = Clock::now();
        try {
            lot_ = calibrate(cycle_seed(0), lot_chips(), artifact,
                             paper ? work_dir_ + "/lot.fingerprints.csv" : "");
            if (!paper) {
                const linalg::Matrix& fp = lot_->devices.fingerprints;
                batch_paths_.clear();
                const std::size_t size = batch_devices();
                for (std::size_t row = 0, k = 0; row < fp.rows(); row += size, ++k) {
                    std::vector<std::size_t> rows;
                    for (std::size_t r = row; r < std::min(row + size, fp.rows()); ++r) {
                        rows.push_back(r);
                    }
                    batch_paths_.push_back(work_dir_ + "/batch_" + std::to_string(k) + ".csv");
                    io::write_csv(batch_paths_.back(), lot_->devices.fingerprints_at(rows));
                }
            }
            seconds.push_back(ms_since(start) / 1e3);
            problems.unusable_boundaries += unusable_boundaries(*lot_->pipeline);
            const std::string bytes = read_file(artifact);
            if (rep == 0) first_bytes = bytes;
            problems.parity_mismatches += bytes == first_bytes ? 0 : 1;
            artifact_bytes_ = static_cast<double>(bytes.size());
        } catch (const std::exception& e) {
            report_exception("setup", e);
            ++problems.exceptions;
        }
        setup_tally_.record(problems);
    }
    if (paper) lot_.reset();  // each calibration cycle builds its own lot
    if (!lot_) return seconds;

    // In-process references the artifact path must reproduce bit for bit.
    const core::GoldenFreePipeline& pipeline = *lot_->pipeline;
    const linalg::Matrix& fp = lot_->devices.fingerprints;
    ref_decisions_.assign(core::kAllBoundaries.size(), linalg::Vector());
    for (const core::Boundary b : core::kAllBoundaries) {
        if (pipeline.boundary_ready(b)) {
            ref_decisions_[static_cast<std::size_t>(b)] = pipeline.decision_values(b, fp);
        }
    }
    const std::optional<core::Boundary> vb = pipeline_verdict_boundary(pipeline);
    if (vb) {
        ref_verdict_ = *vb;
        ref_inside_ = pipeline.classify(*vb, fp);
        count_quality(quality_, ref_inside_, lot_->devices.labels());
        quality_.calibrations = 1;
    }
    batches_.clear();
    for (const std::string& path : batch_paths_) batches_.push_back(io::read_csv(path));
    inprocess_scorer_.emplace(core::BoundaryArtifact::from_pipeline(pipeline, cycle_seed(0), kTool));
    if (workload_ == Workload::kTriageJournaled) {
        std::filesystem::remove(journal_path_);
        obs::EventJournal::global().open(journal_path_);
    }
    return seconds;
}

LoopStats WorkloadRunner::run_loop(double seconds, std::size_t min_ops) {
    LoopStats st;
    if (workload_ != Workload::kCalibratePaper && !lot_) return st;  // set-up failed
    const Clock::time_point start = Clock::now();
    while (true) {
        const double elapsed = ms_since(start) / 1e3;
        if (elapsed >= kHardStopSeconds) break;
        if (elapsed >= seconds && st.op_ms.size() >= min_ops) break;
        // A traced loop stops before the registry's span store fills up.
        const htd::obs::Registry& registry = htd::obs::Registry::global();
        if (registry.enabled() && registry.span_count() >= kSpanBudget) break;
        if (workload_ == Workload::kCalibratePaper) {
            calibrate_cycle(st);
        } else {
            score_batch(st);
        }
    }
    return st;
}

void WorkloadRunner::calibrate_cycle(LoopStats& st) {
    const std::size_t index = cycles_++;
    const std::string artifact = work_dir_ + "/cycle.boundary.json";
    const std::string csv = work_dir_ + "/cycle.fingerprints.csv";
    OpProblems problems;

    std::optional<Calibration> cal;
    const Clock::time_point start = Clock::now();
    try {
        cal = calibrate(cycle_seed(index + 1), kPaperChips, artifact, csv);
    } catch (const std::exception& e) {
        report_exception("calibration", e);
        ++problems.exceptions;
    }
    const double calibrate_ms = ms_since(start);
    st.op_ms.push_back(calibrate_ms);
    st.timed_ms += calibrate_ms;

    if (cal) {
        st.devices += cal->devices.size();
        try {
            std::optional<core::BoundaryScorer> scorer;
            linalg::Matrix fp;
            std::optional<core::Boundary> vb;
            std::vector<bool> inside;
            const Clock::time_point fv_start = Clock::now();
            {
                obs::ScopedSpan span("perfbench.first_verdict");
                {
                    obs::ScopedSpan s("perfbench.artifact.load");
                    scorer.emplace(core::BoundaryArtifact::load(artifact));
                }
                {
                    obs::ScopedSpan s("perfbench.csv.read");
                    fp = io::read_csv(csv);
                }
                vb = scorer->verdict_boundary();
                if (vb) {
                    obs::ScopedSpan s("perfbench.classify");
                    inside = scorer->classify(*vb, fp);
                }
            }
            const double fv_ms = ms_since(fv_start);
            st.first_verdict_ms.push_back(fv_ms);
            st.timed_ms += fv_ms;

            obs::ScopedSpan verify("perfbench.verify");
            const core::GoldenFreePipeline& pipeline = *cal->pipeline;
            problems.unusable_boundaries += unusable_boundaries(pipeline);
            if (!vb) {
                ++problems.unusable_boundaries;
            } else {
                if (pipeline_verdict_boundary(pipeline) != vb) ++problems.parity_mismatches;
                const std::vector<bool> ref = pipeline.classify(*vb, cal->devices.fingerprints);
                if (ref != inside) ++problems.parity_mismatches;
                for (const core::Boundary b : core::kAllBoundaries) {
                    if (!pipeline.boundary_ready(b) || !scorer->boundary_ready(b)) continue;
                    if (!same_bits(pipeline.decision_values(b, cal->devices.fingerprints),
                                   scorer->decision_values(b, fp))) {
                        ++problems.parity_mismatches;
                    }
                }
                if (index < kQualityCalibrations) {
                    count_quality(quality_, inside, cal->devices.labels());
                    ++quality_.calibrations;
                }
            }
        } catch (const std::exception& e) {
            report_exception("first verdict", e);
            ++problems.exceptions;
        }
    }
    st.tally.record(problems);
}

void WorkloadRunner::open_lot_artifact(LoopStats& st) {
    const Clock::time_point start = Clock::now();
    scorer_.reset();
    {
        obs::ScopedSpan s("perfbench.artifact.load");
        scorer_.emplace(core::BoundaryArtifact::load(lot_->artifact_path));
    }
    pending_load_ms_ = ms_since(start);
    st.timed_ms += pending_load_ms_;
}

const std::string& WorkloadRunner::explain_reference(std::size_t device) {
    auto it = explain_refs_.find(device);
    if (it == explain_refs_.end()) {
        const std::string record =
            inprocess_scorer_
                ->explain(lot_->devices.fingerprints.row(device), std::to_string(device))
                .to_json()
                .dump();
        it = explain_refs_.emplace(device, record).first;
    }
    return it->second;
}

void WorkloadRunner::score_batch(LoopStats& st) {
    const bool triage = workload_ == Workload::kTriageJournaled;
    OpProblems problems;
    const std::size_t batch = next_batch_;
    next_batch_ = (next_batch_ + 1) % batch_paths_.size();
    const std::size_t first_row = batch * batch_devices();
    obs::EventJournal& journal = obs::EventJournal::global();

    try {
        if (batch == 0 || !scorer_) open_lot_artifact(st);
        const std::optional<core::Boundary> vb = scorer_->verdict_boundary();

        linalg::Matrix fp;
        std::vector<linalg::Vector> decisions(core::kAllBoundaries.size());
        std::vector<bool> inside;
        std::vector<std::size_t> explained;
        io::Json explain_records = io::Json::array();
        double read_ms = 0.0;
        double classify_ms = 0.0;
        const std::uint64_t seq_before = triage ? journal.sequence() : 0;
        const double journal_bytes_before = triage ? file_bytes(journal_path_) : 0.0;

        const Clock::time_point start = Clock::now();
        {
            obs::ScopedSpan op(triage ? "perfbench.triage_batch" : "perfbench.score_batch");
            Clock::time_point t = Clock::now();
            {
                obs::ScopedSpan s("perfbench.csv.read");
                fp = io::read_csv(batch_paths_[batch]);
            }
            read_ms = ms_since(t);
            {
                obs::ScopedSpan s("perfbench.decision_values");
                for (const core::Boundary b : core::kAllBoundaries) {
                    if (scorer_->boundary_ready(b)) {
                        decisions[static_cast<std::size_t>(b)] = scorer_->decision_values(b, fp);
                    } else {
                        ++problems.unusable_boundaries;
                    }
                }
            }
            if (vb) {
                t = Clock::now();
                obs::ScopedSpan s("perfbench.classify");
                inside = scorer_->classify(*vb, fp);
                classify_ms = ms_since(t);
            } else {
                ++problems.unusable_boundaries;
            }
            if (triage) {
                for (std::size_t r = 0; r < inside.size(); ++r) {
                    if (inside[r]) continue;
                    const Clock::time_point e = Clock::now();
                    obs::ScopedSpan s("perfbench.explain");
                    explain_records.push_back(
                        scorer_->explain(fp.row(r), std::to_string(first_row + r)).to_json());
                    explained.push_back(first_row + r);
                    st.explain_ms.push_back(ms_since(e));
                }
            }
            {
                obs::ScopedSpan s("perfbench.json.dump");
                bscores_json(*scorer_, decisions, fp.rows())
                    .dump_to_file(work_dir_ + "/bscores.json");
                if (triage) {
                    io::Json doc = io::Json::object();
                    doc.set("schema", std::string(core::kExplainSchema));
                    doc.set("devices", fp.rows());
                    doc.set("records", std::move(explain_records));
                    doc.dump_to_file(work_dir_ + "/explain.json");
                }
            }
        }
        const double op_ms = ms_since(start);
        st.op_ms.push_back(op_ms);
        st.timed_ms += op_ms;
        st.devices += fp.rows();
        if (batch == 0) st.first_verdict_ms.push_back(pending_load_ms_ + read_ms + classify_ms);

        obs::ScopedSpan verify("perfbench.verify");
        st.json_bytes += file_bytes(work_dir_ + "/bscores.json");
        if (triage) {
            st.json_bytes += file_bytes(work_dir_ + "/explain.json");
            st.journal_events += static_cast<double>(journal.sequence() - seq_before);
            st.journal_bytes += file_bytes(journal_path_) - journal_bytes_before;
        }
        if (vb != ref_verdict_) ++problems.parity_mismatches;
        const std::size_t rows = fp.rows();
        if (inside.size() != rows || first_row + rows > ref_inside_.size()) {
            ++problems.parity_mismatches;  // not the lot slice it was written from
        } else {
            const auto offset = static_cast<std::ptrdiff_t>(first_row);
            if (!std::equal(inside.begin(), inside.end(), ref_inside_.begin() + offset)) {
                ++problems.parity_mismatches;
            }
            for (const core::Boundary b : core::kAllBoundaries) {
                const auto i = static_cast<std::size_t>(b);
                if (ref_decisions_[i].size() == 0 || decisions[i].size() != rows) continue;
                linalg::Vector ref(rows);
                std::copy_n(ref_decisions_[i].begin() + offset, rows, ref.begin());
                if (!same_bits(ref, decisions[i])) ++problems.parity_mismatches;
            }
        }
        if (triage) {
            // Compare what reached the file, not just what was built.
            const io::Json written = io::Json::parse_file(work_dir_ + "/explain.json");
            const io::Json& records = written.at("records");
            if (records.size() != explained.size()) ++problems.parity_mismatches;
            for (std::size_t k = 0; k < std::min(explained.size(), records.size()); ++k) {
                if (records.at(k).dump() != explain_reference(explained[k])) {
                    ++problems.parity_mismatches;
                }
            }
        }
    } catch (const std::exception& e) {
        report_exception("scoring batch", e);
        ++problems.exceptions;
    }
    st.tally.record(problems);
}

std::vector<double> WorkloadRunner::journal_overhead_ms(std::size_t rounds) {
    std::vector<double> out;
    if (workload_ != Workload::kTriageJournaled || !lot_) return out;
    obs::EventJournal& journal = obs::EventJournal::global();
    const core::BoundaryScorer scorer(core::BoundaryArtifact::load(lot_->artifact_path));
    const core::Boundary vb = scorer.verdict_boundary().value();
    for (std::size_t round = 0; round < rounds; ++round) {
        for (const linalg::Matrix& fp : batches_) {
            Clock::time_point t = Clock::now();
            std::vector<bool> journaled = scorer.classify(vb, fp);
            const double journaled_ms = ms_since(t);
            journal.close();
            t = Clock::now();
            std::vector<bool> plain = scorer.classify(vb, fp);
            const double plain_ms = ms_since(t);
            journal.open(journal_path_);
            if (journaled != plain) {
                throw std::runtime_error("journaled and plain verdicts differ");
            }
            out.push_back(journaled_ms - plain_ms);
        }
    }
    return out;
}

}  // namespace perfbench
