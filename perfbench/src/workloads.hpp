#pragma once
/// \file workloads.hpp
/// The three benchmark workloads. Each drives the public API of the
/// library modules from outside, in one thread, as a closed loop with a
/// single caller: the next operation starts when the previous one returns.
///
///   calibrate_paper   repeated paper-scale calibrations (40 chips x 3
///                     versions, n = 100 Monte Carlo devices, M' = 1e5),
///                     each saved as an artifact and re-loaded for its
///                     first verdict
///   score_lot         the `htd_score score` path: a 6000-chip lot scored
///                     against the lot's own artifact
///   triage_journaled  the same scoring on a 1000-chip lot in 500-device
///                     batches with the decision journal on and an
///                     htd.explain.v1 record for every flagged device
///
/// Every workload checks its outputs against the in-process pipeline
/// (DESIGN.md §14 parity) and counts what fails.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/scorer.hpp"

namespace perfbench {

enum class Workload { kCalibratePaper, kScoreLot, kTriageJournaled };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Chips in the score_lot lot (3 devices each), scored as one batch. On a
/// shared VM, operations of tens of milliseconds put the tail percentile
/// (the 11th-slowest of hundreds) wherever the machine's slow phases fell;
/// a batch of a few hundred milliseconds keeps it near p90.
inline constexpr std::size_t kScoreLotChips = 6000;

/// Chips in the triage_journaled lot and devices per batch there, where
/// explaining the flagged devices makes a device about 50x more expensive.
inline constexpr std::size_t kTriageLotChips = 1000;
inline constexpr std::size_t kTriageBatchDevices = 500;

/// Chips per calibration on calibrate_paper (the paper's 40 x 3).
inline constexpr std::size_t kPaperChips = 40;

/// Calibrations the detection rates of calibrate_paper are pooled over. The
/// loop always runs at least this many, so the rates depend on the seed
/// alone.
inline constexpr std::size_t kQualityCalibrations = 24;

/// What one timed loop measured. Every `*_ms` series holds one sample per
/// timed operation of that kind.
struct LoopStats {
    std::vector<double> op_ms;             ///< the workload's unit operation
    std::vector<double> first_verdict_ms;  ///< load + validate + first batch verdicts
    std::vector<double> explain_ms;        ///< one htd.explain.v1 record
    double timed_ms = 0.0;                 ///< all timed segments together
    std::size_t devices = 0;               ///< devices the timed segments handled
    double json_bytes = 0.0;               ///< bytes of bscores/explain JSON written
    double journal_events = 0.0;           ///< journal records appended
    double journal_bytes = 0.0;            ///< journal bytes appended
    OpTally tally;
};

/// Verdict-boundary detection counts (paper: FP = escapes, FN = false
/// rejects).
struct Quality {
    std::size_t escapes = 0;        ///< Trojan-infested devices accepted
    std::size_t infested = 0;
    std::size_t false_rejects = 0;  ///< Trojan-free devices rejected
    std::size_t trojan_free = 0;
    std::size_t calibrations = 0;   ///< calibrations the counts pool over
    [[nodiscard]] double escape_rate() const noexcept;
    [[nodiscard]] double false_reject_rate() const noexcept;
};

/// One calibrated lot: the fabricated devices, the in-process pipeline
/// and the artifact it was saved to.
struct Calibration {
    htd::silicon::DuttDataset devices;
    std::unique_ptr<htd::core::GoldenFreePipeline> pipeline;
    std::string artifact_path;
};

class WorkloadRunner {
public:
    /// `work_dir` receives the artifact, fingerprint batches, reports and
    /// journal; it must exist and is not cleaned here.
    WorkloadRunner(Workload workload, std::uint64_t seed, std::string work_dir);

    /// Build the workload's reference lot and artifact `reps` times (the
    /// same seed each time; the artifacts must be byte-identical). Returns
    /// the wall seconds of each repetition.
    [[nodiscard]] std::vector<double> setup(std::size_t reps);

    /// Run operations until `seconds` have passed and at least `min_ops`
    /// operations completed.
    [[nodiscard]] LoopStats run_loop(double seconds, std::size_t min_ops);

    /// Restart the operation sequence for a traced pass: calibrations from a
    /// fixed seed range, scoring from the first batch with a fresh artifact
    /// load. Two traced passes of the same seed then do identical work.
    void begin_traced_pass();

    /// triage_journaled: journaled minus plain `classify` of the same
    /// batch, ms, over `rounds` passes of the lot. Empty elsewhere.
    [[nodiscard]] std::vector<double> journal_overhead_ms(std::size_t rounds);

    /// Minimum operations a loop must run for this workload.
    [[nodiscard]] std::size_t min_ops() const noexcept;

    /// Operations of a traced pass: a fixed count, so traces of two builds
    /// compare like for like.
    [[nodiscard]] std::size_t traced_ops() const noexcept;

    /// Chips in the workload's lot.
    [[nodiscard]] std::size_t lot_chips() const noexcept;

    /// Devices per scoring batch (0 on calibrate_paper).
    [[nodiscard]] std::size_t batch_devices() const noexcept;

    [[nodiscard]] Workload workload() const noexcept { return workload_; }
    [[nodiscard]] const Quality& quality() const noexcept { return quality_; }
    [[nodiscard]] const OpTally& setup_tally() const noexcept { return setup_tally_; }
    /// Size of the reference artifact written by setup(), bytes.
    [[nodiscard]] double artifact_bytes() const noexcept { return artifact_bytes_; }
    /// Cap on SVM training rows (subsample size) of the calibration config.
    [[nodiscard]] std::size_t svm_training_cap() const noexcept;

private:
    void calibrate_cycle(LoopStats& st);
    void score_batch(LoopStats& st);
    void open_lot_artifact(LoopStats& st);
    [[nodiscard]] std::uint64_t cycle_seed(std::size_t index) const noexcept;
    [[nodiscard]] const std::string& explain_reference(std::size_t device);

    Workload workload_;
    std::uint64_t seed_;
    std::string work_dir_;
    std::string journal_path_;

    // Reference lot (setup) and what the in-process pipeline says about it.
    std::optional<Calibration> lot_;
    std::vector<std::string> batch_paths_;
    std::vector<htd::linalg::Matrix> batches_;
    std::vector<htd::linalg::Vector> ref_decisions_;  ///< per boundary, whole lot
    std::vector<bool> ref_inside_;                    ///< verdict boundary
    htd::core::Boundary ref_verdict_ = htd::core::Boundary::kB5;
    std::optional<htd::core::BoundaryScorer> inprocess_scorer_;
    std::map<std::size_t, std::string> explain_refs_;

    // Scoring loop position: the loaded scorer, the next batch, and the
    // load time the next first verdict includes.
    std::optional<htd::core::BoundaryScorer> scorer_;
    std::size_t next_batch_ = 0;
    double pending_load_ms_ = 0.0;

    std::size_t cycles_ = 0;  ///< calibrate_paper calibrations started
    Quality quality_;
    OpTally setup_tally_;
    double artifact_bytes_ = 0.0;
};

}  // namespace perfbench
