#pragma once
/// \file experiment.hpp
/// End-to-end experiment driver reproducing the paper's evaluation: build
/// the silicon process and the stale Spice model, fabricate and measure the
/// 40 x 3 DUTT population, run the golden-free pipeline, and score every
/// boundary — i.e. regenerate Table 1 (and the populations behind Fig. 4).

#include <array>
#include <cstdint>
#include <memory>

#include "pipeline/pipeline.hpp"
#include "process/variation_model.hpp"
#include "silicon/bench_measure.hpp"
#include "silicon/fab.hpp"
#include "silicon/platform.hpp"

namespace htd::core {

/// Everything needed to run one full experiment.
struct ExperimentConfig {
    /// Master seed; every stochastic stage derives an independent stream.
    std::uint64_t seed = 0xda14'5eedULL;

    /// Fabricated chips (each hosting 3 design versions -> 3x devices).
    std::size_t n_chips = 40;

    /// Platform (key, blocks, Trojan strengths, analog models).
    silicon::PlatformConfig platform = silicon::PlatformConfig::paper_default();

    /// Foundry drift relative to the Spice model, in sigmas along the slow
    /// corner (see ProcessShift::slow_corner). This is the discrepancy that
    /// defeats boundaries B1/B2.
    double process_shift_sigma = 4.5;

    /// Fabrication options (wafer count, within-die mismatch).
    silicon::Fab::Options fab{};

    /// Detection pipeline options.
    PipelineConfig pipeline{};
};

/// Outputs of one full experiment run.
struct ExperimentResult {
    /// Measured DUTT population (fingerprints, PCMs, ground truth).
    silicon::DuttDataset measured;

    /// Table 1: FP/FN of B1..B5 in pipeline order.
    std::array<ml::DetectionMetrics, 5> table1;

    /// The golden-chip baseline of [12] (Fig. 1) on the same population.
    ml::DetectionMetrics golden_baseline;

    /// Mean training R^2 of the MARS regression bank (diagnostic).
    double mars_mean_r2 = 0.0;

    /// Kernel-mean-shift iterations used by the calibration stage.
    std::size_t calibration_iterations = 0;
};

/// A measured lot and the pipeline calibrated on it (stages 1 and 2 run).
struct Calibration {
    silicon::DuttDataset devices;
    /// Held by pointer: the pipeline's HealthMonitor owns a mutex, so the
    /// pipeline cannot move.
    std::unique_ptr<GoldenFreePipeline> pipeline;
};

/// Fabricate and measure the lot, then run stages 1 and 2 on its PCMs. The
/// master seed splits into the fab, sim and pipe streams in that order;
/// every caller that goes through here (run_experiment, htd_score
/// calibrate, quickstart) gets bit-identical boundaries for one seed.
/// Opens no span of its own.
[[nodiscard]] Calibration calibrate(const ExperimentConfig& config);

/// Stage 3 over a calibrated lot: Table 1 for B1..B5, the golden-chip
/// baseline fitted on the lot's Trojan-free devices, and the calibration
/// diagnostics.
[[nodiscard]] ExperimentResult score_calibration(const Calibration& cal);

/// Run the full experiment: score_calibration(calibrate(config)). This is
/// the programmatic equivalent of the paper's Section 3 and the engine
/// behind bench_table1.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Construct the pieces individually (exposed for custom studies):

/// The silicon process = default 350 nm model; the Spice model = the same
/// process shifted *back* by the foundry drift (the foundry moved forward).
struct ProcessPair {
    process::ProcessVariationModel silicon;
    process::ProcessVariationModel spice;
};
[[nodiscard]] ProcessPair make_process_pair(double process_shift_sigma);

/// Fabricate and measure the DUTT population for a config.
[[nodiscard]] silicon::DuttDataset fabricate_and_measure(const ExperimentConfig& config,
                                                         rng::Rng& rng);

}  // namespace htd::core
