#pragma once
/// \file layers.hpp
/// Per-layer metrics of a traced run, read from the spans and `work.*`
/// counters the library already records plus the benchmark's own spans
/// around each public call. Time and count metrics are per timed operation
/// of the workload unless the name says otherwise (`*.record_ms` is per
/// explain record, `pipeline.artifact.bytes` per artifact).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Measurements of the traced loop that do not come from spans.
struct LayerInputs {
    std::size_t ops = 0;              ///< timed operations in the traced loop
    std::uint64_t root_id = 0;        ///< the span enclosing the traced loop
    std::size_t svm_training_cap = 0; ///< OneClassSvm max_training_samples
    double artifact_bytes = 0.0;
    double json_bytes = 0.0;          ///< total over the traced loop
    double journal_events = 0.0;      ///< total over the traced loop
    double journal_bytes = 0.0;       ///< total over the traced loop
    double journal_overhead_ms = 0.0; ///< journaled - plain classify, per batch
    double trace_overhead_ratio = 0.0;
};

/// The per-layer metrics read from spans, counters and `in`; main.cpp adds
/// the verdict rates and `run.error_rate`.
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const std::vector<htd::obs::SpanRecord>& spans,
    const std::map<std::string, double>& works, const LayerInputs& in);

}  // namespace perfbench
