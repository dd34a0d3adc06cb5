#include "pipeline/artifact.hpp"

#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/journal.hpp"
#include "obs/obs.hpp"

namespace htd::core {

namespace {

std::size_t index_of(Boundary b) { return static_cast<std::size_t>(b); }

std::string hex_u64(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/// Parses up to 16 lowercase hex digits into `out`; returns why the text is
/// not that, or nullptr.
const char* parse_hex_u64(const std::string& s, std::uint64_t& out) {
    if (s.empty() || s.size() > 16) return "expected up to 16 hex digits";
    out = 0;
    for (const char c : s) {
        out <<= 4;
        if (c >= '0' && c <= '9') {
            out |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            out |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return "invalid hex digit";
        }
    }
    return nullptr;
}

/// One name table per persisted enum, read by the encoder (value -> name)
/// and by the decoder (name -> value, "unknown <noun> '<name>'" on a miss).
template <class E>
struct EnumNames {
    const char* noun;
    std::span<const std::pair<E, std::string_view>> names;
};

constexpr std::pair<stats::KernelType, std::string_view> kKernelNames[] = {
    {stats::KernelType::kEpanechnikov, "epanechnikov"},
    {stats::KernelType::kGaussian, "gaussian"}};

EnumNames<stats::KernelType> enum_names(stats::KernelType) {
    return {"kernel type", kKernelNames};
}
EnumNames<TailModel> enum_names(TailModel) { return {"tail model", kTailModelNames}; }
EnumNames<BoundaryHealth> enum_names(BoundaryHealth) {
    return {"boundary health", kBoundaryHealthNames};
}

/// A 64-bit value persisted as 16 hex digits (a JSON number cannot hold it).
template <class U>
struct Hex {
    U& value;
};

/// A double persisted as null when it is not finite and read back as NaN.
template <class D>
struct NullIfNotFinite {
    D& value;
};

// --- one field list per persisted struct -----------------------------------
//
// `fields(v, obj)` names each JSON key and member once: a persisted field is
// one line in one list, and since the Encoder and the Decoder below both run
// over that list, encode and decode cannot disagree. In a list,
//   v.context(label[, naming])  labels this struct's decode errors;
//   v(key, member[, when])      is one field: when `when` is false the
//                               encoder writes null and the decoder
//                               requires the key but skips its value.
// io::Json objects keep their members sorted, so list order only sets the
// order in which the decoder checks fields.

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// What a decode error names: "<context>.<key>", the context, or the key.
enum class Naming { kQualified, kContext, kKey };

void fields(auto& v, Is<ml::OneClassSvm::Options> auto& o) {
    v.context("svm.opts");
    v("nu", o.nu);
    v("gamma", o.gamma);
    v("gamma_scale", o.gamma_scale);
    v("tolerance", o.tolerance);
    v("max_iterations", o.max_iterations);
    v("max_training_samples", o.max_training_samples);
    v("subsample_seed", Hex{o.subsample_seed});
    v("whiten", o.whiten);
    v("whiten_floor", o.whiten_floor);
}

void fields(auto& v, Is<ml::OneClassSvm::State> auto& s) {
    v.context("svm");
    v("opts", s.opts);
    v("fitted", s.fitted);
    v("input_mean", s.input_mean);
    v("input_transform", s.input_transform);
    v("support_vectors", s.support_vectors);
    v("alpha", s.alpha);
    v("rho", s.rho);
    v("gamma", s.gamma);
    v("iterations", s.iterations);
}

void fields(auto& v, Is<ml::Mars::Options> auto& o) {
    v.context("mars.opts");
    v("max_terms", o.max_terms);
    v("max_degree", o.max_degree);
    v("penalty", o.penalty);
    v("prune", o.prune);
    v("max_knots_per_variable", o.max_knots_per_variable);
    v("min_relative_improvement", o.min_relative_improvement);
}

void fields(auto& v, Is<ml::HingeFactor> auto& f) {
    v.context("mars.factor", Naming::kContext);
    v("variable", f.variable);
    v("knot", f.knot);
    v("positive", f.positive);
}

void fields(auto& v, Is<ml::Mars::State> auto& s) {
    v.context("mars");
    v("opts", s.opts);
    v("fitted", s.fitted);
    v("input_dim", s.input_dim);
    v("terms", s.terms);  // a term is persisted as the array of its factors
    v("coef", s.coef);
    v("gcv", s.gcv);
    v("r2", s.r2);
}

void fields(auto& v, Is<ml::MarsBank::State> auto& s) {
    v.context("mars");
    v("opts", s.opts);
    v("models", s.models);
}

void fields(auto& v, Is<stats::Kde::State> auto& s) {
    v.context("kde.pilot");
    v("std_data", s.std_data);
    v("col_mean", s.col_mean);
    v("col_scale", s.col_scale);
    v("h", s.h);
    v("jacobian", s.jacobian);
    v("kernel", s.kernel);
}

void fields(auto& v, Is<stats::AdaptiveKde::State> auto& s) {
    v.context("kde");
    v("pilot", s.pilot);
    v("alpha", s.alpha);
    v("g", s.g);
    v("lambda", s.lambda);
}

void fields(auto& v, Is<ArtifactKmmRecord> auto& k) {
    v.context("kmm");
    v("present", k.present);
    v("weights", k.weights, k.present);
    v("total_shift", k.total_shift, k.present);
    v("iterations", k.iterations);
    v("effective_sample_size", NullIfNotFinite{k.effective_sample_size});
    v("fallback_applied", k.fallback_applied);
}

void fields(auto& v, Is<ArtifactProvenance> auto& p) {
    v.context("provenance");
    v("seed", Hex{p.seed});
    v("config_hash", p.config_hash);
    v("tool", p.tool);
}

/// One entry of the status section; `boundary` must name its slot.
struct StatusEntry {
    std::string boundary;
    BoundaryStatus status;
};

void fields(auto& v, Is<StatusEntry> auto& e) {
    v.context("status");
    v("boundary", e.boundary);
    v("health", e.status.health);
    v("detail", e.status.detail);
}

/// The kde section, over the artifact's own S2/S5 tail-estimator states
/// (null under the EVT tail model).
template <class Opt>
struct KdeTails {
    Opt& s2;
    Opt& s5;
};

template <class Opt>
void fields(auto& v, const KdeTails<Opt>& k) {
    v.context("kde");
    v("s2", k.s2);
    v("s5", k.s5);
}

/// One boundary.Bk section. Only a boundary its status calls usable has its
/// SVM read; the others persist a null model.
struct BoundaryEntry {
    std::string section;  ///< "boundary.Bk"; not persisted
    bool usable = false;  ///< from the status section; not persisted
    std::size_t fingerprint_dim = 0;
    std::optional<ml::OneClassSvm::State> svm;
};

void fields(auto& v, Is<BoundaryEntry> auto& e) {
    v.context(e.section.c_str(), Naming::kKey);
    v("fingerprint_dim", e.fingerprint_dim);
    v("svm", e.svm, e.usable);
}

// The canonical config is only ever encoded: the artifact stores the config
// document verbatim and checks its fingerprint.

void fields(auto& v, Is<ml::KernelMeanMatching::Options> auto& o) {
    v("weight_bound", o.weight_bound);
    v("epsilon", o.epsilon);
    v("gamma", o.gamma);
    v("max_iterations", o.max_iterations);
    v("tolerance", o.tolerance);
}

void fields(auto& v, Is<ml::KernelMeanShiftCalibrator::Options> auto& o) {
    v("kmm", o.kmm);
    v("max_shift_iterations", o.max_shift_iterations);
    v("shift_tolerance", o.shift_tolerance);
}

void fields(auto& v, Is<PipelineConfig> auto& c) {
    v("monte_carlo_samples", c.monte_carlo_samples);
    v("synthetic_samples", c.synthetic_samples);
    v("kde_alpha", c.kde_alpha);
    v("kde_bandwidth", c.kde_bandwidth);
    v("kde_max_lambda", c.kde_max_lambda);
    v("kde_kernel", c.kde_kernel);
    v("tail_model", c.tail_model);
    v("evt_tail_fraction", c.evt_tail_fraction);
    v("log_transform_pcm", c.log_transform_pcm);
    v("mars", c.mars);
    v("svm", c.svm);
    v("calibration", c.calibration);
    v("kmm_min_effective_sample_size", c.kmm_min_effective_sample_size);
    v("kmm_fallback_to_b3", c.kmm_fallback_to_b3);
}

// --- the two visitors -------------------------------------------------------

class Encoder {
public:
    void context(const char* /*label*/, Naming /*naming*/ = Naming::kQualified) {}

    template <class T>
    void operator()(const char* key, const T& field, bool when = true) {
        out_.set(key, when ? encode(field) : io::Json());
    }

    static io::Json encode(double v) { return v; }
    static io::Json encode(bool v) { return v; }
    static io::Json encode(std::size_t v) { return v; }
    static io::Json encode(const std::string& v) { return v; }
    static io::Json encode(const linalg::Vector& v) { return io::Json::from(v); }
    static io::Json encode(const linalg::Matrix& m) { return io::Json::from(m); }
    static io::Json encode(const ml::BasisTerm& t) { return encode(t.factors); }
    template <class U>
    static io::Json encode(const Hex<U>& h) { return hex_u64(h.value); }
    template <class D>
    static io::Json encode(const NullIfNotFinite<D>& d) {
        return std::isfinite(d.value) ? io::Json(d.value) : io::Json();
    }
    template <class T>
    static io::Json encode(const std::optional<T>& o) {
        return o.has_value() ? encode(*o) : io::Json();
    }

    template <class E>
        requires std::is_enum_v<E>
    static io::Json encode(const E& e) {
        for (const auto& [value, name] : enum_names(e).names) {
            if (value == e) return std::string(name);
        }
        throw std::invalid_argument(std::string("unknown ") + enum_names(e).noun);
    }

    template <class T>
    static io::Json encode(const std::vector<T>& items) {
        io::Json out = io::Json::array();
        for (const T& item : items) out.push_back(encode(item));
        return out;
    }

    /// Any struct with a field list.
    template <class T>
    static io::Json encode(const T& s) {
        Encoder e;
        fields(e, s);
        return std::move(e.out_);
    }

private:
    io::Json out_ = io::Json::object();
};

/// Where a decoded value sits, rendered only when a check fails: a clean
/// decode builds no path string.
struct Path {
    const char* context = "";
    const char* key = "";
    Naming naming = Naming::kContext;

    [[nodiscard]] std::string str() const {
        if (naming == Naming::kContext) return context;
        if (naming == Naming::kKey) return key;
        return std::string(context) + "." + key;
    }
};

/// Decode errors are std::invalid_argument with a local message; the
/// section dispatcher wraps them into ArtifactError naming the section.
[[noreturn]] void fail(const Path& p, const std::string& what) {
    throw std::invalid_argument(p.str() + ": " + what);
}

/// Sizes are JSON numbers (doubles): above 2^53 they are no longer exact
/// integers and need not fit a std::size_t.
constexpr double kMaxExactInteger = 9007199254740992.0;

class Decoder {
public:
    explicit Decoder(const io::Json& obj) : obj_(obj) {}

    void context(const char* label, Naming naming = Naming::kQualified) {
        context_ = label;
        naming_ = naming;
    }

    template <class T>
    void operator()(const char* key, T&& field, bool when = true) {
        const io::Json& value = member(key);
        if (when) read(value, field, {context_, key, naming_});
    }

    static void read(const io::Json& j, double& out, const Path& p) {
        if (!j.is_number()) fail(p, "expected a number");
        out = j.number();
    }
    static void read(const io::Json& j, bool& out, const Path& p) {
        if (!j.is_bool()) fail(p, "expected a boolean");
        out = j.boolean();
    }
    static void read(const io::Json& j, std::string& out, const Path& p) {
        out = string_of(j, p);
    }
    static void read(const io::Json& j, std::size_t& out, const Path& p) {
        double v = 0.0;
        read(j, v, p);
        if (!(v >= 0.0) || v != std::floor(v)) fail(p, "expected a non-negative integer");
        if (v > kMaxExactInteger) fail(p, "integer exceeds 2^53");
        out = static_cast<std::size_t>(v);
    }
    static void read(const io::Json& j, linalg::Vector& out, const Path& p) {
        const std::vector<io::Json>& items = array_of(j, p, "expected an array");
        out = linalg::Vector(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) read(items[i], out[i], p);
    }
    static void read(const io::Json& j, linalg::Matrix& out, const Path& p) {
        const std::vector<io::Json>& rows = array_of(j, p, "expected an array of rows");
        const std::size_t cols =
            rows.empty() ? 0 : array_of(rows[0], p, "expected an array of rows").size();
        out = rows.empty() ? linalg::Matrix{} : linalg::Matrix(rows.size(), cols);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            if (!rows[r].is_array() || rows[r].size() != cols) {
                fail(p, "ragged row " + std::to_string(r));
            }
            const std::vector<io::Json>& row = rows[r].elements();
            for (std::size_t c = 0; c < cols; ++c) read(row[c], out(r, c), p);
        }
    }
    static void read(const io::Json& j, ml::BasisTerm& out, const Path& p) {
        const std::vector<io::Json>& factors = array_of(j, p, "expected factor arrays");
        out.factors.resize(factors.size());
        for (std::size_t i = 0; i < factors.size(); ++i) read(factors[i], out.factors[i], p);
    }
    template <class U>
    static void read(const io::Json& j, Hex<U>& out, const Path& p) {
        if (const char* why = parse_hex_u64(string_of(j, p), out.value)) fail(p, why);
    }
    template <class D>
    static void read(const io::Json& j, NullIfNotFinite<D>& out, const Path& p) {
        if (j.is_null()) {
            out.value = std::numeric_limits<double>::quiet_NaN();
        } else {
            read(j, out.value, p);
        }
    }
    template <class T>
    static void read(const io::Json& j, std::optional<T>& out, const Path& p) {
        if (j.is_null()) {
            out.reset();
        } else {
            read(j, out.emplace(), p);
        }
    }

    template <class E>
        requires std::is_enum_v<E>
    static void read(const io::Json& j, E& out, const Path& p) {
        const std::string& name = string_of(j, p);
        for (const auto& [value, n] : enum_names(out).names) {
            if (n == name) {
                out = value;
                return;
            }
        }
        throw std::invalid_argument("unknown " + std::string(enum_names(out).noun) +
                                    " '" + name + "'");
    }

    template <class T>
    static void read(const io::Json& j, std::vector<T>& out, const Path& p) {
        const std::vector<io::Json>& items = array_of(j, p, "expected an array");
        out.resize(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) read(items[i], out[i], p);
    }

    /// Any struct with a field list; its errors carry its own context.
    template <class T>
    static void read(const io::Json& j, T& out, const Path& /*p*/) {
        Decoder d(j);
        fields(d, out);
    }

private:
    const io::Json& member(const char* key) const {
        if (obj_.is_object()) {
            const auto it = obj_.members().find(key);
            if (it != obj_.members().end()) return it->second;
        }
        throw std::invalid_argument(std::string(context_) + ": missing member '" +
                                    key + "'");
    }

    static const std::string& string_of(const io::Json& j, const Path& p) {
        if (!j.is_string()) fail(p, "expected a string");
        return j.str();
    }

    static const std::vector<io::Json>& array_of(const io::Json& j, const Path& p,
                                                 const char* what) {
        if (!j.is_array()) fail(p, what);
        return j.elements();
    }

    const io::Json& obj_;
    const char* context_ = "";
    Naming naming_ = Naming::kQualified;
};

template <class T>
io::Json encode(const T& s) {
    return Encoder::encode(s);
}

template <class T>
void decode(const io::Json& j, T&& out) {
    Decoder::read(j, out, {});
}

// --- envelope helpers -------------------------------------------------------

/// CRC input: section name, NUL, compact payload text. Binding the name
/// into the digest means a payload moved to a different section slot fails
/// its CRC even though the bytes themselves are intact.
std::uint32_t section_crc(const std::string& name, const io::Json& payload) {
    std::string bytes = name;
    bytes.push_back('\0');
    bytes += payload.dump(0);
    return crc32(bytes);
}

void add_section(io::Json& sections, const std::string& name, io::Json payload) {
    io::Json entry = io::Json::object();
    entry.set("crc32", static_cast<double>(section_crc(name, payload)));
    entry.set("payload", std::move(payload));
    sections.set(name, std::move(entry));
}

/// Fetch a section payload, verifying presence, shape and CRC. Throws
/// ArtifactError for all three failure modes.
const io::Json& checked_section(const io::Json& sections, const std::string& name) {
    if (!sections.contains(name)) {
        throw ArtifactError(ArtifactErrorCode::kMissingSection,
                            "section is absent", name);
    }
    const io::Json& entry = sections.at(name);
    if (!entry.is_object() || !entry.contains("crc32") ||
        !entry.contains("payload") || !entry.at("crc32").is_number()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "section entry must be {crc32, payload}", name);
    }
    const double stored_raw = entry.at("crc32").number();
    if (stored_raw < 0.0 || stored_raw > 4294967295.0 ||
        stored_raw != std::floor(stored_raw)) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "section CRC is not a 32-bit integer", name);
    }
    const auto stored = static_cast<std::uint32_t>(stored_raw);
    const std::uint32_t actual = section_crc(name, entry.at("payload"));
    if (stored != actual) {
        throw ArtifactError(ArtifactErrorCode::kSectionCrc,
                            "stored CRC " + std::to_string(stored) +
                                " != computed " + std::to_string(actual),
                            name);
    }
    return entry.at("payload");
}

std::string fnv1a64_hex(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return hex_u64(h);
}

/// Decodes one section. A failure is rethrown in strict mode (a field-level
/// one as kMalformed naming the section). A tolerant load records the
/// section as failed, with the note `degrade` returns after undoing the
/// section's partial state, and keeps going.
template <class Decode, class Degrade>
void decode_section(bool strict, const std::string& section, ArtifactLoadReport& rep,
                    Decode&& decode_payload, Degrade&& degrade) {
    std::string why;
    try {
        decode_payload();
        return;
    } catch (const ArtifactError& e) {
        if (strict) throw;
        why = e.what();
    } catch (const std::invalid_argument& e) {
        if (strict) throw ArtifactError(ArtifactErrorCode::kMalformed, e.what(), section);
        why = e.what();
    }
    rep.failed_sections.push_back(section);
    rep.notes.push_back(degrade(why));
}

}  // namespace

std::string artifact_error_code_name(ArtifactErrorCode code) {
    switch (code) {
        case ArtifactErrorCode::kIo: return "io";
        case ArtifactErrorCode::kParse: return "parse";
        case ArtifactErrorCode::kSchema: return "schema";
        case ArtifactErrorCode::kVersionSkew: return "version_skew";
        case ArtifactErrorCode::kConfigHash: return "config_hash";
        case ArtifactErrorCode::kSectionCrc: return "section_crc";
        case ArtifactErrorCode::kMissingSection: return "missing_section";
        case ArtifactErrorCode::kMalformed: return "malformed";
    }
    return "unknown";
}

std::string ArtifactError::format(ArtifactErrorCode code,
                                  const std::string& message,
                                  const std::string& section,
                                  std::size_t offset) {
    std::string out = "artifact ";
    out += artifact_error_code_name(code);
    if (!section.empty()) {
        out += " [section ";
        out += section;
        out += "]";
    }
    if (offset != kNoOffset) {
        out += " [offset ";
        out += std::to_string(offset);
        out += "]";
    }
    out += ": ";
    out += message;
    return out;
}

std::uint32_t crc32(std::string_view bytes) noexcept {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1U) != 0U ? 0xEDB88320U ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFU;
    for (const char ch : bytes) {
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFU;
}

io::Json canonical_config_json(const PipelineConfig& config) {
    return encode(config);
}

std::string config_fingerprint(const io::Json& canonical_config) {
    return fnv1a64_hex(canonical_config.dump(0));
}

std::string config_fingerprint(const PipelineConfig& config) {
    return config_fingerprint(canonical_config_json(config));
}

BoundaryArtifact BoundaryArtifact::from_pipeline(const GoldenFreePipeline& pipeline,
                                                 std::uint64_t seed,
                                                 std::string tool) {
    BoundaryArtifact artifact;
    artifact.config_json_ = canonical_config_json(pipeline.config());
    artifact.provenance_.seed = seed;
    artifact.provenance_.config_hash = config_fingerprint(artifact.config_json_);
    artifact.provenance_.tool = std::move(tool);

    for (const Boundary b : kAllBoundaries) {
        const std::size_t i = index_of(b);
        artifact.status_[i] = pipeline.boundary_status(b);
        if (artifact.status_[i].usable()) {
            artifact.svms_[i] = pipeline.boundary_svm(b);
            artifact.fingerprint_dims_[i] = pipeline.dataset(b).cols();
        }
    }

    // regressions() throws StageOrderError before stage 1 — a pipeline that
    // never calibrated has nothing worth persisting.
    artifact.mars_ = pipeline.regressions();

    if (pipeline.kde_estimator(Boundary::kB2).has_value()) {
        artifact.kde_s2_ = pipeline.kde_estimator(Boundary::kB2)->export_state();
    }
    if (pipeline.kde_estimator(Boundary::kB5).has_value()) {
        artifact.kde_s5_ = pipeline.kde_estimator(Boundary::kB5)->export_state();
    }

    const auto& calibration = pipeline.calibration_result();
    artifact.kmm_.present = calibration.has_value();
    if (calibration.has_value()) {
        artifact.kmm_.weights = calibration->weights;
        artifact.kmm_.total_shift = calibration->total_shift;
        artifact.kmm_.iterations = calibration->iterations;
    }
    artifact.kmm_.effective_sample_size = pipeline.kmm_effective_sample_size();
    artifact.kmm_.fallback_applied = pipeline.kmm_fallback_applied();
    return artifact;
}

io::Json BoundaryArtifact::to_json() const {
    io::Json sections = io::Json::object();
    add_section(sections, "config", config_json_);
    add_section(sections, "provenance", encode(provenance_));

    io::Json status = io::Json::array();
    for (const Boundary b : kAllBoundaries) {
        status.push_back(encode(StatusEntry{boundary_name(b), status_[index_of(b)]}));
    }
    add_section(sections, "status", std::move(status));

    add_section(sections, "mars",
                mars_.has_value() && mars_->fitted() ? encode(mars_->export_state())
                                                     : io::Json());
    add_section(sections, "kde",
                encode(KdeTails<const std::optional<stats::AdaptiveKde::State>>{
                    kde_s2_, kde_s5_}));
    add_section(sections, "kmm", encode(kmm_));

    for (const Boundary b : kAllBoundaries) {
        const std::size_t i = index_of(b);
        BoundaryEntry entry;
        entry.usable = status_[i].usable();
        entry.fingerprint_dim = fingerprint_dims_[i];
        if (svms_[i].has_value()) entry.svm = svms_[i]->export_state();
        add_section(sections, "boundary." + boundary_name(b), encode(entry));
    }

    io::Json doc = io::Json::object();
    doc.set("schema", std::string(kBoundaryArtifactSchema));
    doc.set("version", kBoundaryArtifactVersion);
    doc.set("sections", std::move(sections));
    return doc;
}

BoundaryArtifact BoundaryArtifact::from_json(const io::Json& doc,
                                             const ArtifactLoadOptions& opts,
                                             ArtifactLoadReport* report) {
    ArtifactLoadReport local_report;
    ArtifactLoadReport& rep = report != nullptr ? *report : local_report;
    // A caller may reuse a report object; only this load's degradations are
    // journaled below.
    const std::size_t first_new_note = rep.failed_sections.size();

    if (!doc.is_object()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "artifact root must be a JSON object");
    }
    if (!doc.contains("schema") || !doc.at("schema").is_string()) {
        throw ArtifactError(ArtifactErrorCode::kSchema,
                            "missing schema identifier");
    }
    if (doc.at("schema").str() != kBoundaryArtifactSchema) {
        throw ArtifactError(ArtifactErrorCode::kSchema,
                            "schema '" + doc.at("schema").str() +
                                "' is not '" + std::string(kBoundaryArtifactSchema) +
                                "'");
    }
    if (!doc.contains("version") || !doc.at("version").is_number()) {
        throw ArtifactError(ArtifactErrorCode::kVersionSkew,
                            "missing schema version");
    }
    const double version = doc.at("version").number();
    if (version != static_cast<double>(kBoundaryArtifactVersion)) {
        throw ArtifactError(ArtifactErrorCode::kVersionSkew,
                            "artifact version " + std::to_string(version) +
                                " != supported version " +
                                std::to_string(kBoundaryArtifactVersion));
    }
    if (!doc.contains("sections") || !doc.at("sections").is_object()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "missing sections object");
    }
    const io::Json& sections = doc.at("sections");

    BoundaryArtifact artifact;

    // Required sections: any problem here is a hard rejection regardless of
    // strictness — without config, provenance and status nothing below can
    // be trusted.
    const io::Json& config = checked_section(sections, "config");
    if (!config.is_object()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "config payload must be an object", "config");
    }
    artifact.config_json_ = config;

    // Strict regardless of the load options: never degraded.
    const auto required = [](const std::string& why) { return why; };
    decode_section(
        true, "provenance", rep,
        [&] { decode(checked_section(sections, "provenance"), artifact.provenance_); },
        required);

    const std::string recomputed = config_fingerprint(artifact.config_json_);
    if (recomputed != artifact.provenance_.config_hash) {
        throw ArtifactError(ArtifactErrorCode::kConfigHash,
                            "config fingerprint " + recomputed +
                                " != recorded " + artifact.provenance_.config_hash,
                            "provenance");
    }

    decode_section(
        true, "status", rep,
        [&] {
            const io::Json& status = checked_section(sections, "status");
            if (!status.is_array() || status.size() != kAllBoundaries.size()) {
                throw std::invalid_argument("status payload must list all 5 boundaries");
            }
            for (const Boundary b : kAllBoundaries) {
                const std::size_t i = index_of(b);
                StatusEntry entry;
                decode(status.at(i), entry);
                if (entry.boundary != boundary_name(b)) {
                    throw std::invalid_argument("status entry " + std::to_string(i) +
                                                " names " + entry.boundary +
                                                ", expected " + boundary_name(b));
                }
                artifact.status_[i] = std::move(entry.status);
            }
        },
        required);

    // A failure in one of the auxiliary sections (mars / kde / kmm) does not
    // change any score, so a tolerant load notes it and keeps going.
    decode_section(
        opts.strict, "mars", rep,
        [&] {
            const io::Json& mars = checked_section(sections, "mars");
            if (mars.is_null()) return;
            ml::MarsBank::State state;
            decode(mars, state);
            artifact.mars_ = ml::MarsBank::from_state(std::move(state));
        },
        [](const std::string& why) { return "section mars rejected: " + why; });

    decode_section(
        opts.strict, "kde", rep,
        [&] {
            decode(checked_section(sections, "kde"),
                   KdeTails<std::optional<stats::AdaptiveKde::State>>{artifact.kde_s2_,
                                                                       artifact.kde_s5_});
            // Round-trip validation: from_state enforces the full invariant set.
            for (auto* kde : {&artifact.kde_s2_, &artifact.kde_s5_}) {
                if (kde->has_value()) {
                    *kde = stats::AdaptiveKde::from_state(std::move(**kde)).export_state();
                }
            }
        },
        [&](const std::string& why) {
            artifact.kde_s2_.reset();
            artifact.kde_s5_.reset();
            return "section kde rejected: " + why;
        });

    decode_section(
        opts.strict, "kmm", rep,
        [&] { decode(checked_section(sections, "kmm"), artifact.kmm_); },
        [&](const std::string& why) {
            artifact.kmm_ = {};
            return "section kmm rejected: " + why;
        });

    // Per-boundary sections: a rejected section takes down exactly that
    // boundary. Tolerant loads keep scoring on the survivors; strict loads
    // refuse the whole artifact.
    for (const Boundary b : kAllBoundaries) {
        const std::size_t i = index_of(b);
        const std::string name = "boundary." + boundary_name(b);
        decode_section(
            opts.strict, name, rep,
            [&] {
                BoundaryEntry entry;
                entry.section = name;
                entry.usable = artifact.status_[i].usable();
                decode(checked_section(sections, name), entry);
                artifact.fingerprint_dims_[i] = entry.fingerprint_dim;
                if (!entry.usable) return;
                if (!entry.svm.has_value()) {
                    throw std::invalid_argument("status says usable but the model is null");
                }
                const std::size_t width = entry.svm->input_mean.size();
                artifact.svms_[i] = ml::OneClassSvm::from_state(std::move(*entry.svm));
                if (!artifact.svms_[i]->fitted()) {
                    throw std::invalid_argument(
                        "status says usable but the model is unfitted");
                }
                // The scorer checks every batch against this width, so one
                // that disagrees with the model would reject every batch.
                if (entry.fingerprint_dim != width) {
                    throw std::invalid_argument(
                        "fingerprint_dim " + std::to_string(entry.fingerprint_dim) +
                        " != SVM input width " + std::to_string(width));
                }
            },
            [&](const std::string& why) {
                artifact.svms_[i].reset();
                artifact.fingerprint_dims_[i] = 0;
                artifact.status_[i] = {BoundaryHealth::kFailed,
                                       "artifact section rejected: " + why};
                return "boundary " + boundary_name(b) + " failed artifact validation: " +
                       why;
            });
    }

    // Every tolerant repair above is an auditable decision: a degraded
    // section changes (or at least narrows) what the scorer can do, so it
    // lands in the event journal alongside the load-report note.
    obs::EventJournal& journal = obs::EventJournal::global();
    if (journal.enabled()) {
        for (std::size_t i = first_new_note; i < rep.failed_sections.size();
             ++i) {
            obs::Event ev("artifact_degraded");
            const std::string& section = rep.failed_sections[i];
            constexpr std::string_view prefix = "boundary.";
            if (section.rfind(prefix, 0) == 0) {
                ev.boundary = section.substr(prefix.size());
            }
            ev.detail = i < rep.notes.size() ? rep.notes[i] : section;
            journal.append(std::move(ev));
        }
    }

    return artifact;
}

void BoundaryArtifact::save(const std::string& path) const {
    const std::string text = to_json().dump(2) + "\n";
    const std::string tmp = path + ".tmp";

#if defined(__unix__) || defined(__APPLE__)
    // POSIX path: write + fsync the temp file, rename over the target, then
    // fsync the directory so the rename itself is durable. A crash at any
    // point leaves either the previous artifact or a stray .tmp — never a
    // torn htd.boundary.v1 file.
    // strerror below: mt-unsafe (static buffer) but copied into the
    // exception string before any other call can clobber it, and artifact
    // saves happen on one thread — scoring workers never write artifacts.
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot open " + tmp + ": " +
                                std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
    }
    std::size_t written = 0;
    while (written < text.size()) {
        const ssize_t n = ::write(fd, text.data() + written, text.size() - written);
        if (n < 0) {
            const std::string why = std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
            ::close(fd);
            ::unlink(tmp.c_str());
            throw ArtifactError(ArtifactErrorCode::kIo,
                                "short write to " + tmp + ": " + why);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot fsync " + tmp + ": " +
                                std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot rename " + tmp + " -> " + path + ": " +
                                std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
    }
    const std::string::size_type slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int dirfd = ::open(dir.c_str(), O_RDONLY);
    if (dirfd >= 0) {
        ::fsync(dirfd);  // best effort: the data itself is already durable
        ::close(dirfd);
    }
#else
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
        throw ArtifactError(ArtifactErrorCode::kIo, "cannot open " + tmp);
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out) {
        throw ArtifactError(ArtifactErrorCode::kIo, "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot rename " + tmp + " -> " + path);
    }
#endif
}

BoundaryArtifact BoundaryArtifact::load(const std::string& path,
                                        const ArtifactLoadOptions& opts,
                                        ArtifactLoadReport* report) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        throw ArtifactError(ArtifactErrorCode::kIo, "cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        throw ArtifactError(ArtifactErrorCode::kIo, "cannot read " + path);
    }
    const std::string text = buffer.str();

    io::Json doc;
    try {
        doc = io::Json::parse(text);
    } catch (const std::invalid_argument& e) {
        // Json::parse reports "... at offset N"; surface N as a typed field.
        std::size_t offset = ArtifactError::kNoOffset;
        const std::string what = e.what();
        const std::string marker = " at offset ";
        const std::string::size_type pos = what.rfind(marker);
        if (pos != std::string::npos) {
            try {
                offset = static_cast<std::size_t>(
                    std::stoull(what.substr(pos + marker.size())));
            } catch (const std::exception&) {
                offset = ArtifactError::kNoOffset;
            }
        }
        throw ArtifactError(ArtifactErrorCode::kParse, what, {}, offset);
    }

    BoundaryArtifact artifact = from_json(doc, opts, report);
    obs::Registry::global().counter_add("pipeline.artifacts_loaded");
    return artifact;
}

}  // namespace htd::core
