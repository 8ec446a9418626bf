#include "core/plan/serialize.hpp"

#include <cmath>
#include <cstring>
#include <fstream>

#include "common/check.hpp"
#include "common/fault_injection.hpp"

/** Every corrupt-input rejection in this file throws the same typed
 *  code; a local alias keeps the ~50 call sites readable. */
#define MESO_REQUIRE_ARTIFACT(cond, ...)                                  \
    MESO_REQUIRE_C(::mesorasi::StatusCode::CorruptArtifact, cond,         \
                   __VA_ARGS__)

namespace mesorasi::core::plan {

namespace {

constexpr uint32_t kMagic = 0x4F53454Du; // "MESO" little-endian

/**
 * Optional trailing quantization section ("QNT1" little-endian).
 * Engines with only f32 buffers write nothing here, so their artifacts
 * stay byte-identical to the pre-quantization v1 format — and a
 * pre-quantization reader's "trailing bytes" check doubles as its
 * (correct) rejection of artifacts it cannot execute. Layout:
 * u32 magic, u32 entry count, entries {u32 bufId, i32 dtype,
 * f32 qscale, i32 qzero}, u32 pass-stat count, per-pass i32
 * buffersQuantized.
 */
constexpr uint32_t kQuantMagic = 0x31544E51u;

// OpDesc field tags. Append-only: a tag's type and meaning are frozen
// forever; new fields get new tags.
enum : uint8_t
{
    kTagEnd = 0,
    kTagOp = 1,
    kTagIn = 2,
    kTagOut = 3,
    kTagAux = 4,
    kTagIn2 = 5,
    kTagRows = 6,
    kTagCols = 7,
    kTagMod = 8,
    kTagK = 9,
    kTagSrcRows = 10,
    kTagInCols = 11,
    kTagOutCol = 12,
    kTagMlpId = 13,
    kTagWeightId = 14,
    kTagBiasId = 15,
    kTagFirstLayer = 16,
    kTagMode = 17,
    kTagBackend = 18,
    kTagRadius = 19,
    kTagRelu = 20,
    kTagKnn = 21,
    kTagConcat = 22,
    kTagCustom = 23,
    kTagSrcs = 24,
};

class Writer
{
  public:
    void reserve(size_t n) { bytes_.reserve(n); }

    void u8(uint8_t v) { bytes_.push_back(v); }

    void
    u32(uint32_t v)
    {
        raw(&v, sizeof v);
    }

    void i32(int32_t v) { raw(&v, sizeof v); }
    void i64(int64_t v) { raw(&v, sizeof v); }
    void f32(float v) { raw(&v, sizeof v); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    void
    vecI32(const std::vector<int32_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        raw(v.data(), v.size() * sizeof(int32_t));
    }

    void
    tensor(const tensor::Tensor &t)
    {
        i32(t.rows());
        i32(t.cols());
        raw(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    }

    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    void
    raw(const void *p, size_t n)
    {
        if (n == 0) // empty vectors hand over a null data()
            return;
        const auto *b = static_cast<const uint8_t *>(p);
        bytes_.insert(bytes_.end(), b, b + n);
    }

    std::vector<uint8_t> bytes_;
};

/** Bounds-checked little-endian reader. Every primitive checks the
 *  remaining byte count, so truncated or length-corrupted artifacts
 *  fail with UsageError instead of reading out of bounds. */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t
    u8()
    {
        need(1, "byte");
        return data_[pos_++];
    }

    uint32_t
    u32()
    {
        uint32_t v;
        raw(&v, sizeof v, "u32");
        return v;
    }

    int32_t
    i32()
    {
        int32_t v;
        raw(&v, sizeof v, "i32");
        return v;
    }

    int64_t
    i64()
    {
        int64_t v;
        raw(&v, sizeof v, "i64");
        return v;
    }

    float
    f32()
    {
        float v;
        raw(&v, sizeof v, "f32");
        return v;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n, "string body");
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** Element count for a vector of @p elemBytes-sized elements; the
     *  count is validated against the remaining bytes before any
     *  allocation, so a corrupt count cannot trigger a huge resize. */
    uint32_t
    count(size_t elemBytes, const char *what)
    {
        uint32_t n = u32();
        MESO_REQUIRE_ARTIFACT(static_cast<uint64_t>(n) * elemBytes <=
                         size_ - pos_,
                     "corrupt engine artifact: " << what << " count " << n
                                                 << " exceeds remaining "
                                                 << (size_ - pos_)
                                                 << " bytes");
        return n;
    }

    std::vector<int32_t>
    vecI32(const char *what)
    {
        uint32_t n = count(sizeof(int32_t), what);
        std::vector<int32_t> v(n);
        raw(v.data(), n * sizeof(int32_t), what);
        return v;
    }

    tensor::Tensor
    tensor(const char *what)
    {
        int32_t rows = i32();
        int32_t cols = i32();
        MESO_REQUIRE_ARTIFACT(rows >= 0 && cols >= 0,
                     "corrupt engine artifact: " << what << " shape "
                                                 << rows << "x" << cols);
        uint64_t n = static_cast<uint64_t>(rows) * cols;
        MESO_REQUIRE_ARTIFACT(n * sizeof(float) <= size_ - pos_,
                     "corrupt engine artifact: " << what << " data "
                                                 << rows << "x" << cols
                                                 << " exceeds remaining "
                                                 << (size_ - pos_)
                                                 << " bytes");
        std::vector<float> data(n);
        raw(data.data(), n * sizeof(float), what);
        return tensor::Tensor(rows, cols, std::move(data));
    }

    bool done() const { return pos_ == size_; }
    size_t pos() const { return pos_; }

  private:
    void
    need(size_t n, const char *what)
    {
        MESO_REQUIRE_ARTIFACT(n <= size_ - pos_,
                     "corrupt engine artifact: truncated reading "
                         << what << " at byte " << pos_);
    }

    void
    raw(void *p, size_t n, const char *what)
    {
        need(n, what);
        if (n > 0) // empty vectors hand over a null data()
            std::memcpy(p, data_ + pos_, n);
        pos_ += n;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

void
writeDesc(Writer &w, const OpDesc &d)
{
    auto tagI32 = [&](uint8_t tag, int32_t v, int32_t def) {
        if (v != def) {
            w.u8(tag);
            w.i32(v);
        }
    };
    auto tagBool = [&](uint8_t tag, bool v) {
        if (v) {
            w.u8(tag);
            w.u8(1);
        }
    };
    w.u8(kTagOp);
    w.i32(static_cast<int32_t>(d.op));
    tagI32(kTagIn, d.in, -1);
    tagI32(kTagOut, d.out, -1);
    tagI32(kTagAux, d.aux, -1);
    tagI32(kTagIn2, d.in2, -1);
    if (d.rows != 0) {
        w.u8(kTagRows);
        w.i64(d.rows);
    }
    tagI32(kTagCols, d.cols, 0);
    tagI32(kTagMod, d.mod, 0);
    tagI32(kTagK, d.k, 0);
    tagI32(kTagSrcRows, d.srcRows, 0);
    tagI32(kTagInCols, d.inCols, 0);
    tagI32(kTagOutCol, d.outCol, 0);
    tagI32(kTagMlpId, d.mlpId, -1);
    tagI32(kTagWeightId, d.weightId, -1);
    tagI32(kTagBiasId, d.biasId, -1);
    tagI32(kTagFirstLayer, d.firstLayer, 0);
    tagI32(kTagMode, d.mode, 0);
    tagI32(kTagBackend, d.backend, 0);
    if (d.radius != 0.0f) {
        w.u8(kTagRadius);
        w.f32(d.radius);
    }
    tagBool(kTagRelu, d.relu);
    tagBool(kTagKnn, d.knn);
    tagBool(kTagConcat, d.concat);
    if (!d.custom.empty()) {
        w.u8(kTagCustom);
        w.str(d.custom);
    }
    if (!d.srcs.empty()) {
        w.u8(kTagSrcs);
        w.vecI32(d.srcs);
    }
    w.u8(kTagEnd);
}

OpDesc
readDesc(Reader &r)
{
    OpDesc d;
    for (;;) {
        uint8_t tag = r.u8();
        switch (tag) {
          case kTagEnd:
            return d;
          case kTagOp:
            d.op = static_cast<OpKind>(r.i32());
            break;
          case kTagIn:
            d.in = r.i32();
            break;
          case kTagOut:
            d.out = r.i32();
            break;
          case kTagAux:
            d.aux = r.i32();
            break;
          case kTagIn2:
            d.in2 = r.i32();
            break;
          case kTagRows:
            d.rows = r.i64();
            break;
          case kTagCols:
            d.cols = r.i32();
            break;
          case kTagMod:
            d.mod = r.i32();
            break;
          case kTagK:
            d.k = r.i32();
            break;
          case kTagSrcRows:
            d.srcRows = r.i32();
            break;
          case kTagInCols:
            d.inCols = r.i32();
            break;
          case kTagOutCol:
            d.outCol = r.i32();
            break;
          case kTagMlpId:
            d.mlpId = r.i32();
            break;
          case kTagWeightId:
            d.weightId = r.i32();
            break;
          case kTagBiasId:
            d.biasId = r.i32();
            break;
          case kTagFirstLayer:
            d.firstLayer = r.i32();
            break;
          case kTagMode:
            d.mode = r.i32();
            break;
          case kTagBackend:
            d.backend = r.i32();
            break;
          case kTagRadius:
            d.radius = r.f32();
            break;
          case kTagRelu:
            d.relu = r.u8() != 0;
            break;
          case kTagKnn:
            d.knn = r.u8() != 0;
            break;
          case kTagConcat:
            d.concat = r.u8() != 0;
            break;
          case kTagCustom:
            d.custom = r.str();
            break;
          case kTagSrcs:
            d.srcs = r.vecI32("desc srcs");
            break;
          default:
            MESO_REQUIRE_ARTIFACT(false, "corrupt engine artifact: unknown "
                                "descriptor tag "
                                    << static_cast<int>(tag)
                                    << " at byte " << r.pos());
        }
    }
}

void
writeModuleInfo(Writer &w, const PlanModuleInfo &m)
{
    w.str(m.name);
    w.str(m.io.name);
    w.i32(m.io.nIn);
    w.i32(m.io.mIn);
    w.i32(m.io.nOut);
    w.i32(m.io.mOut);
    w.i32(m.io.k);
    w.i32(m.io.searchDim);
    w.vecI32(m.io.mlpWidths);
    w.i32(m.io.mlpInDim);
    w.i32(static_cast<int32_t>(m.effective));
    w.u8(m.global ? 1 : 0);
    w.i32(static_cast<int32_t>(m.backend));
    w.str(m.customBackend);
}

PlanModuleInfo
readModuleInfo(Reader &r)
{
    PlanModuleInfo m;
    m.name = r.str();
    m.io.name = r.str();
    m.io.nIn = r.i32();
    m.io.mIn = r.i32();
    m.io.nOut = r.i32();
    m.io.mOut = r.i32();
    m.io.k = r.i32();
    m.io.searchDim = r.i32();
    m.io.mlpWidths = r.vecI32("module mlp widths");
    m.io.mlpInDim = r.i32();
    int32_t eff = r.i32();
    MESO_REQUIRE_ARTIFACT(eff >= 0 &&
                     eff <= static_cast<int32_t>(PipelineKind::LtdDelayed),
                 "corrupt engine artifact: bad pipeline kind " << eff);
    m.effective = static_cast<PipelineKind>(eff);
    m.global = r.u8() != 0;
    int32_t b = r.i32();
    MESO_REQUIRE_ARTIFACT(b >= 0 &&
                     b <= static_cast<int32_t>(neighbor::Backend::KdTree),
                 "corrupt engine artifact: bad backend " << b);
    m.backend = static_cast<neighbor::Backend>(b);
    m.customBackend = r.str();
    MESO_REQUIRE_ARTIFACT(m.io.nIn >= 0 && m.io.nOut >= 0 && m.io.k >= 0 &&
                     m.io.mIn >= 0 && m.io.mOut >= 0,
                 "corrupt engine artifact: negative module shape in '"
                     << m.name << "'");
    return m;
}

} // namespace

/** Private-access helper (friended by CompiledEngine): encodes and
 *  decodes the artifact, validates decoded structure before bake. */
class EngineSerializer
{
  public:
    static std::vector<uint8_t>
    save(const CompiledEngine &e)
    {
        Writer w;
        // The parameter tables dominate the artifact; reserving their
        // size upfront keeps serialization a single growth-free pass.
        size_t paramBytes = 0;
        for (const nn::Mlp &m : e.mlps_)
            for (size_t l = 0; l < m.numLayers(); ++l)
                paramBytes +=
                    static_cast<size_t>(m.layer(l).weight().numel() +
                                        m.layer(l).bias().numel()) *
                    sizeof(float);
        for (const tensor::Tensor &t : e.weights_)
            paramBytes += static_cast<size_t>(t.numel()) * sizeof(float);
        w.reserve(paramBytes + (64u << 10));
        w.u32(kMagic);
        w.u32(kEngineFormatVersion);

        w.i32(static_cast<int32_t>(e.kind_));
        w.i32(e.numInputPoints_);
        w.i32(e.logitsRows_);
        w.i32(e.logitsCols_);

        w.u32(static_cast<uint32_t>(e.modules_.size()));
        for (const PlanModuleInfo &m : e.modules_)
            writeModuleInfo(w, m);
        w.u32(static_cast<uint32_t>(e.stage2_.size()));
        for (const PlanModuleInfo &m : e.stage2_)
            writeModuleInfo(w, m);

        w.u32(static_cast<uint32_t>(e.bufferShapes_.size()));
        for (const BufferShape &b : e.bufferShapes_) {
            w.i64(b.rows);
            w.i32(b.cols);
            w.i32(b.ld);
        }
        w.u32(static_cast<uint32_t>(e.offsets_.size()));
        for (int64_t off : e.offsets_)
            w.i64(off);

        w.u32(static_cast<uint32_t>(e.steps_.size()));
        for (const StepIR &s : e.steps_) {
            w.i32(static_cast<int32_t>(s.kind));
            w.str(s.name);
            writeDesc(w, s.desc);
            w.u32(static_cast<uint32_t>(s.tail.size()));
            for (const OpDesc &t : s.tail)
                writeDesc(w, t);
            w.vecI32(s.reads);
            w.vecI32(s.writes);
            w.u8(s.root ? 1 : 0);
            w.str(s.note);
        }

        w.u32(static_cast<uint32_t>(e.passStats_.size()));
        for (const PassStat &p : e.passStats_) {
            w.str(p.pass);
            w.u8(p.ran ? 1 : 0);
            w.i32(p.stepsRemoved);
            w.i32(p.fusionsApplied);
            w.i32(p.layoutsChanged);
        }

        w.u32(static_cast<uint32_t>(e.mlps_.size()));
        for (const nn::Mlp &m : e.mlps_) {
            w.u32(static_cast<uint32_t>(m.numLayers()));
            for (size_t i = 0; i < m.numLayers(); ++i) {
                const nn::Linear &l = m.layer(i);
                w.i32(static_cast<int32_t>(l.activation()));
                w.u8(l.hasBias() ? 1 : 0);
                w.tensor(l.weight());
                if (l.hasBias())
                    w.tensor(l.bias());
            }
        }
        w.u32(static_cast<uint32_t>(e.weights_.size()));
        for (const tensor::Tensor &t : e.weights_)
            w.tensor(t);

        w.i64(e.stats_.arenaFloats);
        w.i64(e.stats_.naiveFloats);
        w.i32(e.stats_.numSteps);
        w.i32(e.stats_.numBuffers);
        w.i64(e.stats_.arenaFloatsPrePass);
        w.i32(e.stats_.numStepsPrePass);
        w.i32(e.stats_.stepsRemoved);
        w.i32(e.stats_.fusionsApplied);
        w.i32(e.stats_.layoutsChanged);

        bool anyQuant = false;
        for (const BufferShape &b : e.bufferShapes_)
            anyQuant = anyQuant || b.dtype != DType::F32;
        if (anyQuant) {
            w.u32(kQuantMagic);
            uint32_t n = 0;
            for (const BufferShape &b : e.bufferShapes_)
                if (b.dtype != DType::F32)
                    ++n;
            w.u32(n);
            for (size_t i = 0; i < e.bufferShapes_.size(); ++i) {
                const BufferShape &b = e.bufferShapes_[i];
                if (b.dtype == DType::F32)
                    continue;
                w.u32(static_cast<uint32_t>(i));
                w.i32(static_cast<int32_t>(b.dtype));
                w.f32(b.qscale);
                w.i32(b.qzero);
            }
            w.u32(static_cast<uint32_t>(e.passStats_.size()));
            for (const PassStat &p : e.passStats_)
                w.i32(p.buffersQuantized);
        }
        return w.take();
    }

    static CompiledEngine
    load(const uint8_t *data, size_t size)
    {
        MESO_REQUIRE(data != nullptr || size == 0,
                     "null engine artifact buffer");
        try {
            return loadImpl(data, size);
        } catch (const UsageError &e) {
            if (e.code() == StatusCode::CorruptArtifact)
                throw;
            // Decoded tables can trip checks deeper in the library
            // (e.g. nn::Mlp layer chaining on a mangled shape). During
            // a load every such failure IS corruption; re-tag so
            // callers can route on one code.
            throw UsageError(StatusCode::CorruptArtifact, e.what());
        }
    }

  private:
    static CompiledEngine
    loadImpl(const uint8_t *data, size_t size)
    {
        Reader r(data, size);
        uint32_t magic = r.u32();
        MESO_REQUIRE_ARTIFACT(magic == kMagic,
                     "corrupt engine artifact: bad magic 0x" << std::hex
                                                             << magic);
        uint32_t version = r.u32();
        MESO_REQUIRE_ARTIFACT(version == kEngineFormatVersion,
                     "engine artifact format v"
                         << version << " is not supported (this build "
                         << "reads v" << kEngineFormatVersion
                         << "); recompile the engine");

        CompiledEngine e;
        int32_t kind = r.i32();
        MESO_REQUIRE_ARTIFACT(kind >= 0 &&
                         kind <= static_cast<int32_t>(
                                     PipelineKind::LtdDelayed),
                     "corrupt engine artifact: bad pipeline kind "
                         << kind);
        e.kind_ = static_cast<PipelineKind>(kind);
        e.numInputPoints_ = r.i32();
        e.logitsRows_ = r.i32();
        e.logitsCols_ = r.i32();
        MESO_REQUIRE_ARTIFACT(e.numInputPoints_ > 0 && e.logitsRows_ >= 0 &&
                         e.logitsCols_ >= 0,
                     "corrupt engine artifact: bad engine dims");

        uint32_t nMods = r.count(8, "modules");
        for (uint32_t i = 0; i < nMods; ++i)
            e.modules_.push_back(readModuleInfo(r));
        uint32_t nStage2 = r.count(8, "stage2 modules");
        for (uint32_t i = 0; i < nStage2; ++i)
            e.stage2_.push_back(readModuleInfo(r));

        uint32_t nBufs = r.count(16, "buffer shapes");
        for (uint32_t i = 0; i < nBufs; ++i) {
            BufferShape b;
            b.rows = r.i64();
            b.cols = r.i32();
            b.ld = r.i32();
            // The magnitude bound keeps every later extent product
            // (rows * ld in floats(), rows * k in validate) far from
            // int64 overflow on fuzzed bytes; real engines are bounded
            // by the 2^32-float arena anyway.
            MESO_REQUIRE_ARTIFACT(b.rows >= 0 && b.cols >= 0 &&
                             b.ld >= b.cols &&
                             b.rows <= (int64_t{1} << 31),
                         "corrupt engine artifact: bad shape for buffer "
                             << i);
            e.bufferShapes_.push_back(b);
        }
        uint32_t nOffs = r.count(8, "offsets");
        for (uint32_t i = 0; i < nOffs; ++i)
            e.offsets_.push_back(r.i64());

        uint32_t nSteps = r.count(1, "steps");
        for (uint32_t i = 0; i < nSteps; ++i) {
            StepIR s;
            int32_t sk = r.i32();
            MESO_REQUIRE_ARTIFACT(sk >= 0 &&
                             sk <= static_cast<int32_t>(
                                       StageKind::Epilogue),
                         "corrupt engine artifact: bad stage kind "
                             << sk);
            s.kind = static_cast<StageKind>(sk);
            s.name = r.str();
            s.desc = readDesc(r);
            uint32_t nTail = r.count(1, "step tail");
            for (uint32_t t = 0; t < nTail; ++t)
                s.tail.push_back(readDesc(r));
            s.reads = r.vecI32("step reads");
            s.writes = r.vecI32("step writes");
            s.root = r.u8() != 0;
            s.note = r.str();
            e.steps_.push_back(std::move(s));
        }

        uint32_t nPass = r.count(1, "pass stats");
        for (uint32_t i = 0; i < nPass; ++i) {
            PassStat p;
            p.pass = r.str();
            p.ran = r.u8() != 0;
            p.stepsRemoved = r.i32();
            p.fusionsApplied = r.i32();
            p.layoutsChanged = r.i32();
            e.passStats_.push_back(std::move(p));
        }

        uint32_t nMlps = r.count(1, "mlps");
        for (uint32_t i = 0; i < nMlps; ++i) {
            nn::Mlp mlp;
            uint32_t nLayers = r.count(1, "mlp layers");
            for (uint32_t l = 0; l < nLayers; ++l) {
                int32_t act = r.i32();
                MESO_REQUIRE_ARTIFACT(act >= 0 &&
                                 act <= static_cast<int32_t>(
                                            nn::Activation::Relu),
                             "corrupt engine artifact: bad activation "
                                 << act);
                bool hasBias = r.u8() != 0;
                tensor::Tensor weight = r.tensor("layer weight");
                tensor::Tensor bias;
                if (hasBias) {
                    bias = r.tensor("layer bias");
                    MESO_REQUIRE_ARTIFACT(bias.rows() == 1 &&
                                     bias.cols() == weight.cols(),
                                 "corrupt engine artifact: bias shape "
                                     << bias.shapeStr()
                                     << " for weight "
                                     << weight.shapeStr());
                }
                mlp.addLayer(nn::Linear(
                    std::move(weight), std::move(bias),
                    static_cast<nn::Activation>(act)));
            }
            e.mlps_.push_back(std::move(mlp));
        }
        uint32_t nWeights = r.count(1, "weights");
        for (uint32_t i = 0; i < nWeights; ++i)
            e.weights_.push_back(r.tensor("weight table entry"));

        e.stats_.arenaFloats = r.i64();
        e.stats_.naiveFloats = r.i64();
        e.stats_.numSteps = r.i32();
        e.stats_.numBuffers = r.i32();
        e.stats_.arenaFloatsPrePass = r.i64();
        e.stats_.numStepsPrePass = r.i32();
        e.stats_.stepsRemoved = r.i32();
        e.stats_.fusionsApplied = r.i32();
        e.stats_.layoutsChanged = r.i32();

        // Optional quantization section: absent from (and therefore
        // back-compatible with) pre-quantization fp32 artifacts.
        if (!r.done()) {
            uint32_t qmagic = r.u32();
            MESO_REQUIRE_ARTIFACT(qmagic == kQuantMagic,
                         "corrupt engine artifact: bad quant section "
                         "magic 0x"
                             << std::hex << qmagic);
            uint32_t nQuant = r.count(16, "quant entries");
            for (uint32_t i = 0; i < nQuant; ++i) {
                uint32_t id = r.u32();
                int32_t dt = r.i32();
                float scale = r.f32();
                int32_t zero = r.i32();
                MESO_REQUIRE_ARTIFACT(id < e.bufferShapes_.size(),
                             "corrupt engine artifact: quant entry for "
                             "buffer "
                                 << id << " of "
                                 << e.bufferShapes_.size());
                MESO_REQUIRE_ARTIFACT(
                    dt == static_cast<int32_t>(DType::I8) ||
                        dt == static_cast<int32_t>(DType::I4),
                    "corrupt engine artifact: quant dtype " << dt);
                MESO_REQUIRE_ARTIFACT(std::isfinite(scale) && scale > 0.0f,
                             "corrupt engine artifact: quant scale "
                                 << scale << " for buffer " << id);
                MESO_REQUIRE_ARTIFACT(zero == 0,
                             "corrupt engine artifact: non-symmetric "
                             "zero point "
                                 << zero << " is not supported");
                BufferShape &b = e.bufferShapes_[id];
                b.dtype = static_cast<DType>(dt);
                b.qscale = scale;
                b.qzero = zero;
            }
            uint32_t nQp = r.count(4, "quant pass stats");
            MESO_REQUIRE_ARTIFACT(nQp == e.passStats_.size(),
                         "corrupt engine artifact: "
                             << nQp << " quant pass stats for "
                             << e.passStats_.size() << " passes");
            for (uint32_t i = 0; i < nQp; ++i)
                e.passStats_[i].buffersQuantized = r.i32();
        }
        for (const BufferShape &b : e.bufferShapes_)
            if (b.dtype != DType::F32)
                ++e.stats_.buffersQuantized;

        MESO_REQUIRE_ARTIFACT(r.done(),
                     "corrupt engine artifact: " << (size - r.pos())
                                                 << " trailing bytes");
        validate(e);
        e.bake();
        return e;
    }

  private:
    /** Structural validation of a decoded engine: everything bake() and
     *  context construction dereference must be in range. Runs before
     *  bake so corrupt artifacts fail with UsageError, not UB. */
    static void
    validate(const CompiledEngine &e)
    {
        int32_t nBufs = static_cast<int32_t>(e.bufferShapes_.size());
        MESO_REQUIRE_ARTIFACT(e.offsets_.size() == e.bufferShapes_.size(),
                     "corrupt engine artifact: " << e.offsets_.size()
                                                 << " offsets for "
                                                 << nBufs << " buffers");
        MESO_REQUIRE_ARTIFACT(e.stats_.arenaFloats >= 0 &&
                         e.stats_.arenaFloats <=
                             (int64_t{1} << 32),
                     "corrupt engine artifact: arena size "
                         << e.stats_.arenaFloats);

        auto needBuf = [&](int32_t id, const char *what,
                           const std::string &step) {
            MESO_REQUIRE_ARTIFACT(id >= 0 && id < nBufs,
                         "corrupt engine artifact: step '"
                             << step << "' " << what << " buffer " << id
                             << " out of range (" << nBufs
                             << " buffers)");
            const BufferShape &b =
                e.bufferShapes_[static_cast<size_t>(id)];
            int64_t off = e.offsets_[static_cast<size_t>(id)];
            // Compare without forming off + floats(): either addend
            // may be huge on corrupt input and the sum could overflow.
            MESO_REQUIRE_ARTIFACT(off >= 0 &&
                             off <= e.stats_.arenaFloats &&
                             b.floats() <= e.stats_.arenaFloats - off,
                         "corrupt engine artifact: buffer "
                             << id << " extent [" << off << ", +"
                             << b.floats()
                             << ") outside arena of "
                             << e.stats_.arenaFloats << " floats");
        };
        int32_t nModules = static_cast<int32_t>(e.modules_.size());
        auto needMod = [&](int32_t mod, const std::string &step) {
            MESO_REQUIRE_ARTIFACT(mod >= 0 && mod < nModules,
                         "corrupt engine artifact: step '"
                             << step << "' module " << mod
                             << " out of range (" << nModules
                             << " modules)");
        };
        // Capacity of per-module runtime state as the context allocates
        // it (see ExecutionContext's constructor).
        auto centCap = [&](int32_t mod) -> int64_t {
            const PlanModuleInfo &m =
                e.modules_[static_cast<size_t>(mod)];
            return m.global ? 1 : m.io.nOut;
        };
        auto nitCap = [&](int32_t mod) -> int64_t {
            const PlanModuleInfo &m =
                e.modules_[static_cast<size_t>(mod)];
            return m.global ? 0
                            : static_cast<int64_t>(m.io.nOut) * m.io.k;
        };

        auto checkDesc = [&](const OpDesc &d, const std::string &step) {
            // 7 is a retired op number (step_ir.hpp): no bake exists.
            MESO_REQUIRE_ARTIFACT(
                d.op > OpKind::Generic && d.op <= OpKind::QuantizeRows &&
                    static_cast<int32_t>(d.op) != 7,
                "corrupt engine artifact: step '"
                    << step << "' op "
                    << static_cast<int32_t>(d.op)
                    << " is not a valid kind");
            MESO_REQUIRE_ARTIFACT(d.rows >= 0 && d.cols >= 0 && d.k >= 0 &&
                             d.srcRows >= 0 && d.outCol >= 0 &&
                             d.rows <= (int64_t{1} << 31) &&
                             d.srcRows <= (int64_t{1} << 31),
                         "corrupt engine artifact: step '"
                             << step << "' bad extent");
            switch (d.op) {
              case OpKind::MlpForward: {
                needBuf(d.in, "in", step);
                if (d.out != kResLogits)
                    needBuf(d.out, "out", step);
                MESO_REQUIRE_ARTIFACT(
                    d.mlpId >= 0 &&
                        d.mlpId <
                            static_cast<int32_t>(e.mlps_.size()),
                    "corrupt engine artifact: step '"
                        << step << "' mlp id " << d.mlpId);
                const nn::Mlp &m =
                    e.mlps_[static_cast<size_t>(d.mlpId)];
                MESO_REQUIRE_ARTIFACT(d.firstLayer >= 0 &&
                                 d.firstLayer <=
                                     static_cast<int32_t>(
                                         m.numLayers()),
                             "corrupt engine artifact: step '"
                                 << step << "' first layer "
                                 << d.firstLayer << " of "
                                 << m.numLayers());
                break;
              }
              case OpKind::Matmul:
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                MESO_REQUIRE_ARTIFACT(
                    d.weightId >= 0 &&
                        d.weightId <
                            static_cast<int32_t>(e.weights_.size()),
                    "corrupt engine artifact: step '"
                        << step << "' weight id " << d.weightId);
                break;
              case OpKind::BiasRelu:
                needBuf(d.out, "out", step);
                if (d.biasId >= 0) {
                    MESO_REQUIRE_ARTIFACT(
                        d.biasId <
                            static_cast<int32_t>(e.weights_.size()),
                        "corrupt engine artifact: step '"
                            << step << "' bias id " << d.biasId);
                    MESO_REQUIRE_ARTIFACT(
                        e.weights_[static_cast<size_t>(d.biasId)]
                                .numel() >= d.cols,
                        "corrupt engine artifact: step '"
                            << step << "' bias shorter than " << d.cols
                            << " columns");
                }
                break;
              case OpKind::AggGatherMax:
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(d.rows <= centCap(d.mod) &&
                                 d.rows * d.k <= nitCap(d.mod),
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' gather exceeds module NIT");
                break;
              case OpKind::AggSubCentroid:
              case OpKind::AggAddAuxRelu:
                needBuf(d.out, "out", step);
                needBuf(d.aux, "aux", step);
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(d.rows <= centCap(d.mod),
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' rows exceed centroid list");
                break;
              case OpKind::RngDraw:
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(d.rows <= d.srcRows,
                             "corrupt engine artifact: step '"
                                 << step << "' draws " << d.rows
                                 << " of " << d.srcRows);
                break;
              case OpKind::MaterializeCloud:
                needBuf(d.out, "out", step);
                break;
              case OpKind::ResolveSample:
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(
                    d.mode >= 0 &&
                        d.mode <=
                            static_cast<int32_t>(SampleMode::Fps),
                    "corrupt engine artifact: step '"
                        << step << "' sample mode " << d.mode);
                if (static_cast<SampleMode>(d.mode) == SampleMode::Fps)
                    needBuf(d.in, "in", step);
                break;
              case OpKind::SearchNit:
                needBuf(d.in, "in", step);
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(d.k > 0 && d.inCols > 0 &&
                                 d.rows <= centCap(d.mod) &&
                                 d.rows * d.k <= nitCap(d.mod),
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' search exceeds module NIT");
                MESO_REQUIRE_ARTIFACT(d.knn || d.radius > 0.0f,
                             "corrupt engine artifact: step '"
                                 << step << "' ball radius " << d.radius);
                MESO_REQUIRE_ARTIFACT(
                    d.backend >= 0 &&
                        d.backend <= static_cast<int32_t>(
                                         neighbor::Backend::KdTree),
                    "corrupt engine artifact: step '"
                        << step << "' backend " << d.backend);
                break;
              case OpKind::GroupDiff:
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(d.rows <= centCap(d.mod) &&
                                 d.rows * d.k <= nitCap(d.mod),
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' group exceeds module NIT");
                break;
              case OpKind::ReduceMaxRows:
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                MESO_REQUIRE_ARTIFACT(d.k > 0,
                             "corrupt engine artifact: step '"
                                 << step << "' zero group size");
                break;
              case OpKind::ReduceMaxAll:
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                MESO_REQUIRE_ARTIFACT(d.srcRows > 0,
                             "corrupt engine artifact: step '"
                                 << step << "' empty reduction");
                break;
              case OpKind::GatherRows:
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                needMod(d.mod, step);
                MESO_REQUIRE_ARTIFACT(d.rows <= centCap(d.mod),
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' rows exceed centroid list");
                break;
              case OpKind::FillZero:
                needBuf(d.out, "out", step);
                break;
              case OpKind::ConcatCols:
                needBuf(d.out, "out", step);
                for (int32_t id : d.srcs)
                    needBuf(id, "src", step);
                break;
              case OpKind::Interp3NN:
                needBuf(d.in, "in", step);
                needBuf(d.aux, "aux", step);
                needBuf(d.in2, "in2", step);
                needBuf(d.out, "out", step);
                MESO_REQUIRE_ARTIFACT(d.k > 0 && d.srcRows > 0,
                             "corrupt engine artifact: step '"
                                 << step << "' empty interpolation");
                MESO_REQUIRE_ARTIFACT(
                    d.backend >= 0 &&
                        d.backend <= static_cast<int32_t>(
                                         neighbor::Backend::KdTree),
                    "corrupt engine artifact: step '"
                        << step << "' backend " << d.backend);
                break;
              case OpKind::QuantizeRows: {
                needBuf(d.in, "in", step);
                needBuf(d.out, "out", step);
                const BufferShape &bi =
                    e.bufferShapes_[static_cast<size_t>(d.in)];
                const BufferShape &bo =
                    e.bufferShapes_[static_cast<size_t>(d.out)];
                MESO_REQUIRE_ARTIFACT(bi.dtype == DType::F32,
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' quantizes a non-f32 buffer");
                MESO_REQUIRE_ARTIFACT((bo.dtype == DType::I8 ||
                              bo.dtype == DType::I4) &&
                                 std::isfinite(bo.qscale) &&
                                 bo.qscale > 0.0f,
                             "corrupt engine artifact: step '"
                                 << step
                                 << "' output is not a quantized "
                                    "buffer with a positive scale");
                MESO_REQUIRE_ARTIFACT(bo.dtype != DType::I4 || bo.ld % 2 == 0,
                             "corrupt engine artifact: step '"
                                 << step << "' int4 output ld "
                                 << bo.ld << " is odd");
                break;
              }
              case OpKind::Generic:
                break;
            }
        };
        // Quantized buffers are legal only where bake dispatches on the
        // dtype: a QuantizeRows output, a gather-max input, or an
        // aggregate-epilogue aux. Any other operand reference would
        // reinterpret packed integers as floats.
        auto noQuant = [&](int32_t id, const char *what,
                          const std::string &step) {
            if (id < 0 || id >= nBufs)
                return;
            MESO_REQUIRE_ARTIFACT(
                e.bufferShapes_[static_cast<size_t>(id)].dtype ==
                    DType::F32,
                "corrupt engine artifact: step '"
                    << step << "' " << what
                    << " references quantized buffer " << id
                    << " outside the quantized kernel set");
        };
        auto checkQuantRoles = [&](const OpDesc &d,
                                   const std::string &step) {
            if (d.op != OpKind::AggGatherMax)
                noQuant(d.in, "in", step);
            if (d.op != OpKind::AggSubCentroid &&
                d.op != OpKind::AggAddAuxRelu)
                noQuant(d.aux, "aux", step);
            if (d.op != OpKind::QuantizeRows)
                noQuant(d.out, "out", step);
            noQuant(d.in2, "in2", step);
            for (int32_t id : d.srcs)
                noQuant(id, "src", step);
        };
        for (const StepIR &s : e.steps_) {
            checkDesc(s.desc, s.name);
            checkQuantRoles(s.desc, s.name);
            for (const OpDesc &t : s.tail) {
                checkDesc(t, s.name);
                checkQuantRoles(t, s.name);
            }
        }
    }
};

std::vector<uint8_t>
saveEngineToBytes(const CompiledEngine &engine)
{
    return EngineSerializer::save(engine);
}

void
saveEngine(const CompiledEngine &engine, const std::string &path)
{
    std::vector<uint8_t> bytes = EngineSerializer::save(engine);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    MESO_REQUIRE(out.good(), "cannot open '" << path << "' for writing");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    MESO_REQUIRE(out.good(), "failed writing engine artifact to '"
                                 << path << "'");
}

CompiledEngine
loadEngineFromBytes(const uint8_t *data, size_t size)
{
    // Fault-injection site: flip one seed-chosen bit of the artifact
    // before parsing, exercising the corrupt-input rejection path end
    // to end (the flip may also land in weight data and load cleanly —
    // the fuzz harness accepts both outcomes).
    if (size > 0 && fault::fires(fault::kArtifactByteFlip)) {
        std::vector<uint8_t> mangled(data, data + size);
        uint64_t bit = fault::pick(fault::kArtifactByteFlip,
                                   static_cast<uint64_t>(size) * 8);
        mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        return EngineSerializer::load(mangled.data(), mangled.size());
    }
    return EngineSerializer::load(data, size);
}

Expected<CompiledEngine>
tryLoadEngineFromBytes(const uint8_t *data, size_t size)
{
    try {
        return Expected<CompiledEngine>(loadEngineFromBytes(data, size));
    } catch (...) {
        return Expected<CompiledEngine>(Status::fromCurrentException());
    }
}

CompiledEngine
loadEngine(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    MESO_REQUIRE(in.good(), "cannot open engine artifact '" << path
                                                            << "'");
    std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    MESO_REQUIRE(in.good(), "failed reading engine artifact '" << path
                                                               << "'");
    return loadEngineFromBytes(bytes.data(), bytes.size());
}

Expected<CompiledEngine>
tryLoadEngine(const std::string &path)
{
    try {
        return Expected<CompiledEngine>(loadEngine(path));
    } catch (...) {
        return Expected<CompiledEngine>(Status::fromCurrentException());
    }
}

int64_t
serializedEngineSize(const CompiledEngine &engine)
{
    return static_cast<int64_t>(EngineSerializer::save(engine).size());
}

} // namespace mesorasi::core::plan
