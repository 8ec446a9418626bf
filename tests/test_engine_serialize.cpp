/**
 * @file
 * Engine artifact serialization tests:
 *
 *  1. Round-trip bitwise parity: a saved-then-loaded engine's logits
 *     equal the freshly compiled engine's and the per-run NetworkExecutor
 *     path bit for bit — across 3 pipelines x 3 neighbor backends,
 *     with the optimizer pass pipeline on AND off, and over the
 *     concat-head / interp-decoder / detection network shapes.
 *  2. Determinism of the bytes themselves: re-serializing yields the
 *     identical artifact, and serializedEngineSize matches it.
 *  3. Concurrency: several ExecutionContexts execute one loaded
 *     CompiledEngine from parallel threads with bitwise-deterministic
 *     results.
 *  4. Robustness: truncated, bit-flipped, magic- and version-mangled
 *     artifacts either throw UsageError/InternalError with a clear
 *     message or (for flips that keep the artifact well-formed) load
 *     an engine without being executed — never UB. The CI sanitize
 *     job runs this suite under ASan/UBSan, which is what turns
 *     "never UB" from a comment into a checked property.
 *
 * Every compile pins PassOptions::Enable explicitly so the suite is
 * green regardless of MESORASI_PLAN_PASSES.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/networks.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "core/plan/step_ir.hpp"
#include "geom/datasets.hpp"
#include "quant/calibrate.hpp"

namespace mesorasi::core::plan {
namespace {

using geom::PointCloud;
using tensor::Tensor;

// --- Miniature networks (as in test_plan.cpp) -------------------------

ModuleConfig
miniSa(const std::string &name, int32_t centroids, int32_t k,
       float radius, std::vector<int32_t> widths)
{
    ModuleConfig m;
    m.name = name;
    m.numCentroids = centroids;
    m.k = k;
    m.search = SearchKind::Ball;
    m.sampling = SamplingKind::Random;
    m.radius = radius;
    m.mlpWidths = std::move(widths);
    return m;
}

ModuleConfig
miniKnn(const std::string &name, int32_t centroids, int32_t k,
        std::vector<int32_t> widths)
{
    ModuleConfig m = miniSa(name, centroids, k, 0.2f, std::move(widths));
    m.search = SearchKind::Knn;
    return m;
}

ModuleConfig
miniGlobal(const std::string &name, std::vector<int32_t> widths)
{
    ModuleConfig m;
    m.name = name;
    m.search = SearchKind::Global;
    m.mlpWidths = std::move(widths);
    return m;
}

ModuleConfig
miniEdge(const std::string &name, int32_t k, int32_t width)
{
    ModuleConfig m;
    m.name = name;
    m.k = k;
    m.search = SearchKind::Knn;
    m.space = SearchSpace::Features;
    m.sampling = SamplingKind::All;
    m.aggregation = AggregationKind::ConcatCentroidDifference;
    m.mlpWidths = {width};
    return m;
}

NetworkConfig
miniPointNet()
{
    NetworkConfig net;
    net.name = "mini-pnpp";
    net.numInputPoints = 256;
    net.numClasses = 8;
    net.modules = {
        miniSa("sa1", 96, 16, 0.3f, {32, 32}),
        miniKnn("sa2", 32, 12, {32, 64}),
        miniGlobal("sa3", {64, 96}),
    };
    net.headWidths = {64};
    return net;
}

NetworkConfig
miniEdgeNet()
{
    NetworkConfig net;
    net.name = "mini-edge";
    net.numInputPoints = 128;
    net.numClasses = 6;
    net.linkedInputs = true;
    net.modules = {miniEdge("ec1", 8, 16), miniEdge("ec2", 8, 24)};
    net.concatModuleOutputs = true;
    net.globalMlpWidths = {64};
    net.headWidths = {32};
    return net;
}

NetworkConfig
miniSegNet()
{
    NetworkConfig net;
    net.name = "mini-seg";
    net.task = Task::Segmentation;
    net.numInputPoints = 128;
    net.numClasses = 5;
    net.modules = {
        miniSa("sa1", 48, 12, 0.35f, {16, 32}),
        miniGlobal("sa2", {32, 64}),
    };
    InterpModuleConfig fp1;
    fp1.name = "fp1";
    fp1.mlpWidths = {32};
    InterpModuleConfig fp2;
    fp2.name = "fp2";
    fp2.mlpWidths = {16};
    net.interpModules = {fp1, fp2};
    net.headWidths = {16};
    return net;
}

NetworkConfig
miniDetNet()
{
    NetworkConfig net;
    net.name = "mini-det";
    net.task = Task::Detection;
    net.numInputPoints = 96;
    net.numClasses = 2;
    net.modules = {
        miniSa("sa1", 32, 8, 0.4f, {16, 16}),
        miniGlobal("sa2", {32}),
    };
    net.headWidths = {16};
    net.stage2Modules = {miniGlobal("tnet", {16, 32}),
                         miniGlobal("boxnet", {32})};
    net.stage2HeadWidths = {16};
    net.stage2Outputs = 11;
    return net;
}

/** Smallest viable network: keeps the mangling sweeps affordable. */
NetworkConfig
tinyNet()
{
    NetworkConfig net;
    net.name = "tiny";
    net.numInputPoints = 32;
    net.numClasses = 2;
    net.modules = {miniSa("sa1", 8, 4, 0.5f, {4}), miniGlobal("g", {4})};
    net.headWidths = {4};
    return net;
}

PointCloud
cloudFor(const NetworkConfig &cfg, uint64_t seed = 17)
{
    geom::ModelNetSim sim(seed, cfg.numInputPoints);
    return sim.sample().cloud;
}

CompileOptions
withPasses(PassOptions::Enable enable)
{
    CompileOptions o;
    o.passes.enable = enable;
    return o;
}

void
expectBitwise(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << what;
}

/** Compile, round-trip through bytes, and assert the loaded engine
 *  matches both the fresh engine and NetworkExecutor::run bitwise. */
void
checkRoundTrip(const NetworkConfig &cfg, PipelineKind kind,
               PassOptions::Enable enable, const std::string &what)
{
    NetworkExecutor exec(cfg, /*weightSeed=*/3);
    CompiledEngine fresh =
        PlanCompiler::compile(exec, kind, withPasses(enable));
    std::vector<uint8_t> bytes = saveEngineToBytes(fresh);
    CompiledEngine loaded = loadEngineFromBytes(bytes.data(), bytes.size());

    EXPECT_EQ(loaded.pipeline(), fresh.pipeline()) << what;
    EXPECT_EQ(loaded.steps().size(), fresh.steps().size()) << what;

    auto fctx = fresh.makeContext();
    auto lctx = loaded.makeContext();
    PointCloud cloud = cloudFor(cfg);
    for (uint64_t seed : {1ull, 9ull}) {
        Tensor ref = exec.run(cloud, kind, seed).logits;
        expectBitwise(fresh.execute(cloud, seed, *fctx), ref,
                      what + " fresh seed " + std::to_string(seed));
        expectBitwise(loaded.execute(cloud, seed, *lctx), ref,
                      what + " loaded seed " + std::to_string(seed));
    }
}

/** Attempt a load of deliberately mangled bytes: the only acceptable
 *  outcomes are UsageError carrying StatusCode::CorruptArtifact,
 *  InternalError, or a successfully decoded engine (never executed).
 *  Anything else — another exception type, an untyped rejection, or
 *  memory badness under the sanitizers — fails the test. */
void
loadMangled(const std::vector<uint8_t> &bytes, const std::string &what)
{
    try {
        CompiledEngine e = loadEngineFromBytes(bytes.data(), bytes.size());
        (void)e; // decoded + validated + baked, but never executed
    } catch (const UsageError &e) {
        EXPECT_EQ(e.code(), StatusCode::CorruptArtifact)
            << what << ": untyped rejection: " << e.what();
    } catch (const InternalError &) {
    } catch (...) {
        FAIL() << what << ": unexpected exception type escaped load";
    }
}

// --- Round-trip bitwise parity ----------------------------------------

TEST(EngineSerialize, RoundTripAcrossPipelinesBackendsAndPasses)
{
    NetworkConfig base = miniPointNet();
    for (PipelineKind kind :
         {PipelineKind::Original, PipelineKind::Delayed,
          PipelineKind::LtdDelayed}) {
        for (neighbor::Backend backend :
             {neighbor::Backend::BruteForce, neighbor::Backend::Grid,
              neighbor::Backend::KdTree}) {
            for (auto enable :
                 {PassOptions::Enable::Off, PassOptions::Enable::On}) {
                NetworkConfig cfg = base;
                cfg.backend = backend;
                checkRoundTrip(
                    cfg, kind, enable,
                    std::string(pipelineName(kind)) + "/" +
                        neighbor::backendName(backend) +
                        (enable == PassOptions::Enable::On ? "/on"
                                                           : "/off"));
            }
        }
    }
}

TEST(EngineSerialize, RoundTripNetworkShapes)
{
    for (auto enable :
         {PassOptions::Enable::Off, PassOptions::Enable::On}) {
        std::string sfx =
            enable == PassOptions::Enable::On ? "/on" : "/off";
        for (PipelineKind kind :
             {PipelineKind::Original, PipelineKind::Delayed,
              PipelineKind::LtdDelayed})
            checkRoundTrip(miniEdgeNet(), kind, enable,
                           std::string("edge/") + pipelineName(kind) +
                               sfx);
        checkRoundTrip(miniSegNet(), PipelineKind::Delayed, enable,
                       "seg" + sfx);
        checkRoundTrip(miniSegNet(), PipelineKind::Original, enable,
                       "seg-orig" + sfx);
        checkRoundTrip(miniDetNet(), PipelineKind::Delayed, enable,
                       "det" + sfx);
    }
}

// --- Artifact bytes ---------------------------------------------------

TEST(EngineSerialize, SerializationIsDeterministic)
{
    NetworkExecutor exec(miniPointNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> a = saveEngineToBytes(eng);
    std::vector<uint8_t> b = saveEngineToBytes(eng);
    EXPECT_EQ(a, b);
    EXPECT_EQ(serializedEngineSize(eng),
              static_cast<int64_t>(a.size()));

    // A loaded engine re-serializes to the identical artifact.
    CompiledEngine loaded = loadEngineFromBytes(a.data(), a.size());
    EXPECT_EQ(saveEngineToBytes(loaded), a);
}

// --- Concurrency on a loaded engine -----------------------------------

TEST(EngineSerialize, ConcurrentContextsOnLoadedEngine)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fresh = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(fresh);
    CompiledEngine loaded = loadEngineFromBytes(bytes.data(), bytes.size());

    constexpr int kThreads = 4;
    constexpr int kRepsPerThread = 3;
    std::vector<PointCloud> clouds;
    for (int s = 0; s < kThreads; ++s)
        clouds.push_back(cloudFor(cfg, 31 + static_cast<uint64_t>(s)));

    // Serial references from the fresh engine.
    std::vector<Tensor> ref;
    auto rctx = fresh.makeContext();
    for (int i = 0; i < kThreads; ++i)
        ref.push_back(
            fresh.execute(clouds[static_cast<size_t>(i)],
                          100 + static_cast<uint64_t>(i), *rctx));

    // One loaded engine, one context per thread, repeated executions.
    std::vector<Tensor> got(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            auto ctx = loaded.makeContext();
            for (int rep = 0; rep < kRepsPerThread; ++rep)
                got[static_cast<size_t>(t)] = loaded.execute(
                    clouds[static_cast<size_t>(t)],
                    100 + static_cast<uint64_t>(t), *ctx);
        });
    for (std::thread &w : workers)
        w.join();

    for (int i = 0; i < kThreads; ++i)
        expectBitwise(got[static_cast<size_t>(i)],
                      ref[static_cast<size_t>(i)],
                      "thread " + std::to_string(i));
}

// --- Robustness: corrupt artifacts never UB ---------------------------

TEST(EngineSerialize, RejectsBadMagic)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    bytes[0] ^= 0x5A;
    try {
        loadEngineFromBytes(bytes.data(), bytes.size());
        FAIL() << "bad magic accepted";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EngineSerialize, RejectsVersionMismatch)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    uint32_t bogus = kEngineFormatVersion + 1;
    std::memcpy(bytes.data() + 4, &bogus, sizeof bogus);
    try {
        loadEngineFromBytes(bytes.data(), bytes.size());
        FAIL() << "future format version accepted";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("not supported"),
                  std::string::npos)
            << e.what();
    }
}

/** Position in @p bytes of @p step's descriptor: a step's name is
 *  followed by its descriptor, which opens with the op tag (1) and the
 *  op number. */
size_t
descOffset(const std::vector<uint8_t> &bytes, const StepIR &step)
{
    std::vector<uint8_t> marker(step.name.begin(), step.name.end());
    marker.push_back(1);
    int32_t op = static_cast<int32_t>(step.desc.op);
    const auto *opBytes = reinterpret_cast<const uint8_t *>(&op);
    marker.insert(marker.end(), opBytes, opBytes + sizeof op);
    auto at = std::search(bytes.begin(), bytes.end(), marker.begin(),
                          marker.end());
    EXPECT_NE(at, bytes.end()) << step.name;
    return static_cast<size_t>(at - bytes.begin()) + step.name.size();
}

void
expectCorrupt(const std::vector<uint8_t> &bytes, const std::string &what)
{
    try {
        loadEngineFromBytes(bytes.data(), bytes.size());
        FAIL() << "accepted an artifact with " << what;
    } catch (const UsageError &e) {
        EXPECT_EQ(e.code(), StatusCode::CorruptArtifact) << e.what();
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(EngineSerialize, RejectsRetiredOpAndNonPositiveBallRadius)
{
    // Op number 7 belonged to a retired row-copy op and has no bake. A
    // ball search with radius <= 0 would be read as a k-NN fill (the
    // table fill's radius 0 means k-NN). Both are corrupt at load.
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    const StepIR *search = nullptr;
    for (const StepIR &s : eng.steps())
        if (s.desc.op == OpKind::SearchNit)
            search = &s;
    ASSERT_NE(search, nullptr);
    ASSERT_FALSE(search->desc.knn);
    size_t at = descOffset(bytes, *search);
    ASSERT_LT(at, bytes.size());

    std::vector<uint8_t> retired = bytes;
    int32_t seven = 7;
    std::memcpy(retired.data() + at + 1, &seven, sizeof seven);
    expectCorrupt(retired, "op 7 is not a valid kind");

    // The radius is tag 19 followed by the f32 value.
    std::vector<uint8_t> radius{19, 0, 0, 0, 0};
    std::memcpy(radius.data() + 1, &search->desc.radius, sizeof(float));
    auto r = std::search(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                         bytes.end(), radius.begin(), radius.end());
    ASSERT_NE(r, bytes.end());
    for (float bad : {0.0f, -search->desc.radius}) {
        std::vector<uint8_t> patched = bytes;
        std::memcpy(patched.data() + (r - bytes.begin()) + 1, &bad,
                    sizeof bad);
        expectCorrupt(patched, "ball radius");
    }
}

TEST(EngineSerialize, TruncationSweepNeverUB)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    ASSERT_GT(bytes.size(), 64u);

    // Every prefix of the header region, then evenly spaced cuts
    // through the tables. A strict prefix can never decode to a full
    // artifact (the trailing-bytes check would need the exact size),
    // so each cut must throw — cleanly.
    std::vector<size_t> cuts;
    for (size_t n = 0; n < 64; ++n)
        cuts.push_back(n);
    for (size_t n = 64; n + 1 < bytes.size();
         n += std::max<size_t>(1, bytes.size() / 256))
        cuts.push_back(n);
    for (size_t n : cuts) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() +
                                     static_cast<ptrdiff_t>(n));
        try {
            loadEngineFromBytes(cut.data(), cut.size());
            FAIL() << "truncated artifact of " << n
                   << " bytes accepted";
        } catch (const UsageError &) {
        } catch (const InternalError &) {
        } catch (...) {
            FAIL() << "truncation at " << n
                   << ": unexpected exception type";
        }
    }
}

TEST(EngineSerialize, ByteFlipSweepNeverUB)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    const std::vector<uint8_t> good = saveEngineToBytes(eng);

    // Flip every byte once (XOR 0xFF), plus milder single-bit flips at
    // every offset; each mangled artifact must either throw a typed
    // error or decode+validate+bake cleanly. Under the CI sanitize job
    // this sweep is the "never UB" proof.
    for (size_t i = 0; i < good.size(); ++i) {
        std::vector<uint8_t> m = good;
        m[i] ^= 0xFF;
        loadMangled(m, "xor 0xFF at " + std::to_string(i));
        m = good;
        m[i] ^= 0x01;
        loadMangled(m, "xor 0x01 at " + std::to_string(i));
    }
}

TEST(EngineSerialize, SeededFuzzFlipsNeverCrashAndStayTyped)
{
    // Deterministic fuzz over an artifact WITH a QNT1 quant section,
    // so the quant-entry decoding and the quantized-role validation
    // are in the blast radius too. Each round flips 1-4 seed-chosen
    // bits anywhere in the artifact; the only acceptable outcomes are
    // a clean decode or a typed CorruptArtifact rejection. The seed is
    // fixed so a CI failure reproduces locally.
    NetworkConfig cfg = tinyNet();
    NetworkExecutor exec(cfg, 3);
    std::vector<PointCloud> calib = {cloudFor(cfg, 5), cloudFor(cfg, 6)};
    CompiledEngine eng = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed,
        withPasses(PassOptions::Enable::On), calib, /*seedBase=*/1);
    ASSERT_GT(eng.stats().buffersQuantized, 0)
        << "fuzz corpus lost its quant section";
    const std::vector<uint8_t> good = saveEngineToBytes(eng);

    Rng rng(20260808);
    for (int round = 0; round < 1000; ++round) {
        std::vector<uint8_t> m = good;
        int64_t flips = rng.uniformInt(1, 4);
        for (int64_t f = 0; f < flips; ++f) {
            size_t at = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(m.size()) - 1));
            m[at] ^= static_cast<uint8_t>(1u << rng.uniformInt(0, 7));
        }
        loadMangled(m, "fuzz round " + std::to_string(round));
        if (::testing::Test::HasFailure())
            break; // first failing round pinpoints the repro
    }
}

TEST(EngineSerialize, TryLoadReturnsTypedStatusInsteadOfThrowing)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);

    Expected<CompiledEngine> ok =
        tryLoadEngineFromBytes(bytes.data(), bytes.size());
    ASSERT_TRUE(ok.hasValue()) << ok.status().toString();
    PointCloud cloud = cloudFor(tinyNet());
    auto ctx = ok.value().makeContext();
    expectBitwise(ok.value().execute(cloud, 1, *ctx),
                  exec.run(cloud, PipelineKind::Delayed, 1).logits,
                  "tryLoad engine parity");

    bytes[0] ^= 0xFF; // break the magic
    Expected<CompiledEngine> bad =
        tryLoadEngineFromBytes(bytes.data(), bytes.size());
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.status().code(), StatusCode::CorruptArtifact)
        << bad.status().toString();

    Expected<CompiledEngine> missing =
        tryLoadEngine("/nonexistent/engine.meso");
    ASSERT_FALSE(missing.hasValue());
    EXPECT_EQ(missing.status().code(), StatusCode::InvalidInput)
        << missing.status().toString();
}

} // namespace
} // namespace mesorasi::core::plan
