#include "core/network.hpp"

#include <numeric>

#include "tensor/ops.hpp"

namespace mesorasi::core {

using tensor::Tensor;

void
NetworkConfig::validate() const
{
    MESO_REQUIRE(!name.empty(), "network needs a name");
    MESO_REQUIRE(numInputPoints > 0, "bad input size");
    MESO_REQUIRE(!modules.empty(), "network has no modules");
    MESO_REQUIRE(numClasses > 0, "bad class count");
    for (const auto &m : modules)
        m.validate();
    for (const auto &m : stage2Modules)
        m.validate();
    if (!interpModules.empty()) {
        MESO_REQUIRE(interpModules.size() == modules.size(),
                     "interp decoder must pair 1:1 with encoder modules");
        MESO_REQUIRE(!concatModuleOutputs,
                     "interp decoder and concat head are exclusive");
    }
    if (concatModuleOutputs)
        MESO_REQUIRE(!globalMlpWidths.empty(),
                     "concat head needs a global MLP");
    if (task == Task::Detection)
        MESO_REQUIRE(stage2Outputs > 0 && !stage2Modules.empty(),
                     "detection needs a second stage");
}

namespace {

/** FC head: ReLU on hidden layers, linear output. */
nn::Mlp
makeHead(Rng &rng, int32_t inDim, const std::vector<int32_t> &widths,
         int32_t outDim, nn::Activation act)
{
    nn::Mlp head;
    int32_t d = inDim;
    for (int32_t w : widths) {
        head.addLayer(nn::Linear(rng, d, w, act));
        d = w;
    }
    head.addLayer(nn::Linear(rng, d, outDim, nn::Activation::None));
    return head;
}

Tensor
cloudToTensor(const geom::PointCloud &cloud)
{
    Tensor t(static_cast<int32_t>(cloud.size()), 3);
    for (size_t i = 0; i < cloud.size(); ++i) {
        t(static_cast<int32_t>(i), 0) = cloud[i].x;
        t(static_cast<int32_t>(i), 1) = cloud[i].y;
        t(static_cast<int32_t>(i), 2) = cloud[i].z;
    }
    return t;
}

/** Append FC-layer traces for an MLP applied to @p rows rows. */
void
emitMlpTrace(ModuleTrace &mt, const nn::Mlp &mlp, int64_t rows,
             const std::string &tag, bool asFc)
{
    for (size_t l = 0; l < mlp.numLayers(); ++l) {
        const auto &layer = mlp.layer(l);
        OpTrace op = asFc ? makeFcOp(rows, layer.inDim(), layer.outDim(),
                                     tag + ".fc" + std::to_string(l))
                          : makeMlpOp(rows, layer.inDim(), layer.outDim(),
                                      tag + ".mlp" + std::to_string(l));
        mt.ops.push_back(op);
    }
}

} // namespace

NetworkExecutor::NetworkExecutor(NetworkConfig cfg, uint64_t weightSeed,
                                 nn::Activation act)
    : cfg_(std::move(cfg)), act_(act)
{
    cfg_.validate();
    // Resolve the network-wide backend default onto modules that did
    // not pick one explicitly, so ModuleExecutor::search never needs to
    // consult the network again.
    if (cfg_.backend != neighbor::Backend::Auto) {
        auto resolve = [&](ModuleConfig &m) {
            if (m.backend == neighbor::Backend::Auto)
                m.backend = cfg_.backend;
        };
        for (auto &m : cfg_.modules)
            resolve(m);
        for (auto &m : cfg_.stage2Modules)
            resolve(m);
        for (auto &m : cfg_.interpModules)
            if (m.backend == neighbor::Backend::Auto)
                m.backend = cfg_.backend;
    }
    Rng wrng(weightSeed);

    // --- Encoder modules, tracking feature dims through links. ---
    int32_t n = cfg_.numInputPoints;
    int32_t dim = 3;
    std::vector<int32_t> link_dims{3};
    for (const auto &m : cfg_.modules) {
        int32_t in_dim = cfg_.linkedInputs
                             ? std::accumulate(link_dims.begin(),
                                               link_dims.end(), 0)
                             : dim;
        moduleInDims_.push_back(in_dim);
        modules_.push_back(
            std::make_unique<ModuleExecutor>(m, in_dim, wrng, act_));
        int32_t n_out = m.centroids(n);
        if (cfg_.linkedInputs) {
            if (n_out == n)
                link_dims.push_back(m.outDim());
            else
                link_dims = {m.outDim()};
        }
        dim = m.outDim();
        n = n_out;
    }

    // --- DGCNN-style concat head. ---
    if (cfg_.concatModuleOutputs) {
        concatDim_ = 0;
        for (const auto &m : cfg_.modules)
            concatDim_ += m.outDim();
        std::vector<int32_t> dims{concatDim_};
        for (int32_t w : cfg_.globalMlpWidths)
            dims.push_back(w);
        globalMlp_ = std::make_unique<nn::Mlp>(wrng, dims, act_);
    }

    // --- Segmentation decoder. ---
    if (!cfg_.interpModules.empty()) {
        // Encoder level dims: level 0 is the raw input (dim 3), level i
        // is module i-1's output.
        std::vector<int32_t> level_dims{3};
        for (const auto &m : cfg_.modules)
            level_dims.push_back(m.outDim());
        int32_t coarse = level_dims.back();
        size_t levels = cfg_.modules.size();
        for (size_t j = 0; j < cfg_.interpModules.size(); ++j) {
            int32_t skip = level_dims[levels - 1 - j];
            interps_.push_back(std::make_unique<InterpExecutor>(
                cfg_.interpModules[j], coarse, skip, wrng, act_));
            coarse = cfg_.interpModules[j].outDim();
        }
    }

    // --- Head. ---
    int32_t head_out =
        cfg_.task == Task::Detection ? 2 : cfg_.numClasses;
    if (cfg_.concatModuleOutputs) {
        int32_t g = cfg_.globalMlpWidths.back();
        headInDim_ = cfg_.task == Task::Classification
                         ? g
                         : concatDim_ + g; // pooled vector broadcast
    } else if (!cfg_.interpModules.empty()) {
        headInDim_ = cfg_.interpModules.back().outDim();
    } else {
        headInDim_ = dim;
    }
    head_ = std::make_unique<nn::Mlp>(
        makeHead(wrng, headInDim_, cfg_.headWidths, head_out, act_));

    // --- Detection stage 2. ---
    // F-PointNet's T-Net and box-estimation nets are parallel branches,
    // each consuming the (masked) input cloud and pooling globally; the
    // regression head takes their concatenated pooled features.
    if (cfg_.task == Task::Detection) {
        int32_t d2 = 0;
        for (const auto &m : cfg_.stage2Modules) {
            MESO_REQUIRE(m.search == SearchKind::Global,
                         "stage-2 branches must be Global modules");
            stage2InDims_.push_back(3);
            stage2Modules_.push_back(
                std::make_unique<ModuleExecutor>(m, 3, wrng, act_));
            d2 += m.outDim();
        }
        stage2Head_ = std::make_unique<nn::Mlp>(makeHead(
            wrng, d2, cfg_.stage2HeadWidths, cfg_.stage2Outputs, act_));
    }
}

RunResult
NetworkExecutor::run(const geom::PointCloud &cloud, PipelineKind kind,
                     uint64_t runSeed) const
{
    {
        Status s = geom::validateInputCloud(cloud, cfg_.numInputPoints);
        if (!s.isOk())
            throw UsageError(s);
    }
    RunResult out;
    out.trace.network = cfg_.name;
    out.trace.numInputPoints = cfg_.numInputPoints;

    ModuleState input;
    input.coords = cloudToTensor(cloud);
    input.features = input.coords;

    // Encoder modules in order; each draws its sampler decisions from
    // srng as it runs.
    Rng srng(runSeed);
    std::vector<ModuleState> levels{input};     // encoder resolution levels
    std::vector<Tensor> linked{input.features}; // LDGCNN link chain
    std::vector<Tensor> moduleOutputs;          // DGCNN concat-head inputs
    for (size_t i = 0; i < modules_.size(); ++i) {
        ModuleState in = levels.back();
        if (cfg_.linkedInputs) {
            Tensor x = linked[0];
            for (size_t j = 1; j < linked.size(); ++j)
                x = tensor::concatCols(x, linked[j]);
            in.features = std::move(x);
        }
        ModuleResult r = modules_[i]->run(in, kind, srng);
        r.trace.aggTableIndex = static_cast<int32_t>(out.nits.size());
        out.trace.modules.push_back(r.trace);
        out.nits.push_back(r.nit);
        out.ios.push_back(r.io);
        if (cfg_.linkedInputs) {
            if (r.out.numPoints() == in.numPoints())
                linked.push_back(r.out.features);
            else
                linked = {r.out.features};
        }
        if (cfg_.concatModuleOutputs)
            moduleOutputs.push_back(r.out.features);
        levels.push_back(std::move(r.out));
    }

    // Head: the configured head (concat / interpolation decoder / plain
    // FC), then detection stage 2.
    ModuleTrace head_trace;
    head_trace.name = "head";

    if (cfg_.concatModuleOutputs) {
        Tensor x = moduleOutputs[0];
        for (size_t j = 1; j < moduleOutputs.size(); ++j)
            x = tensor::concatCols(x, moduleOutputs[j]);
        head_trace.ops.push_back(
            makeConcatOp(x.rows(), x.cols(), "head.concat"));
        Tensor gl = globalMlp_->forward(x);
        emitMlpTrace(head_trace, *globalMlp_, gl.rows(), "head.global",
                     false);
        Tensor pooled = tensor::maxReduceRows(gl);
        head_trace.ops.push_back(
            makeReduceOp(1, gl.rows(), gl.cols(), "head.pool"));

        if (cfg_.task == Task::Classification) {
            out.logits = head_->forward(pooled);
            emitMlpTrace(head_trace, *head_, 1, "head", true);
        } else {
            // Broadcast the pooled vector back onto every point.
            Tensor broadcast(x.rows(), pooled.cols());
            for (int32_t r = 0; r < x.rows(); ++r)
                std::copy(pooled.row(0), pooled.row(0) + pooled.cols(),
                          broadcast.row(r));
            Tensor xh = tensor::concatCols(x, broadcast);
            head_trace.ops.push_back(
                makeConcatOp(xh.rows(), xh.cols(), "head.bcast"));
            out.logits = head_->forward(xh);
            emitMlpTrace(head_trace, *head_, xh.rows(), "head", true);
        }
    } else if (!interps_.empty()) {
        ModuleState cur = levels.back();
        size_t nlev = modules_.size();
        for (size_t j = 0; j < interps_.size(); ++j) {
            ModuleResult r = interps_[j]->run(levels[nlev - 1 - j], cur);
            out.trace.modules.push_back(r.trace);
            cur = std::move(r.out);
        }
        out.logits = head_->forward(cur.features);
        emitMlpTrace(head_trace, *head_, cur.features.rows(), "head",
                     true);
    } else {
        const Tensor &feat = levels.back().features;
        out.logits = head_->forward(feat);
        emitMlpTrace(head_trace, *head_, feat.rows(), "head", true);
    }

    // --- Detection stage 2 (T-Net + box estimation). ---
    // The branches consume the raw input and draw their sampler RNG
    // after every encoder module, as the compiled engine replays it.
    if (cfg_.task == Task::Detection) {
        Tensor pooled;
        for (const auto &m : stage2Modules_) {
            ModuleResult r = m->run(input, kind, srng);
            r.trace.aggTableIndex = static_cast<int32_t>(out.nits.size());
            out.trace.modules.push_back(r.trace);
            out.nits.push_back(r.nit);
            out.ios.push_back(r.io);
            pooled = pooled.empty()
                         ? r.out.features
                         : tensor::concatCols(pooled, r.out.features);
        }
        out.logits = stage2Head_->forward(pooled);
        emitMlpTrace(head_trace, *stage2Head_, 1, "head.box", true);
    }

    out.trace.modules.push_back(std::move(head_trace));
    return out;
}

std::vector<ModuleIo>
NetworkExecutor::analyticIos(int32_t numInputPoints) const
{
    std::vector<ModuleIo> ios;
    int32_t n = numInputPoints;
    for (size_t i = 0; i < modules_.size(); ++i) {
        // Scale the configured centroid counts proportionally when the
        // input size differs from the configured one (Fig. 7 runs the
        // networks at 130k points).
        ModuleIo io = modules_[i]->analyticIo(n, moduleInDims_[i]);
        if (cfg_.modules[i].numCentroids > 0 &&
            numInputPoints != cfg_.numInputPoints) {
            int64_t scaled = static_cast<int64_t>(
                                 cfg_.modules[i].numCentroids) *
                             numInputPoints / cfg_.numInputPoints;
            io.nOut = static_cast<int32_t>(std::max<int64_t>(1, scaled));
        }
        ios.push_back(io);
        n = ios.back().nOut;
    }
    return ios;
}

NetworkTrace
NetworkExecutor::analyticTrace(PipelineKind kind,
                               int32_t numInputPoints) const
{
    NetworkTrace trace;
    trace.network = cfg_.name;
    trace.numInputPoints = numInputPoints;

    std::vector<ModuleIo> ios = analyticIos(numInputPoints);
    for (size_t i = 0; i < modules_.size(); ++i) {
        trace.modules.push_back(modules_[i]->analyticTrace(
            kind, ios[i].nIn, ios[i].mIn, ios[i].nOut));
    }

    ModuleTrace head;
    head.name = "head";
    int32_t n = ios.empty() ? numInputPoints : ios.back().nOut;

    if (cfg_.concatModuleOutputs) {
        int32_t rows = numInputPoints;
        head.ops.push_back(makeConcatOp(rows, concatDim_, "head.concat"));
        emitMlpTrace(head, *globalMlp_, rows, "head.global", false);
        head.ops.push_back(makeReduceOp(
            1, rows, cfg_.globalMlpWidths.back(), "head.pool"));
        int64_t head_rows =
            cfg_.task == Task::Classification ? 1 : rows;
        emitMlpTrace(head, *head_, head_rows, "head", true);
    } else if (!interps_.empty()) {
        // Decoder: interpolate back up the encoder levels.
        std::vector<int64_t> level_n{numInputPoints};
        for (const auto &io : ios)
            level_n.push_back(io.nOut);
        size_t nlev = modules_.size();
        for (size_t j = 0; j < interps_.size(); ++j) {
            int64_t fine_n = level_n[nlev - 1 - j];
            int64_t coarse_n = level_n[nlev - j];
            ModuleTrace it;
            it.name = cfg_.interpModules[j].name;
            const auto &mlp = interps_[j]->mlp();
            it.ops.push_back(makeInterpolateOp(
                fine_n, coarse_n, mlp.layer(0).inDim(),
                it.name + ".interp"));
            emitMlpTrace(it, mlp, fine_n, it.name, false);
            trace.modules.push_back(std::move(it));
        }
        emitMlpTrace(head, *head_, numInputPoints, "head", true);
    } else {
        emitMlpTrace(head, *head_, n, "head", true);
    }

    if (cfg_.task == Task::Detection) {
        for (size_t i = 0; i < stage2Modules_.size(); ++i) {
            trace.modules.push_back(stage2Modules_[i]->analyticTrace(
                kind, numInputPoints, stage2InDims_[i]));
        }
        emitMlpTrace(head, *stage2Head_, 1, "head.box", true);
    }

    trace.modules.push_back(std::move(head));
    return trace;
}

} // namespace mesorasi::core
