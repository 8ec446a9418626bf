#include "core/plan/step_ir.hpp"

#include "common/check.hpp"

namespace mesorasi::core {

const char *
stageKindName(StageKind kind)
{
    switch (kind) {
      case StageKind::Sample: return "sample";
      case StageKind::Search: return "search";
      case StageKind::Feature: return "feature";
      case StageKind::Aggregate: return "aggregate";
      case StageKind::Epilogue: return "epilogue";
    }
    return "?";
}

} // namespace mesorasi::core

namespace mesorasi::core::plan {

std::string
resourceName(int32_t id)
{
    if (id >= 0)
        return "b" + std::to_string(id);
    if (id == kResLogits)
        return "logits";
    if (id == kResRng)
        return "rng";
    int32_t v = -id - 3; // pair-coded virtual resources
    int32_t idx = v / 2;
    return (v % 2 == 0 ? "cent(" : "nit(") + std::to_string(idx) + ")";
}

const char *
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::Generic:
        return "generic";
      case OpKind::MlpForward:
        return "mlp";
      case OpKind::Matmul:
        return "matmul";
      case OpKind::BiasRelu:
        return "bias_relu";
      case OpKind::AggGatherMax:
        return "gather_max";
      case OpKind::AggSubCentroid:
        return "sub_centroid";
      case OpKind::AggAddAuxRelu:
        return "add_aux_relu";
      case OpKind::RngDraw:
        return "rng_draw";
      case OpKind::MaterializeCloud:
        return "materialize_cloud";
      case OpKind::ResolveSample:
        return "resolve_sample";
      case OpKind::SearchNit:
        return "search_nit";
      case OpKind::GroupDiff:
        return "group_diff";
      case OpKind::ReduceMaxRows:
        return "reduce_max_rows";
      case OpKind::ReduceMaxAll:
        return "reduce_max_all";
      case OpKind::GatherRows:
        return "gather_rows";
      case OpKind::FillZero:
        return "fill_zero";
      case OpKind::ConcatCols:
        return "concat_cols";
      case OpKind::Interp3NN:
        return "interp_3nn";
      case OpKind::QuantizeRows:
        return "quantize_rows";
    }
    return "?";
}

const char *
dtypeName(DType t)
{
    switch (t) {
      case DType::F32:
        return "f32";
      case DType::I8:
        return "i8";
      case DType::I4:
        return "i4";
    }
    return "?";
}

ArenaPlanResult
planArenaFor(const PlanIR &ir)
{
    ArenaPlanResult res;
    res.planId.assign(ir.bufs.size(), -1);
    for (size_t si = 0; si < ir.steps.size(); ++si) {
        int32_t step = static_cast<int32_t>(si);
        auto touch = [&](int32_t id) {
            if (id < 0)
                return; // virtual resource, not arena-backed
            size_t b = static_cast<size_t>(id);
            MESO_CHECK(b < ir.bufs.size(), "bad buffer id " << id);
            if (res.planId[b] < 0)
                res.planId[b] =
                    res.planner.add(ir.bufs[b].floats(), step);
            else
                res.planner.extendLive(res.planId[b], step);
        };
        // Steps appear in execution order and every buffer is written
        // before it is read, so the first touch opens the live range.
        for (int32_t id : ir.steps[si].writes)
            touch(id);
        for (int32_t id : ir.steps[si].reads)
            touch(id);
    }
    res.planner.plan();
    return res;
}

} // namespace mesorasi::core::plan
