#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/plan/passes/pass.hpp"

namespace mesorasi::core::plan {

float
quantScaleFor(float maxAbs, DType dtype)
{
    MESO_REQUIRE(std::isfinite(maxAbs) && maxAbs >= 0.0f,
                 "calibration range must be finite and non-negative, got "
                     << maxAbs);
    float lim = dtype == DType::I4 ? 7.0f : 127.0f;
    return maxAbs > 0.0f ? maxAbs / lim : 1.0f;
}

namespace {

/**
 * Rewrites each calibrated AggGatherMax input PFT to quantized storage.
 *
 * For every buffer X in the calibration table that is (a) f32, (b)
 * written by exactly one step, and (c) only ever read as a gather-max
 * input or an aggregate-epilogue aux, the pass:
 *
 *   - appends a quantized buffer Xq (int8, or packed int4 when X has at
 *     least PassOptions::quantInt4MinRows rows) with the symmetric
 *     scale quantScaleFor(maxAbs, dtype),
 *   - inserts a QuantizeRows step X -> Xq right after X's producer,
 *   - repoints every consumer reference (AggGatherMax::in,
 *     AggSubCentroid/AggAddAuxRelu::aux, and the declared read sets)
 *     at Xq.
 *
 * X's last reader is then the quantize step itself, so the re-planned
 * arena overlaps X with downstream buffers and the resident footprint
 * shrinks by Xq's 4x/8x packing. Buffers are appended, never
 * renumbered, so calibration ids recorded against the fp32 engine stay
 * valid across the recompile.
 */
class PftQuantization final : public Pass
{
  public:
    const char *name() const override { return "quantize_pft"; }

    bool changesNumerics() const override { return true; }

    void
    run(PlanIR &ir, const PassOptions &opts, PassStat &stat) override
    {
        if (opts.quantCalibration.empty())
            return;
        // Quantize steps to splice in after their producer, keyed by
        // the producer's index in the unmodified step sequence.
        std::vector<std::vector<StepIR>> insertAfter(ir.steps.size());
        for (const auto &[buf, maxAbs] : opts.quantCalibration.maxAbs) {
            if (buf < 0 || buf >= static_cast<int32_t>(ir.bufs.size()))
                continue;
            if (ir.bufs[buf].dtype != DType::F32)
                continue;
            int32_t writer = soleWriter(ir, buf);
            if (writer < 0 || !readersQuantizable(ir, buf))
                continue;

            int64_t rows = ir.bufs[buf].rows;
            int32_t cols = ir.bufs[buf].cols;
            DType dt = rows >= opts.quantInt4MinRows ? DType::I4
                                                     : DType::I8;
            int32_t ldq = cols;
            if (dt == DType::I4 && (ldq & 1))
                ++ldq; // whole number of packed bytes per row
            int32_t xq = static_cast<int32_t>(ir.bufs.size());
            ir.bufs.push_back(BufferShape{
                rows, cols, ldq, dt, quantScaleFor(maxAbs, dt), 0});

            StepIR q;
            q.kind = StageKind::Feature;
            q.name = ir.steps[writer].name + ".quant";
            q.desc.op = OpKind::QuantizeRows;
            q.desc.in = buf;
            q.desc.out = xq;
            q.desc.rows = rows;
            q.desc.cols = cols;
            q.reads = {buf};
            q.writes = {xq};
            q.note = std::string(dtypeName(dt)) + " pft, scale " +
                     std::to_string(ir.bufs[xq].qscale);
            insertAfter[writer].push_back(std::move(q));

            repointReaders(ir, buf, xq);
            ++stat.buffersQuantized;
        }
        if (stat.buffersQuantized == 0)
            return;
        std::vector<StepIR> out;
        out.reserve(ir.steps.size() + stat.buffersQuantized);
        for (size_t i = 0; i < ir.steps.size(); ++i) {
            out.push_back(std::move(ir.steps[i]));
            for (StepIR &q : insertAfter[i])
                out.push_back(std::move(q));
        }
        ir.steps = std::move(out);
    }

  private:
    /** Index of the single step writing @p buf, or -1 when the buffer
     *  has zero or several writers. */
    static int32_t
    soleWriter(const PlanIR &ir, int32_t buf)
    {
        int32_t writer = -1;
        for (size_t i = 0; i < ir.steps.size(); ++i) {
            const StepIR &s = ir.steps[i];
            if (std::find(s.writes.begin(), s.writes.end(), buf) ==
                s.writes.end())
                continue;
            if (writer >= 0)
                return -1;
            writer = static_cast<int32_t>(i);
        }
        return writer;
    }

    /** Whether every read reference to @p buf is one the quantized
     *  kernels cover: a gather-max input or an aggregate-epilogue aux.
     *  Any other consumer (a ConcatCols source, an MLP input, ...)
     *  expects f32 rows, so the buffer stays f32. */
    static bool
    readersQuantizable(const PlanIR &ir, int32_t buf)
    {
        for (const StepIR &s : ir.steps) {
            auto descOk = [&](const OpDesc &d) {
                if (d.in == buf && d.op != OpKind::AggGatherMax)
                    return false;
                if (d.aux == buf && d.op != OpKind::AggSubCentroid &&
                    d.op != OpKind::AggAddAuxRelu)
                    return false;
                if (d.in2 == buf)
                    return false;
                return std::find(d.srcs.begin(), d.srcs.end(), buf) ==
                       d.srcs.end();
            };
            if (!descOk(s.desc))
                return false;
            for (const OpDesc &t : s.tail)
                if (!descOk(t))
                    return false;
        }
        return true;
    }

    /** Repoint every consumer reference and declared read of @p buf at
     *  @p xq (the producer's write set is left alone — it still fills
     *  the f32 buffer the new QuantizeRows step packs). */
    static void
    repointReaders(PlanIR &ir, int32_t buf, int32_t xq)
    {
        for (StepIR &s : ir.steps) {
            auto repoint = [&](OpDesc &d) {
                if (d.op == OpKind::AggGatherMax && d.in == buf)
                    d.in = xq;
                if ((d.op == OpKind::AggSubCentroid ||
                     d.op == OpKind::AggAddAuxRelu) &&
                    d.aux == buf)
                    d.aux = xq;
            };
            bool wasReader =
                std::find(s.reads.begin(), s.reads.end(), buf) !=
                s.reads.end();
            repoint(s.desc);
            for (OpDesc &t : s.tail)
                repoint(t);
            if (wasReader)
                std::replace(s.reads.begin(), s.reads.end(), buf, xq);
        }
    }
};

} // namespace

std::unique_ptr<Pass>
makePftQuantization()
{
    return std::make_unique<PftQuantization>();
}

} // namespace mesorasi::core::plan
