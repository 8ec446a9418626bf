// Runtime ISA dispatch of the blocked GEMM (see gemm.hpp), and its
// compile-time variant on simd::VecF: SSE2 on x86-64 baseline builds,
// NEON on ARM.
#include "tensor/gemm.hpp"

#include <atomic>
#include <cstring>

#include "common/simd.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::tensor {

namespace gemm {
namespace {

#if !defined(MESORASI_SIMD_SCALAR)

/** The blocked kernel on the compile-time simd::VecF lanes, 6-row x
 *  2-vector tiles (timed fastest of 2x4 .. 6x2 under SSE2). The zero
 *  mask is built in scalar (all-ones bits where x != 0, NaN included)
 *  and applied with a bitwise blend; a skipped k then adds +0.0, which
 *  leaves acc's bits alone: acc starts at +0.0 and a sum is -0.0 only
 *  when both operands are. */
struct Native
{
    using Reg = simd::VecF;
    static constexpr int kWidth = simd::kWidth;

    struct Splat
    {
        Reg v, nz;
    };

    static Reg zero() { return Reg::zero(); }
    static Reg load(const float *p) { return Reg::load(p); }
    static void store(float *p, Reg v) { v.store(p); }

    static Reg
    loadN(const float *p, int n)
    {
        float t[kWidth] = {};
        for (int i = 0; i < n; ++i)
            t[i] = p[i];
        return Reg::load(t);
    }

    static void
    storeN(float *p, Reg v, int n)
    {
        float t[kWidth];
        v.store(t);
        for (int i = 0; i < n; ++i)
            p[i] = t[i];
    }

    static Splat
    splat(float x)
    {
        uint32_t bits = 0u - static_cast<uint32_t>(x != 0.0f);
        float mask;
        std::memcpy(&mask, &bits, sizeof mask);
        return {Reg::broadcast(x), Reg::broadcast(mask)};
    }

    static Reg
    madd(Reg acc, const Splat &s, Reg b)
    {
        return simd::add(acc,
                         simd::blend(s.nz, simd::mul(s.v, b), Reg::zero()));
    }
};

void
runNative(const Block &g)
{
    run<Native, 6, 2>(g);
}

#endif

struct Variant
{
    const char *isa;
    Kernel kernel;
    bool (*supported)();
};

/** Widest first; the startup choice is the first one the CPU runs. */
const Variant kVariants[] = {
#if defined(MESORASI_GEMM_X86)
    {"avx512", runAvx512,
     [] {
         __builtin_cpu_init();
         return __builtin_cpu_supports("avx512f") != 0;
     }},
    {"avx2", runAvx2,
     [] {
         __builtin_cpu_init();
         return __builtin_cpu_supports("avx2") != 0;
     }},
#endif
#if !defined(MESORASI_SIMD_SCALAR)
    {simd::kIsa, runNative, [] { return true; }},
#endif
    {nullptr, nullptr, nullptr}, // keeps the array non-empty
};

const Variant *
best()
{
    for (const Variant &v : kVariants)
        if (v.kernel && v.supported())
            return &v;
    return nullptr;
}

/** Relaxed is enough: setGemmIsa is only called between parallel
 *  regions, like simd::setForceScalar. */
std::atomic<const Variant *> &
current()
{
    static std::atomic<const Variant *> v{best()};
    return v;
}

} // namespace

Kernel
selected()
{
    const Variant *v = current().load(std::memory_order_relaxed);
    return v ? v->kernel : nullptr;
}

} // namespace gemm

const char *
gemmIsa()
{
    const gemm::Variant *v = gemm::current().load(std::memory_order_relaxed);
    return v && simd::enabled() ? v->isa : "scalar";
}

bool
setGemmIsa(const char *isa)
{
    if (isa == nullptr || *isa == '\0') {
        gemm::current().store(gemm::best(), std::memory_order_relaxed);
        return true;
    }
    for (const gemm::Variant &v : gemm::kVariants)
        if (v.kernel && std::strcmp(v.isa, isa) == 0 && v.supported()) {
            gemm::current().store(&v, std::memory_order_relaxed);
            return true;
        }
    return false;
}

} // namespace mesorasi::tensor
