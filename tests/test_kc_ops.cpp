/**
 * @file
 * Operation-level semantics tests for the kernel compiler: each small
 * kernel exercises one family of operations (integer arithmetic with
 * immediate folding, signed/unsigned division, shifts, min/max, selects,
 * floating point including the SFU paths, narrow loads/stores with sign
 * extension, stack-local arrays, atomics) against a host-computed
 * reference, in all three compile modes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kc/kernel.hpp"
#include "nocl/nocl.hpp"
#include "support/rng.hpp"

namespace
{

using kc::Kb;
using kc::Scalar;
using kc::Val;
using nocl::Arg;
using nocl::Buffer;
using nocl::Device;
using Mode = kc::CompileOptions::Mode;

class OpModes : public ::testing::TestWithParam<Mode>
{
  protected:
    Device
    makeDevice()
    {
        simt::SmConfig cfg = GetParam() == Mode::Purecap
                                 ? simt::SmConfig::cheriOptimised()
                                 : simt::SmConfig::baseline();
        cfg.numWarps = 4;
        return Device(cfg, GetParam());
    }

    /**
     * Run a one-in/one-out kernel over @p input and return the output.
     */
    std::vector<uint32_t>
    run1(kc::KernelDef &k, const std::vector<uint32_t> &input)
    {
        Device dev = makeDevice();
        const unsigned n = static_cast<unsigned>(input.size());
        Buffer bi = dev.alloc(n * 4);
        Buffer bo = dev.alloc(n * 4);
        dev.write32(bi, input);
        nocl::LaunchConfig cfg;
        cfg.blockDim = 32;
        cfg.gridDim = n / 32;
        const nocl::RunResult r = dev.launch(
            k, cfg,
            {Arg::integer(static_cast<int32_t>(n)), Arg::buffer(bi),
             Arg::buffer(bo)});
        EXPECT_TRUE(r.completed);
        EXPECT_FALSE(r.trapped) << r.trapKind;
        return dev.read32(bo);
    }
};

/** Generic one-input kernel built from a lambda over (builder, value). */
struct MapKernel : kc::KernelDef
{
    using Fn = std::function<Val(Kb &, Val)>;
    explicit MapKernel(Fn fn) : fn_(std::move(fn)) {}
    std::string name() const override { return "Map"; }

    void
    build(Kb &b) override
    {
        auto len = b.paramI32("len");
        auto in = b.paramPtr("in", Scalar::I32);
        auto out = b.paramPtr("out", Scalar::I32);
        auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        b.forRange(i, len, b.blockDim() * b.gridDim(), [&] {
            out[i] = fn_(b, in[i]);
        });
    }

    Fn fn_;
};

std::vector<uint32_t>
testInput(unsigned n)
{
    support::Rng rng(5150);
    std::vector<uint32_t> v(n);
    for (unsigned i = 0; i < n; ++i)
        v[i] = i < 8 ? i : rng.next(); // include small edge values
    v[1] = 0x80000000u;                // INT_MIN
    v[2] = 0xffffffffu;                // -1
    v[3] = 0x7fffffffu;                // INT_MAX
    return v;
}

TEST_P(OpModes, ImmediateArithmeticFolding)
{
    const auto in = testInput(128);
    // x*8 + (x>>3) - 5 uses SLLI (mul by pow2), SRAI and ADDI folds.
    MapKernel k([](Kb &b, Val x) {
        return x * 8 + (x >> b.c(3)) - 5;
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        // Wrapping arithmetic, as the kernel's RV32 ops: x * 8 in int32_t
        // would overflow for INT_MIN.
        const int32_t x = static_cast<int32_t>(in[i]);
        EXPECT_EQ(out[i], in[i] * 8u + static_cast<uint32_t>(x >> 3) - 5u)
            << i;
    }
}

TEST_P(OpModes, UnsignedDivRemByConstants)
{
    const auto in = testInput(128);
    // Power-of-two divides fold to shifts/masks; 7 uses the divider.
    MapKernel k([](Kb &b, Val x) {
        auto u = b.asUint(x);
        return b.asInt((u / b.cu(16)) + (u % b.cu(16)) + (u / b.cu(7)));
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[i], in[i] / 16 + in[i] % 16 + in[i] / 7) << i;
}

TEST_P(OpModes, SignedDivisionEdgeCases)
{
    const auto in = testInput(128);
    MapKernel k([](Kb &b, Val x) {
        return x / b.c(3) + x % b.c(3);
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        const int32_t x = static_cast<int32_t>(in[i]);
        EXPECT_EQ(static_cast<int32_t>(out[i]), x / 3 + x % 3) << i;
    }
}

TEST_P(OpModes, MinMaxBranchless)
{
    const auto in = testInput(128);
    MapKernel k([](Kb &b, Val x) {
        // clamp(x, -100, 100) with signed min/max
        return b.min_(b.max_(x, b.c(-100)), b.c(100));
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        const int32_t x = static_cast<int32_t>(in[i]);
        EXPECT_EQ(static_cast<int32_t>(out[i]),
                  std::min(std::max(x, -100), 100))
            << i;
    }
}

TEST_P(OpModes, ComparisonsProduceBooleans)
{
    const auto in = testInput(128);
    MapKernel k([](Kb &b, Val x) {
        return (x < b.c(10)) + (x <= b.c(10)) + (x > b.c(10)) +
               (x >= b.c(10)) + (x == b.c(10)) + (x != b.c(10));
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        const int32_t x = static_cast<int32_t>(in[i]);
        const uint32_t expect = (x < 10) + (x <= 10) + (x > 10) +
                                (x >= 10) + (x == 10) + (x != 10);
        EXPECT_EQ(out[i], expect) << i;
    }
}

TEST_P(OpModes, NestedSelects)
{
    const auto in = testInput(128);
    MapKernel k([](Kb &b, Val x) {
        auto sign = b.select(x < b.c(0), b.c(-1),
                             b.select(x > b.c(0), b.c(1), b.c(0)));
        return sign * 2 + 1;
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        const int32_t x = static_cast<int32_t>(in[i]);
        const int32_t sign = x < 0 ? -1 : (x > 0 ? 1 : 0);
        EXPECT_EQ(static_cast<int32_t>(out[i]), sign * 2 + 1) << i;
    }
}

TEST_P(OpModes, UnaryOps)
{
    const auto in = testInput(128);
    MapKernel k([](Kb &b, Val x) {
        return b.unary(kc::UnOp::Neg, x) + b.unary(kc::UnOp::Not, x);
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        const int32_t x = static_cast<int32_t>(in[i]);
        EXPECT_EQ(out[i], static_cast<uint32_t>(-x) + ~in[i]) << i;
    }
}

TEST_P(OpModes, FloatArithmeticIncludingSfu)
{
    const unsigned n = 128;
    support::Rng rng(7);
    std::vector<uint32_t> in(n);
    std::vector<float> fin(n);
    for (unsigned i = 0; i < n; ++i) {
        fin[i] = rng.nextFloat() * 100.0f + 1.0f;
        __builtin_memcpy(&in[i], &fin[i], 4);
    }
    // (sqrt(x) + x/3.0) * 0.5 exercises FSQRT and FDIV (SFU ops).
    struct FK : kc::KernelDef
    {
        std::string name() const override { return "F"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto inp = b.paramPtr("in", Scalar::F32);
            auto outp = b.paramPtr("out", Scalar::F32);
            auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
            b.forRange(i, len, b.blockDim() * b.gridDim(), [&] {
                auto x = b.var(inp[i]);
                outp[i] = (b.sqrt_(x) + static_cast<Val>(x) / b.cf(3.0f)) *
                          b.cf(0.5f);
            });
        }
    } k;
    const auto out = run1(k, in);
    for (unsigned i = 0; i < n; ++i) {
        float got;
        __builtin_memcpy(&got, &out[i], 4);
        const float expect =
            (std::sqrt(fin[i]) + fin[i] / 3.0f) * 0.5f;
        EXPECT_FLOAT_EQ(got, expect) << i;
    }
}

TEST_P(OpModes, FloatIntConversions)
{
    const unsigned n = 64;
    std::vector<uint32_t> in(n);
    for (unsigned i = 0; i < n; ++i)
        in[i] = i * 3 + 1;
    MapKernel k([](Kb &b, Val x) {
        // round-trip through float with a multiply
        return b.toInt(b.toFloat(x) * b.cf(2.0f));
    });
    const auto out = run1(k, in);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(out[i], in[i] * 2) << i;
}

TEST_P(OpModes, NarrowLoadsSignExtend)
{
    Device dev = makeDevice();
    const unsigned n = 64;
    std::vector<uint8_t> bytes(n * 2);
    for (unsigned i = 0; i < n * 2; ++i)
        bytes[i] = static_cast<uint8_t>(0x70 + i); // crosses 0x80
    Buffer bi = dev.alloc(n * 2);
    Buffer bo = dev.alloc(n * 4);
    dev.write8(bi, bytes);

    struct NK : kc::KernelDef
    {
        std::string name() const override { return "Narrow"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto s8 = b.paramPtr("s8", Scalar::I8);
            auto out = b.paramPtr("out", Scalar::I32);
            auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
            b.forRange(i, len, b.blockDim() * b.gridDim(), [&] {
                out[i] = s8[i]; // sign-extending byte load
            });
        }
    } k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 32;
    cfg.gridDim = 2;
    const auto r = dev.launch(k, cfg,
                              {Arg::integer(static_cast<int32_t>(n)),
                               Arg::buffer(bi), Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped) << r.trapKind;
    const auto out = dev.read32(bo);
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(static_cast<int32_t>(out[i]),
                  static_cast<int32_t>(static_cast<int8_t>(bytes[i])))
            << i;
    }
}

TEST_P(OpModes, HalfwordStoresAndLoads)
{
    Device dev = makeDevice();
    const unsigned n = 64;
    Buffer bh = dev.alloc(n * 2);
    Buffer bo = dev.alloc(n * 4);

    struct HK : kc::KernelDef
    {
        std::string name() const override { return "Half"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto h = b.paramPtr("h", Scalar::U16);
            auto out = b.paramPtr("out", Scalar::I32);
            auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
            b.forRange(i, len, b.blockDim() * b.gridDim(), [&] {
                h[i] = b.asInt(b.asUint(static_cast<Val>(i) * 1000 + 7));
                out[i] = b.asInt(h[i]); // zero-extending halfword load
            });
        }
    } k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 32;
    cfg.gridDim = 2;
    const auto r = dev.launch(k, cfg,
                              {Arg::integer(static_cast<int32_t>(n)),
                               Arg::buffer(bh), Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped) << r.trapKind;
    const auto out = dev.read32(bo);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(out[i], (i * 1000 + 7) & 0xffffu) << i;
}

TEST_P(OpModes, LocalScalarArray)
{
    // Each thread builds a small stack array and sums it in reverse:
    // exercises stack-relative addressing in every mode.
    Device dev = makeDevice();
    const unsigned n = 128;
    Buffer bo = dev.alloc(n * 4);

    struct LK : kc::KernelDef
    {
        std::string name() const override { return "Local"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto out = b.paramPtr("out", Scalar::I32);
            auto scratch = b.localArray(Scalar::I32, 8);
            auto g = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
            b.forRange(g, len, b.blockDim() * b.gridDim(), [&] {
                auto j = b.var(b.c(0));
                b.forRange(j, b.c(8), b.c(1), [&] {
                    scratch[j] = static_cast<Val>(g) * 10 +
                                 static_cast<Val>(j);
                });
                auto acc = b.var(b.c(0));
                auto k2 = b.var(b.c(0));
                b.forRange(k2, b.c(8), b.c(1), [&] {
                    acc += scratch[b.c(7) - static_cast<Val>(k2)];
                });
                out[g] = acc;
            });
        }
    } k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 32;
    cfg.gridDim = 4;
    const auto r = dev.launch(k, cfg,
                              {Arg::integer(static_cast<int32_t>(n)),
                               Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped) << r.trapKind;
    const auto out = dev.read32(bo);
    for (unsigned g = 0; g < n; ++g) {
        uint32_t expect = 0;
        for (unsigned j = 0; j < 8; ++j)
            expect += g * 10 + j;
        EXPECT_EQ(out[g], expect) << g;
    }
}

TEST_P(OpModes, AtomicVariants)
{
    Device dev = makeDevice();
    const unsigned n = 256;
    Buffer bacc = dev.alloc(5 * 4);
    // Slot 1 (signed min) starts at INT_MAX; slot 3 (and) at all-ones.
    dev.write32(bacc, {0, 0x7fffffffu, 0, 0xffffffffu, 0});

    struct AK : kc::KernelDef
    {
        std::string name() const override { return "Atomics"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto acc = b.paramPtr("acc", Scalar::I32);
            auto g = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
            b.if_(static_cast<Val>(g) < len, [&] {
                b.atomic(kc::AtomicOp::Add, b.index(acc, b.c(0)), b.c(2));
                b.atomic(kc::AtomicOp::Min, b.index(acc, b.c(1)),
                         static_cast<Val>(g));
                b.atomic(kc::AtomicOp::Max, b.index(acc, b.c(2)),
                         static_cast<Val>(g));
                b.atomic(kc::AtomicOp::And, b.index(acc, b.c(3)),
                         static_cast<Val>(g) | b.c(0x100));
                b.atomic(kc::AtomicOp::Or, b.index(acc, b.c(4)),
                         static_cast<Val>(g));
            });
        }
    } k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 128;
    cfg.gridDim = 2;
    const auto r = dev.launch(k, cfg,
                              {Arg::integer(static_cast<int32_t>(n)),
                               Arg::buffer(bacc)});
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped) << r.trapKind;
    const auto acc = dev.read32(bacc);
    EXPECT_EQ(acc[0], 2 * n);
    EXPECT_EQ(acc[1], 0u);     // min over 0..n-1
    EXPECT_EQ(acc[2], n - 1);  // max
    uint32_t and_expect = 0xffffffffu;
    uint32_t or_expect = 0;
    for (unsigned g = 0; g < n; ++g) {
        and_expect &= (g | 0x100);
        or_expect |= g;
    }
    EXPECT_EQ(acc[3], and_expect);
    EXPECT_EQ(acc[4], or_expect);
}

TEST_P(OpModes, DeeplyNestedControlFlow)
{
    const auto in = testInput(128);
    struct DK : kc::KernelDef
    {
        std::string name() const override { return "Nest"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto inp = b.paramPtr("in", Scalar::I32);
            auto out = b.paramPtr("out", Scalar::I32);
            auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
            b.forRange(i, len, b.blockDim() * b.gridDim(), [&] {
                auto x = b.var(inp[i] & b.c(0xff));
                auto r = b.var(b.c(0));
                b.ifElse(
                    static_cast<Val>(x) < b.c(128),
                    [&] {
                        b.ifElse(
                            static_cast<Val>(x) < b.c(64),
                            [&] {
                                auto j = b.var(b.c(0));
                                b.forRange(j, x, b.c(1),
                                           [&] { r += b.c(1); });
                            },
                            [&] { r = static_cast<Val>(x) * 2; });
                    },
                    [&] { r = b.c(-1); });
                out[i] = r;
            });
        }
    } k;
    const auto out = run1(k, in);
    for (unsigned i = 0; i < in.size(); ++i) {
        const uint32_t x = in[i] & 0xff;
        int32_t expect;
        if (x < 64)
            expect = static_cast<int32_t>(x);
        else if (x < 128)
            expect = static_cast<int32_t>(x) * 2;
        else
            expect = -1;
        EXPECT_EQ(static_cast<int32_t>(out[i]), expect) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, OpModes,
                         ::testing::Values(Mode::Baseline, Mode::Purecap,
                                           Mode::SoftBounds),
                         [](const auto &info) {
                             switch (info.param) {
                               case Mode::Baseline: return "Baseline";
                               case Mode::Purecap: return "Purecap";
                               default: return "SoftBounds";
                             }
                         });

} // namespace
