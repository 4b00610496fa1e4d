/**
 * @file
 * Differential fuzzing of the kernel compiler: randomly generated
 * integer expression trees are built simultaneously as DSL expressions
 * and as host-side evaluator closures, then compiled and executed on
 * the simulated GPU in all three modes and compared element-wise
 * against the host result, on one SM and sharded over 2 and 4 SMs with
 * a seeded grid size. Catches codegen bugs in operand ordering,
 * immediate folding, signedness, temporary reuse and divergence
 * handling that targeted unit tests miss.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
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

using HostFn = std::function<uint32_t(uint32_t, uint32_t)>;

/** A generated expression: the DSL node plus its host semantics. */
struct GenExpr
{
    Val val;
    HostFn host;
};

/**
 * Random expression generator. Operands are the two per-element inputs
 * x and y; division/remainder denominators are or-ed with 1 to avoid
 * the zero special cases (tested separately in test_kc_ops).
 */
class ExprGen
{
  public:
    ExprGen(Kb &b, support::Rng &rng, Val x, Val y)
        : b_(b), rng_(rng), x_(x), y_(y)
    {
    }

    GenExpr
    gen(unsigned depth)
    {
        if (depth == 0) {
            switch (rng_.nextBounded(3)) {
              case 0:
                return {x_, [](uint32_t x, uint32_t) { return x; }};
              case 1:
                return {y_, [](uint32_t, uint32_t y) { return y; }};
              default: {
                const int32_t c = rng_.nextRange(-1000, 1000);
                return {b_.c(c), [c](uint32_t, uint32_t) {
                            return static_cast<uint32_t>(c);
                        }};
              }
            }
        }

        const GenExpr a = gen(depth - 1);
        switch (rng_.nextBounded(14)) {
          case 0:
            return bin(a, gen(depth - 1), kc::BinOp::Add,
                       [](uint32_t p, uint32_t q) { return p + q; });
          case 1:
            return bin(a, gen(depth - 1), kc::BinOp::Sub,
                       [](uint32_t p, uint32_t q) { return p - q; });
          case 2:
            return bin(a, gen(depth - 1), kc::BinOp::Mul,
                       [](uint32_t p, uint32_t q) { return p * q; });
          case 3:
            return bin(a, gen(depth - 1), kc::BinOp::And,
                       [](uint32_t p, uint32_t q) { return p & q; });
          case 4:
            return bin(a, gen(depth - 1), kc::BinOp::Or,
                       [](uint32_t p, uint32_t q) { return p | q; });
          case 5:
            return bin(a, gen(depth - 1), kc::BinOp::Xor,
                       [](uint32_t p, uint32_t q) { return p ^ q; });
          case 6: { // shift by a small constant
            const int32_t sh = static_cast<int32_t>(rng_.nextBounded(31));
            GenExpr r;
            r.val = a.val << b_.c(sh);
            r.host = [h = a.host, sh](uint32_t x, uint32_t y) {
                return h(x, y) << sh;
            };
            return r;
          }
          case 7: { // arithmetic shift right
            const int32_t sh = static_cast<int32_t>(rng_.nextBounded(31));
            GenExpr r;
            r.val = a.val >> b_.c(sh);
            r.host = [h = a.host, sh](uint32_t x, uint32_t y) {
                return static_cast<uint32_t>(
                    static_cast<int32_t>(h(x, y)) >> sh);
            };
            return r;
          }
          case 8: { // signed comparison
            const GenExpr c = gen(depth - 1);
            GenExpr r;
            r.val = a.val < c.val;
            r.host = [ha = a.host, hc = c.host](uint32_t x, uint32_t y) {
                return static_cast<int32_t>(ha(x, y)) <
                               static_cast<int32_t>(hc(x, y))
                           ? 1u
                           : 0u;
            };
            return r;
          }
          case 9: { // select
            const GenExpr c = gen(depth - 1);
            const GenExpr d = gen(depth - 1);
            GenExpr r;
            r.val = b_.select(a.val != b_.c(0), c.val, d.val);
            r.host = [ha = a.host, hc = c.host,
                      hd = d.host](uint32_t x, uint32_t y) {
                return ha(x, y) != 0 ? hc(x, y) : hd(x, y);
            };
            return r;
          }
          case 10: { // unsigned division with a safe denominator
            const GenExpr c = gen(depth - 1);
            GenExpr r;
            r.val = b_.asInt(b_.asUint(a.val) /
                             (b_.asUint(c.val) | b_.cu(1)));
            r.host = [ha = a.host, hc = c.host](uint32_t x, uint32_t y) {
                return ha(x, y) / (hc(x, y) | 1u);
            };
            return r;
          }
          case 11: { // unsigned remainder with a safe denominator
            const GenExpr c = gen(depth - 1);
            GenExpr r;
            r.val = b_.asInt(b_.asUint(a.val) %
                             (b_.asUint(c.val) | b_.cu(1)));
            r.host = [ha = a.host, hc = c.host](uint32_t x, uint32_t y) {
                return ha(x, y) % (hc(x, y) | 1u);
            };
            return r;
          }
          case 12: { // signed min
            const GenExpr c = gen(depth - 1);
            GenExpr r;
            r.val = b_.min_(a.val, c.val);
            r.host = [ha = a.host, hc = c.host](uint32_t x, uint32_t y) {
                const int32_t p = static_cast<int32_t>(ha(x, y));
                const int32_t q = static_cast<int32_t>(hc(x, y));
                return static_cast<uint32_t>(p < q ? p : q);
            };
            return r;
          }
          default: { // signed max
            const GenExpr c = gen(depth - 1);
            GenExpr r;
            r.val = b_.max_(a.val, c.val);
            r.host = [ha = a.host, hc = c.host](uint32_t x, uint32_t y) {
                const int32_t p = static_cast<int32_t>(ha(x, y));
                const int32_t q = static_cast<int32_t>(hc(x, y));
                return static_cast<uint32_t>(p > q ? p : q);
            };
            return r;
          }
        }
    }

  private:
    GenExpr
    bin(const GenExpr &a, const GenExpr &c, kc::BinOp op,
        uint32_t (*f)(uint32_t, uint32_t))
    {
        GenExpr r;
        r.val = b_.binary(op, a.val, c.val);
        r.host = [ha = a.host, hc = c.host, f](uint32_t x, uint32_t y) {
            return f(ha(x, y), hc(x, y));
        };
        return r;
    }

    Kb &b_;
    support::Rng &rng_;
    Val x_;
    Val y_;
};

/** Kernel computing a random expression over two inputs. */
struct FuzzKernel : kc::KernelDef
{
    FuzzKernel(uint64_t seed, HostFn *host_out)
        : seed_(seed), hostOut_(host_out)
    {
    }

    std::string name() const override { return "Fuzz"; }

    void
    build(Kb &b) override
    {
        auto len = b.paramI32("len");
        auto xin = b.paramPtr("x", Scalar::I32);
        auto yin = b.paramPtr("y", Scalar::I32);
        auto out = b.paramPtr("out", Scalar::I32);
        auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        b.forRange(i, len, b.blockDim() * b.gridDim(), [&] {
            auto x = b.var(xin[i]);
            auto y = b.var(yin[i]);
            support::Rng rng(seed_);
            ExprGen gen(b, rng, static_cast<Val>(x),
                        static_cast<Val>(y));
            const GenExpr e = gen.gen(4);
            *hostOut_ = e.host;
            out[i] = e.val;
        });
    }

    uint64_t seed_;
    HostFn *hostOut_;
};

class FuzzModes : public ::testing::TestWithParam<Mode>
{
};

TEST_P(FuzzModes, RandomExpressionsMatchHost)
{
    const Mode mode = GetParam();
    const unsigned n = 128;

    support::Rng data_rng(0xf00d);
    std::vector<uint32_t> xs(n), ys(n);
    for (unsigned i = 0; i < n; ++i) {
        xs[i] = data_rng.next();
        ys[i] = data_rng.next();
    }
    // Include edge values.
    xs[0] = 0;
    ys[0] = 0;
    xs[1] = 0x80000000u;
    ys[1] = 0xffffffffu;
    xs[2] = 0x7fffffffu;
    ys[2] = 1;

    // One launch of the seed's kernel over @p grid blocks of 32 threads
    // on @p sms SMs of 4 block slots each; returns out[].
    const auto run = [&](uint64_t seed, HostFn &host, unsigned sms,
                         unsigned grid) {
        simt::SmConfig cfg = mode == Mode::Purecap
                                 ? simt::SmConfig::cheriOptimised()
                                 : simt::SmConfig::baseline();
        cfg.numWarps = 4;
        cfg.numSms = sms;
        Device dev(cfg, mode);
        Buffer bx = dev.alloc(n * 4);
        Buffer by = dev.alloc(n * 4);
        Buffer bo = dev.alloc(n * 4);
        dev.write32(bx, xs);
        dev.write32(by, ys);

        FuzzKernel k(seed, &host);
        nocl::LaunchConfig lc;
        lc.blockDim = 32;
        lc.gridDim = grid;
        const nocl::RunResult r = dev.launch(
            k, lc,
            {Arg::integer(static_cast<int32_t>(n)), Arg::buffer(bx),
             Arg::buffer(by), Arg::buffer(bo)});
        EXPECT_TRUE(r.completed);
        EXPECT_FALSE(r.trapped) << r.trapKind;
        EXPECT_FALSE(r.mergeFallback);
        return dev.read32(bo);
    };

    for (uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        HostFn host;
        const std::vector<uint32_t> out = run(seed, host, 1, n / 32);
        ASSERT_TRUE(host != nullptr);
        for (unsigned i = 0; i < n; ++i) {
            ASSERT_EQ(out[i], host(xs[i], ys[i]))
                << "element " << i << " x=" << xs[i] << " y=" << ys[i];
        }

        // The same kernel sharded over 2 and 4 SMs, with a seeded grid
        // of 1 to 3 rounds of every slot: block placement must not
        // change the result, which must equal the (host-checked) 1-SM
        // output.
        support::Rng grid_rng(seed);
        for (unsigned sms : {2u, 4u}) {
            const unsigned slots = sms * 4;
            const unsigned grid = 1 + grid_rng.nextBounded(3 * slots);
            SCOPED_TRACE(std::to_string(sms) + " SMs, grid " +
                         std::to_string(grid));
            ASSERT_EQ(run(seed, host, sms, grid), out);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, FuzzModes,
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
