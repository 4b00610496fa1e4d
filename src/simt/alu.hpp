/**
 * @file
 * The semantics of the trap-free ALU data ops, written once (DESIGN.md
 * section 10). Each row of the table gives an op's lane function
 * (a, b, imm) -> r and its packed bit (an AVX2 loop in engine_avx2.cpp
 * computes the same function bit-for-bit); transfer() gives the
 * descriptor rules, the closed forms of a result over uniform and affine
 * operands. Sm::executeAluLane, the scalar lane-loop handlers, the
 * closed forms of Sm::execAlu and the fusion pass's packed class all
 * derive from here. Every accessor is an inline switch over the op, so
 * a caller instantiated for one op folds to that op's expression.
 *
 * Both engines read these lane functions, so their agreement is no
 * evidence for them: test_fastpath_parity checks the table itself.
 */

#ifndef CHERI_SIMT_SIMT_ALU_HPP_
#define CHERI_SIMT_SIMT_ALU_HPP_

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "isa/instr.hpp"
#include "simt/regfile.hpp"

namespace simt
{
namespace alu
{

using isa::Op;

namespace detail
{

constexpr uint32_t u(int32_t v) { return static_cast<uint32_t>(v); }
constexpr int32_t s(uint32_t v) { return static_cast<int32_t>(v); }
constexpr float asFloat(uint32_t v) { return std::bit_cast<float>(v); }
constexpr uint32_t asBits(float f) { return std::bit_cast<uint32_t>(f); }

/** RISC-V's canonical NaN, the result of every op that makes a NaN. */
constexpr uint32_t kCanonicalNan = 0x7fc00000u;

/** A float result's bits, any NaN canonical. */
constexpr uint32_t
fbits(float f)
{
    return f != f ? kCanonicalNan : asBits(f);
}

/** FMIN_S / FMAX_S: -0 orders below +0; one NaN operand yields the
 *  other operand, two yield the canonical NaN. */
constexpr uint32_t
fminmax(uint32_t a, uint32_t b, bool max)
{
    const float x = asFloat(a), y = asFloat(b);
    if (x != x)
        return y != y ? kCanonicalNan : b;
    if (y != y)
        return a;
    if (x == y) // equal values differ in bits only as -0 and +0
        return max ? a & b : a | b;
    return (x < y) != max ? a : b;
}

/** FCVT_W_S (@p is_signed) / FCVT_WU_S, rounding toward zero and
 *  saturating out of range; NaN converts to the maximum. */
constexpr uint32_t
fcvt(uint32_t a, bool is_signed)
{
    const float x = asFloat(a);
    if (is_signed) {
        if (x != x || x >= 2147483648.0f)
            return 0x7fffffffu;
        if (x < -2147483648.0f)
            return 0x80000000u;
        return u(static_cast<int32_t>(x));
    }
    if (x != x || x >= 4294967296.0f)
        return 0xffffffffu;
    if (x <= -1.0f)
        return 0;
    return static_cast<uint32_t>(x);
}

} // namespace detail

// ROW(op, packed bit, lane function of a, b and imm). Comparisons yield
// 0 or 1; shifts take the low five bits of the count. Division never
// traps: x / 0 is all ones and x % 0 is x; the one overflowing quotient,
// INT32_MIN / -1, is INT32_MIN with remainder 0. Float ops follow
// RISC-V: a NaN result is the canonical NaN, FMIN/FMAX order -0 below +0
// and prefer a number to a NaN, and conversions to integer saturate.
#define CHERI_SIMT_ALU_TABLE(ROW)                                            \
    ROW(LUI, false, u(imm))                                                  \
    ROW(ADDI, true, a + u(imm))                                              \
    ROW(SLTI, true, s(a) < imm)                                              \
    ROW(SLTIU, true, a < u(imm))                                             \
    ROW(XORI, true, a ^ u(imm))                                              \
    ROW(ORI, true, a | u(imm))                                               \
    ROW(ANDI, true, a & u(imm))                                              \
    ROW(SLLI, true, a << (imm & 31))                                         \
    ROW(SRLI, true, a >> (imm & 31))                                         \
    ROW(SRAI, true, u(s(a) >> (imm & 31)))                                   \
    ROW(ADD, true, a + b)                                                    \
    ROW(SUB, true, a - b)                                                    \
    ROW(SLL, true, a << (b & 31))                                            \
    ROW(SLT, true, s(a) < s(b))                                              \
    ROW(SLTU, true, a < b)                                                   \
    ROW(XOR, true, a ^ b)                                                    \
    ROW(SRL, true, a >> (b & 31))                                            \
    ROW(SRA, true, u(s(a) >> (b & 31)))                                      \
    ROW(OR, true, a | b)                                                     \
    ROW(AND, true, a & b)                                                    \
    ROW(MUL, true, a * b)                                                    \
    ROW(MULH, false,                                                         \
        static_cast<uint32_t>((static_cast<int64_t>(s(a)) * s(b)) >> 32))    \
    ROW(MULHSU, false, static_cast<uint32_t>(                                \
            (static_cast<int64_t>(s(a)) * static_cast<uint64_t>(b)) >> 32))  \
    ROW(MULHU, false,                                                        \
        static_cast<uint32_t>((static_cast<uint64_t>(a) * b) >> 32))         \
    ROW(DIV, false,                                                          \
        b == 0 ? 0xffffffffu                                                 \
        : s(a) == INT32_MIN && s(b) == -1 ? a : u(s(a) / s(b)))              \
    ROW(DIVU, false, b == 0 ? 0xffffffffu : a / b)                           \
    ROW(REM, false,                                                          \
        b == 0 ? a : s(a) == INT32_MIN && s(b) == -1 ? 0 : u(s(a) % s(b)))   \
    ROW(REMU, false, b == 0 ? a : a % b)                                     \
    ROW(FADD_S, false, fbits(asFloat(a) + asFloat(b)))                       \
    ROW(FSUB_S, false, fbits(asFloat(a) - asFloat(b)))                       \
    ROW(FMUL_S, false, fbits(asFloat(a) * asFloat(b)))                       \
    ROW(FDIV_S, false, fbits(asFloat(a) / asFloat(b)))                       \
    ROW(FSQRT_S, false, fbits(std::sqrt(asFloat(a))))                        \
    ROW(FMIN_S, false, fminmax(a, b, false))                                 \
    ROW(FMAX_S, false, fminmax(a, b, true))                                  \
    ROW(FCVT_W_S, false, fcvt(a, true))                                      \
    ROW(FCVT_WU_S, false, fcvt(a, false))                                    \
    ROW(FCVT_S_W, false, asBits(static_cast<float>(s(a))))                   \
    ROW(FCVT_S_WU, false, asBits(static_cast<float>(a)))                     \
    ROW(FEQ_S, false, asFloat(a) == asFloat(b))                              \
    ROW(FLT_S, false, asFloat(a) < asFloat(b))                               \
    ROW(FLE_S, false, asFloat(a) <= asFloat(b))                              \
    ROW(CGETADDR, false, a)

/** Is @p op a row of the table: a trap-free op whose only effect is
 *  writing its lane function's value to each active lane's rd? */
constexpr bool
covers(Op op)
{
    switch (op) {
#define ROW(name, packed, expr) case Op::name: return true;
        CHERI_SIMT_ALU_TABLE(ROW)
#undef ROW
      default: return false;
    }
}

/** Does an AVX2 loop compute @p op's lane function bit-for-bit? */
constexpr bool
packed(Op op)
{
    switch (op) {
#define ROW(name, packed, expr) case Op::name: return packed;
        CHERI_SIMT_ALU_TABLE(ROW)
#undef ROW
      default: return false;
    }
}

/** One lane's result of table op @p op (0 for an op outside it). Always
 *  inlined: the per-lane interpreter must not pay a call per lane. */
[[gnu::always_inline]] constexpr uint32_t
lane(Op op, uint32_t a, uint32_t b, int32_t imm)
{
    using namespace detail;
    switch (op) {
#define ROW(name, packed, expr) case Op::name: return (expr);
        CHERI_SIMT_ALU_TABLE(ROW)
#undef ROW
      default: return 0;
    }
}

#undef CHERI_SIMT_ALU_TABLE

/**
 * The transfer rules: table op @p op's result as a closed-form
 * descriptor d, with d.at(l) == lane(op, d1.at(l), d2.at(l), imm) for
 * every lane l, or nullopt where the op has no rule for these operands.
 * Base and stride wrap at 32 bits, as the lane values do.
 */
inline std::optional<DataDesc>
transfer(Op op, const DataDesc &d1, const DataDesc &d2, int32_t imm)
{
    using detail::u;
    const auto affine = [](uint32_t base, uint32_t stride) {
        return DataDesc{DataDesc::Kind::Affine, base, detail::s(stride)};
    };
    const bool r1 = d1.isRegular(), r2 = d2.isRegular();
    const uint32_t s1 = u(d1.stride), s2 = u(d2.stride);
    switch (op) {
      case Op::LUI:
        return affine(u(imm), 0);
      case Op::ADDI:
        if (!r1)
            break;
        return affine(d1.base + u(imm), s1);
      case Op::ADD:
        if (!(r1 && r2))
            break;
        return affine(d1.base + d2.base, s1 + s2);
      case Op::SUB:
        if (!(r1 && r2))
            break;
        return affine(d1.base - d2.base, s1 - s2);
      case Op::SLLI:
        if (!r1)
            break;
        return affine(d1.base << (imm & 31), s1 << (imm & 31));
      case Op::MUL: // affine times uniform, in either order
        if (r1 && d2.isUniform())
            return affine(d1.base * d2.base, s1 * d2.base);
        if (d1.isUniform() && r2)
            return affine(d1.base * d2.base, d1.base * s2);
        break;
      case Op::CGETADDR:
        if (!r1)
            break;
        return affine(d1.base, s1);
      default:
        break;
    }
    return std::nullopt;
}

} // namespace alu
} // namespace simt

#endif // CHERI_SIMT_SIMT_ALU_HPP_
