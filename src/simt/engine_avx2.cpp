/**
 * @file
 * AVX2 packed lane ALU: each handler executes a warp's fixed-width
 * lane arrays in 8-lane blocks over packed 32-bit registers, skipping
 * blocks with no active lane.
 *
 * Bit-identity argument (DESIGN.md section 10): the covered set is the
 * ops with the packed bit in alu.hpp's table, two's-complement integer
 * ops whose AVX2 instruction semantics equal the table's lane function
 * on every input -- wraparound add/sub/mul-low, bitwise logic, compares
 * materialised as 0/1, and shifts with the count masked to 5 bits as
 * the lane functions do (b & 31 / imm & 31). Unsigned compares flip the
 * sign bit and use the signed compare. Affine operands are expanded
 * with the same base + stride * lane arithmetic (32-bit wraparound in
 * both paths). Inactive lanes are preserved by a mask blend against
 * the previous result values, matching the reference loop, which never
 * touches them. Floating point is deliberately uncovered. These loops
 * are an implementation independent of the table, so
 * test_fastpath_parity checks them against its lane functions on edge
 * operands; this file does not include alu.hpp.
 *
 * This translation unit is compiled with -mavx2 (CMake adds the flag
 * per-source); nothing here runs unless runtime dispatch selected the
 * AVX2 backend (engine::avx2Selected).
 */

#include "simt/engine.hpp"

#ifdef CHERI_SIMT_HAVE_AVX2

#include <immintrin.h>

namespace simt
{
namespace engine
{

namespace
{

using isa::Op;

__m256i
laneIndices()
{
    return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/** Expand 8 lanes of an operand descriptor starting at @p lane_base. */
__m256i
loadOperand(const DataDesc &d, unsigned lane_base)
{
    if (d.kind == DataDesc::Kind::Lanes) {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(d.lanes + lane_base));
    }
    const __m256i idx = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(lane_base)), laneIndices());
    return _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(d.base)),
        _mm256_mullo_epi32(_mm256_set1_epi32(d.stride), idx));
}

/** The lanes of @p active in the block at @p lane_base as all-ones
 *  32-bit elements. */
__m256i
activeMask(LaneMask active, unsigned lane_base)
{
    const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i block =
        _mm256_set1_epi32(static_cast<int>(active >> lane_base));
    return _mm256_cmpeq_epi32(_mm256_and_si256(block, bits), bits);
}

/** Store 8 results, preserving inactive lanes' previous values. */
void
blendStore(uint32_t *result, LaneMask active, unsigned lane_base,
           __m256i vals)
{
    const __m256i old = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(result + lane_base));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(result + lane_base),
                        _mm256_blendv_epi8(old, vals,
                                           activeMask(active, lane_base)));
}

/** A full-mask compare becomes the scalar paths' 0/1 result. */
__m256i
cmpToBool(__m256i cmp)
{
    return _mm256_srli_epi32(cmp, 31);
}

/** Flip the sign bit: unsigned a < b == signed flip(a) < flip(b). */
__m256i
flipSign(__m256i v)
{
    return _mm256_xor_si256(
        v, _mm256_set1_epi32(static_cast<int>(0x80000000u)));
}

__m256i
maskShiftCount(__m256i b)
{
    return _mm256_and_si256(b, _mm256_set1_epi32(31));
}

/**
 * Run @p vf over the 8-lane blocks holding an active lane. @p vf
 * receives (a, b, vimm, imm), with expressions matching the lane
 * functions of alu.hpp.
 */
template <typename VF>
void
packedLoop(const AluCtx &c, VF vf)
{
    const __m256i vimm = _mm256_set1_epi32(c.imm);
    for (unsigned lane = 0; lane < kMaxLanes; lane += 8) {
        if (((c.active >> lane) & 0xff) == 0)
            continue;
        const __m256i a = loadOperand(*c.rs1, lane);
        const __m256i b = loadOperand(*c.rs2, lane);
        blendStore(c.result, c.active, lane, vf(a, b, vimm, c.imm));
    }
}

/** 8 lanes' byte offsets from ctx.ram (32-bit wraparound arithmetic,
 *  exactly like the scalar address loop). */
__m256i
laneOffsets(const MemCtx &c, unsigned lane_base)
{
    const __m256i idx = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(lane_base)), laneIndices());
    return _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(c.addr0)),
        _mm256_mullo_epi32(_mm256_set1_epi32(c.stride), idx));
}

/** One lane's bytes in ctx.ram (32-bit wraparound offset arithmetic,
 *  like laneOffsets). */
uint8_t *
at(const MemCtx &c, unsigned lane)
{
    return c.ram + (c.addr0 + static_cast<uint32_t>(c.stride) * lane);
}

/** Partial blocks and sub-word lanes in this x86-only TU: unaligned host
 *  loads and stores of little-endian words match MemShard's byte
 *  assembly bit-for-bit. */
template <typename T>
T
loadHost(const uint8_t *p)
{
    T v;
    __builtin_memcpy(&v, p, sizeof(T));
    return v;
}

template <typename T>
void
storeHost(uint8_t *p, T v)
{
    __builtin_memcpy(p, &v, sizeof(T));
}

} // namespace

AluLoopFn
avx2AluHandler(Op op)
{
#define PACKED_CASE(opname, vexpr)                                       \
    case Op::opname:                                                     \
        return +[](const AluCtx &c) {                                    \
            packedLoop(c, [](__m256i a, __m256i b, __m256i vimm,         \
                             int32_t imm) {                              \
                (void)a; (void)b; (void)vimm; (void)imm;                 \
                return (vexpr);                                          \
            });                                                          \
        }

    switch (op) {
        PACKED_CASE(ADDI, _mm256_add_epi32(a, vimm));
        PACKED_CASE(SLTI, cmpToBool(_mm256_cmpgt_epi32(vimm, a)));
        PACKED_CASE(SLTIU, cmpToBool(_mm256_cmpgt_epi32(flipSign(vimm),
                                                        flipSign(a))));
        PACKED_CASE(XORI, _mm256_xor_si256(a, vimm));
        PACKED_CASE(ORI, _mm256_or_si256(a, vimm));
        PACKED_CASE(ANDI, _mm256_and_si256(a, vimm));
        PACKED_CASE(SLLI, _mm256_slli_epi32(a, imm & 31));
        PACKED_CASE(SRLI, _mm256_srli_epi32(a, imm & 31));
        PACKED_CASE(SRAI, _mm256_srai_epi32(a, imm & 31));
        PACKED_CASE(ADD, _mm256_add_epi32(a, b));
        PACKED_CASE(SUB, _mm256_sub_epi32(a, b));
        PACKED_CASE(SLL, _mm256_sllv_epi32(a, maskShiftCount(b)));
        PACKED_CASE(SLT, cmpToBool(_mm256_cmpgt_epi32(b, a)));
        PACKED_CASE(SLTU,
                    cmpToBool(_mm256_cmpgt_epi32(flipSign(b), flipSign(a))));
        PACKED_CASE(XOR, _mm256_xor_si256(a, b));
        PACKED_CASE(SRL, _mm256_srlv_epi32(a, maskShiftCount(b)));
        PACKED_CASE(SRA, _mm256_srav_epi32(a, maskShiftCount(b)));
        PACKED_CASE(OR, _mm256_or_si256(a, b));
        PACKED_CASE(AND, _mm256_and_si256(a, b));
        PACKED_CASE(MUL, _mm256_mullo_epi32(a, b));
      default:
        return nullptr;
    }
#undef PACKED_CASE
}

MemLoopFn
avx2MemHandler(Op op)
{
    switch (op) {
      case Op::LW:
        // Word gather: masked so inactive lanes keep their previous
        // result_ values (matching the reference loop, which never
        // touches them). Byte-granular offsets (scale 1); page offsets
        // fit int32.
        return +[](const MemCtx &c) {
            for (unsigned lane = 0; lane < kMaxLanes; lane += 8) {
                if (((c.active >> lane) & 0xff) == 0)
                    continue;
                const __m256i old = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(c.result + lane));
                const __m256i vals = _mm256_mask_i32gather_epi32(
                    old, reinterpret_cast<const int *>(c.ram),
                    laneOffsets(c, lane), activeMask(c.active, lane), 1);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(c.result + lane), vals);
            }
        };
      case Op::LHU:
        return +[](const MemCtx &c) {
            forLanes(c.active, [&](unsigned lane) {
                c.result[lane] = loadHost<uint16_t>(at(c, lane));
            });
        };
      case Op::LH:
        return +[](const MemCtx &c) {
            forLanes(c.active, [&](unsigned lane) {
                c.result[lane] = static_cast<uint32_t>(static_cast<int32_t>(
                    static_cast<int16_t>(loadHost<uint16_t>(at(c, lane)))));
            });
        };
      case Op::LBU:
        return +[](const MemCtx &c) {
            forLanes(c.active,
                     [&](unsigned lane) { c.result[lane] = *at(c, lane); });
        };
      case Op::LB:
        return +[](const MemCtx &c) {
            forLanes(c.active, [&](unsigned lane) {
                c.result[lane] = static_cast<uint32_t>(
                    static_cast<int32_t>(static_cast<int8_t>(*at(c, lane))));
            });
        };
      case Op::SW:
        // Contiguous warp stores (the overwhelmingly common stride-4
        // case) move 8 words at a time when the whole 8-lane group is
        // active. A group with inactive lanes stays scalar: the bounds
        // proof only covers active lanes' addresses, so a full-span
        // read-modify-write could touch unproven bytes. The lanes'
        // words are distinct, so the order of the stores is immaterial.
        return +[](const MemCtx &c) {
            LaneMask scalar = c.active;
            for (unsigned lane = 0; c.stride == 4 && lane < kMaxLanes;
                 lane += 8) {
                if (((c.active >> lane) & 0xff) != 0xff)
                    continue;
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(at(c, lane)),
                    loadOperand(*c.rs2, lane));
                scalar &= ~(LaneMask{0xff} << lane);
            }
            forLanes(scalar, [&](unsigned lane) {
                storeHost<uint32_t>(at(c, lane), c.rs2->at(lane));
            });
        };
      case Op::SH:
        return +[](const MemCtx &c) {
            forLanes(c.active, [&](unsigned lane) {
                storeHost<uint16_t>(at(c, lane),
                                    static_cast<uint16_t>(c.rs2->at(lane)));
            });
        };
      case Op::SB:
        return +[](const MemCtx &c) {
            forLanes(c.active, [&](unsigned lane) {
                *at(c, lane) = static_cast<uint8_t>(c.rs2->at(lane));
            });
        };
      default:
        return nullptr;
    }
}

} // namespace engine
} // namespace simt

#endif // CHERI_SIMT_HAVE_AVX2
