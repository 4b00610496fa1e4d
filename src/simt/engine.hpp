/**
 * @file
 * Execute layer of the accelerated host engine (DESIGN.md section
 * 10): threaded-code dispatch tables over the decoded program, the
 * packed host-SIMD lane ALU and memory handlers, and the process-wide
 * decoded-program cache.
 *
 * The trap-free ALU ops (the rows of alu.hpp's table) run through a
 * handler pointer resolved at decode time, one indirect call per
 * warp-instruction. Each op has a scalar lane loop, instantiated from
 * its row's lane function, and the integer ops with the packed bit also
 * an AVX2 loop, which the accelerated engine prefers. The AVX2 loops are
 * written separately; test_fastpath_parity checks them against the lane
 * functions.
 *
 * Handler tables are pure functions of the opcode and of process-wide
 * runtime dispatch (AVX2 cpuid + the CHERI_SIMT_FORCE_SCALAR
 * environment override, both latched on first use), so they are safe to
 * share across Sm instances via the decoded-program cache.
 */

#ifndef CHERI_SIMT_SIMT_ENGINE_HPP_
#define CHERI_SIMT_SIMT_ENGINE_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instr.hpp"
#include "simt/config.hpp"
#include "simt/regfile.hpp"

namespace simt
{
namespace engine
{

/** Operands of one vector ALU lane loop (all pointers borrowed). */
struct AluCtx
{
    const DataDesc *rs1;
    const DataDesc *rs2;
    LaneMask active;  ///< the lanes to execute (bit i = lane i)
    uint32_t *result; ///< kMaxLanes results; inactive lanes untouched
    int32_t imm;
};

/** A resolved lane-loop handler ("threaded code" dispatch target). */
using AluLoopFn = void (*)(const AluCtx &);

/**
 * Scalar handler for @p op: the lane loop of its row of alu.hpp's
 * table, or nullptr for an op outside the table, which needs the
 * per-lane path (capability ops, CSRs, control flow, ...).
 */
AluLoopFn aluLoopHandler(isa::Op op);

/**
 * The accelerated engine's handler for @p op under the current runtime
 * dispatch: the AVX2 loop when one exists and AVX2 is selected, else
 * the scalar handler (nullptr when the op needs the per-lane path).
 */
AluLoopFn packedAluHandler(isa::Op op);

/**
 * AVX2 lane loop for @p op, or nullptr when uncovered. Defined in
 * engine_avx2.cpp (compiled with -mavx2) when CMake detects support,
 * else stubbed to nullptr in engine.cpp. Internal to the engine layer:
 * callers want packedAluHandler, which applies runtime dispatch.
 */
AluLoopFn avx2AluHandler(isa::Op op);

/** AVX2 handlers compiled into this binary? (CMake-time gate.) */
bool avx2Compiled();

/** AVX2 selected at runtime (compiled + cpuid + no forced-scalar)? */
bool avx2Selected();

/**
 * Superinstruction fusion selected at runtime? Fusion is a pure
 * decode-time annotation pass, so it works on any host; only the
 * CHERI_SIMT_FORCE_SCALAR environment override disables it (the
 * forced-scalar parity legs must exercise the unfused dispatch).
 * Latched on first use, like avx2Selected().
 */
bool fusionSelected();

// ---- Packed memory lanes ----
//
// When Sm::memAffine (the accelerated memory step) has proved a
// warp-wide bounds/tag/alignment verdict and every lane falls in one
// 4 KiB DRAM page, the remaining per-lane work is pure data movement
// over the SM's private little-endian copy of that page
// (MemShard::pageData).
// These handlers perform exactly that movement (AVX2 gather/blend when
// selected, an explicit little-endian scalar loop otherwise), leaving
// timing, word marks, tag maintenance and trap logic with the caller --
// so the functional result is bit-identical to the per-lane loadValue /
// storeValue loops by construction (DESIGN.md section 12).

/** Operands of one packed memory lane loop (all pointers borrowed).
 *  Lane byte offsets from @p ram are addr0 + stride * lane, evaluated
 *  in 32-bit arithmetic exactly like the scalar address loop. */
struct MemCtx
{
    uint8_t *ram;        ///< the shard's private copy of one page
    LaneMask active;     ///< the lanes to access (bit i = lane i)
    uint32_t *result;    ///< load destination; inactive lanes untouched
    const DataDesc *rs2; ///< store source values
    uint32_t addr0;      ///< lane-0 byte offset from @p ram
    int32_t stride;      ///< per-lane byte stride
};

/** A resolved packed memory lane-loop handler. */
using MemLoopFn = void (*)(const MemCtx &);

/**
 * Packed memory handler for @p op under the current runtime dispatch
 * (AVX2 when available, else the explicit little-endian scalar loop),
 * or nullptr when the op is not a plain scalar-width DRAM load/store
 * (capability and atomic accesses always take the reference path).
 */
MemLoopFn packedMemHandler(isa::Op op);

/** AVX2 memory lane loop for @p op (internal; see avx2AluHandler). */
MemLoopFn avx2MemHandler(isa::Op op);

// ---- Superinstruction fusion ----

/**
 * Recognised 2-4 instruction idioms. Fusion is an annotation over the
 * decoded program: execution still retires one instruction per
 * scheduler slot (preserving issue timing, per-slot DRAM ordering and
 * exact trapAddr reporting), but instructions inside a fused block
 * dispatch through specialised handlers -- the packed memory lane
 * loops for member loads/stores, the packed ALU loops for member ALU
 * ops. Jumping into the middle of a block is safe by construction:
 * the annotations never change what one instruction does.
 */
enum class FusedKind : uint8_t
{
    None = 0,
    AddrGenLoad,  ///< addr-gen ALU feeding a load's base register
    LoadAlu,      ///< load(s) feeding a packed-coverable ALU op
    CmpBranch,    ///< compare materialising a predicate for a branch
    AddrGenStore, ///< addr-gen ALU feeding a store's base or data
    LoadStore,    ///< load feeding a store's data (copy idiom)
};

/**
 * A program decoded once and shared across Sm instances, with the
 * threaded-dispatch tables resolved per instruction and the fusion
 * pass's annotations baked in. Decoding is a pure function of the
 * image words and the process-wide runtime dispatch (both latched), so
 * the fused program is decided once per fingerprint and replayed
 * deterministically across repeats and SM counts.
 */
struct DecodedProgram
{
    std::vector<isa::Instr> instrs;

    /** Lane-loop handler per instruction, from packedAluHandler()
     *  (nullptr: per-lane path). */
    std::vector<AluLoopFn> aluLoop;

    /** Packed memory handler per instruction; installed only inside
     *  fused blocks (nullptr: reference functional loops). */
    std::vector<MemLoopFn> memLoop;

    /** Fused-block id per instruction (0: not fused; ids are 1-based
     *  in program order). */
    std::vector<uint32_t> fusedId;

    /** FusedKind of the block, on its head instruction only. */
    std::vector<uint8_t> fusedKind;

    /** Block length in instructions, on its head only. */
    std::vector<uint8_t> fusedLen;

    size_t size() const { return instrs.size(); }
};

/** Decode @p words, resolve the dispatch tables and run the fusion
 *  pass. */
DecodedProgram decodeProgram(const std::vector<uint32_t> &words);

/** Fusion-pass totals (tests and coverage reports). */
struct FusionSummary
{
    uint64_t blocks = 0;
    uint64_t fusedInstrs = 0;
};
FusionSummary fusionSummary(const DecodedProgram &p);

/**
 * The decoded program for @p words from the process-wide cache,
 * decoding it on first use. Benchmark harnesses construct one Sm per
 * configuration point but run the same few kernel images, so each image
 * is decoded once per process. Safe to share because decodeProgram is a
 * pure function of the image and of the latched runtime dispatch.
 * Thread-safe.
 */
std::shared_ptr<const DecodedProgram>
sharedProgram(const std::vector<uint32_t> &words);

/**
 * Drop the process-wide decoded-program cache, the one engine cache
 * left, so the next launch of every image decodes cold (benchmark
 * set-up and determinism tests). Programs already loaded into an Sm
 * stay valid.
 */
void clearEngineDecisions();

} // namespace engine
} // namespace simt

#endif // CHERI_SIMT_SIMT_ENGINE_HPP_
