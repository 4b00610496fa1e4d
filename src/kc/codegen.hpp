/**
 * @file
 * Code generation from kernel IR to the simulated machine.
 *
 * Three modes mirror the paper's configurations:
 *
 *  - Baseline:   pointers are 32-bit integers; no safety.
 *  - Purecap:    pointers are capabilities. Kernel arguments arrive as
 *                capabilities in the argument block (loaded with CLC);
 *                shared arrays and the per-thread stack are derived with
 *                CSetBounds from the DDC/STC special registers; pointer
 *                arithmetic lowers to CIncOffset. This is the paper's
 *                "simply recompile for full spatial safety" path.
 *  - SoftBounds: the Rust-port model (Section 4.7): integer pointers plus
 *                compiler-inserted bounds checks. Accesses whose index is
 *                not statically relatable to a slice length fall back to
 *                unchecked (the Rust port's unsafe blocks); the count of
 *                such accesses is reported.
 *
 * The generated program embeds the NoCL dispatch loop: every hardware
 * thread iterates over the virtual blocks assigned to its block slot,
 * with threadIdx affine and blockIdx uniform across each warp -- the
 * value regularity the compressed register file exploits.
 */

#ifndef CHERI_SIMT_KC_CODEGEN_HPP_
#define CHERI_SIMT_KC_CODEGEN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "kc/ir.hpp"

namespace kc
{

struct CompileOptions
{
    enum class Mode
    {
        Baseline,
        Purecap,
        SoftBounds,
    };

    Mode mode = Mode::Baseline;

    /** Launch geometry (compile-time, as NoCL compiles per launch). */
    unsigned blockDim = 256; ///< threads per block (power of two >= warp)
    unsigned gridDim = 1;    ///< blocks in the grid

    /** Hardware threads across the whole device (all SMs). */
    unsigned numThreads = 2048;

    /**
     * SMs sharing the grid (numThreads covers all of them, P block
     * slots per SM). Each SM takes a contiguous chunk of
     * c = ceil(gridDim / (numSms * rounds)) <= P blocks per round,
     * rounds = ceil(gridDim / (numSms * P)): its local slot j < c starts
     * at block k * c + j and strides by numSms * c, and slots j >= c
     * exit at once. The scratchpad partition is the local slot. When
     * c == P (always for 1 SM) this is the identity mapping and the
     * code is exactly the single-SM shape (DESIGN.md section 8).
     */
    unsigned numSms = 1;

    /** Per-thread stack bytes (power of two). */
    unsigned stackBytes = 512;

    /**
     * Limit on registers that may hold capabilities (0 = no limit).
     * With a limit of N, the compiler places every capability in
     * x0..x(N-1), so the hardware's capability-metadata SRF only needs
     * entries for N registers per thread (the paper's Section 4.3
     * forecast: N = 16 halves the metadata SRF, 7%% storage overhead).
     */
    unsigned capRegLimit = 0;
};

/** Layout of one kernel argument in the argument block. */
struct ParamSlot
{
    bool isPtr = false;
    unsigned offset = 0;    ///< byte offset in the argument block
    unsigned elemBytes = 4; ///< element size for pointer length slots
};

struct CompiledKernel
{
    std::string name;    ///< kernel name (from the IR)
    std::vector<uint32_t> code;
    std::string listing; ///< disassembly for debugging

    std::vector<ParamSlot> params;
    unsigned paramBlockBytes = 0;
    unsigned sharedBytes = 0;
    unsigned localBytes = 0;

    /** Registers that ever hold capabilities (Figure 11). */
    uint32_t capRegMask = 0;
    unsigned capRegCount = 0;

    unsigned regsUsed = 0;

    /** SoftBounds: accesses compiled without a check (unsafe fallback). */
    unsigned uncheckedAccesses = 0;

    /**
     * irFingerprint of the source IR (set by compile()). Stable kernel
     * identity across configurations -- the launch layer keys
     * checkpoint images with it.
     */
    uint64_t fingerprint = 0;
};

/** Compile a kernel IR for the given options. */
CompiledKernel compile(const KernelIr &ir, const CompileOptions &opt);

/**
 * Structural fingerprint of a kernel IR (FNV-1a over every node). Two
 * kernels with the same fingerprint compile identically under the same
 * options, so (fingerprint, options) keys a compilation cache; kernels
 * that share a name but are parameterised differently (e.g. a workload
 * size baked into loop bounds) hash differently.
 */
uint64_t irFingerprint(const KernelIr &ir);

/** Address of the kernel-argument block in simulated DRAM. */
uint32_t argBlockAddress();

/** Base of the per-thread stack region for the given launch options. */
uint32_t stackRegionBase(const CompileOptions &opt);

} // namespace kc

#endif // CHERI_SIMT_KC_CODEGEN_HPP_
