/**
 * @file
 * Configuration of the simulated SIMTight-style streaming multiprocessor.
 *
 * The three configurations evaluated in the paper (Section 4.1) map to
 * presets of this struct:
 *
 *  - Baseline:         purecap off; compressed general-purpose register
 *                      file with a 3/8-size VRF.
 *  - CHERI:            purecap on; the capability-metadata register file is
 *                      not compressed; no CHERI instructions in the shared
 *                      function unit; dynamic PC metadata.
 *  - CHERI (Optimised): purecap on; compressed metadata register file with
 *                      the shared VRF, the null-value optimisation, a
 *                      single-read-port metadata SRF (CSC pays one extra
 *                      cycle), SFU offload of bounds instructions, and the
 *                      static PC metadata restriction.
 */

#ifndef CHERI_SIMT_SIMT_CONFIG_HPP_
#define CHERI_SIMT_SIMT_CONFIG_HPP_

#include <cstdint>
#include <vector>

#include "simt/faultinject.hpp"

namespace simt
{

/**
 * Per-lane boolean mask (active lanes, halted threads, store tags).
 * One byte per lane: std::vector<bool>'s proxy bit addressing is a
 * measurable cost in the simulator's per-lane loops.
 */
using LaneMask = std::vector<uint8_t>;

/**
 * Host-side execute engine (see DESIGN.md section 10). Engines differ
 * only in host speed: architectural state, modelled counters, memory
 * contents and trap records are bit-identical across all of them (the
 * 3-way parity suite proves it). Only the simhost_* throughput counters
 * may differ.
 */
enum class ExecEngine : uint8_t
{
    /**
     * Sample the fast-path hit rate over the first engineSampleWindow
     * warp-steps of a launch, then pick the cheapest engine for this
     * (kernel, configuration) and cache the decision process-wide.
     */
    Auto = 0,

    /** Reference per-lane interpreter; no descriptor fast paths. */
    Verbatim = 1,

    /**
     * Warp-regularity fast paths (scalarised execute, lazy operand
     * descriptors) with threaded-code dispatch on the residual vector
     * ALU path.
     */
    FastPath = 2,

    /**
     * FastPath plus the packed host-SIMD lane ALU (AVX2 when compiled
     * in and supported by the host, otherwise the scalar handler --
     * still bit-identical, just not faster than FastPath).
     */
    Simd = 3,
};

inline const char *
execEngineName(ExecEngine e)
{
    switch (e) {
      case ExecEngine::Auto: return "auto";
      case ExecEngine::Verbatim: return "verbatim";
      case ExecEngine::FastPath: return "fastpath";
      default: return "simd";
    }
}

/** Simulated physical memory map. */
constexpr uint32_t kTcimBase = 0x00000000;   ///< instruction memory
constexpr uint32_t kTcimSize = 1 << 16;      ///< 64 KiB
constexpr uint32_t kDramBase = 0x10000000;   ///< main memory
constexpr uint32_t kDramSize = 1 << 26;      ///< 64 MiB
constexpr uint32_t kSharedBase = 0x20000000; ///< scratchpad memory
constexpr uint32_t kSharedSize = 1 << 16;    ///< 64 KiB

/** SM configuration. */
struct SmConfig
{
    unsigned numWarps = 64;
    unsigned numLanes = 32;
    unsigned numRegs = 32;

    /** Enable CHERI: pure-capability code, tagged memory, bounds checks. */
    bool purecap = false;

    // ---- Register-file organisation ----

    /**
     * Capacity of the vector register file in vector registers. The
     * architectural total is numWarps*numRegs; the paper's baseline uses a
     * 3/8-size VRF (768 of 2,048 vector registers).
     */
    unsigned vrfCapacity = 768;

    /** Compress the capability-metadata register file (uniform vectors). */
    bool metaCompressed = false;

    /** Metadata vectors share the VRF with general-purpose vectors. */
    bool sharedVrf = false;

    /** Null-value optimisation: partial scalarisation with a null mask. */
    bool nvo = false;

    /**
     * Registers per thread with capability-metadata SRF entries. With
     * compiler support limiting capability-holding registers (Section
     * 4.3), the metadata SRF can cover fewer than numRegs registers;
     * writing a valid capability to an untracked register is a contract
     * violation. Defaults to numRegs (all registers tracked).
     */
    unsigned metaRegsTracked = 32;

    /**
     * Single-read-port capability-metadata SRF: CSC (which reads two
     * capability source operands) pays one extra operand-fetch cycle.
     */
    bool metaSrfSinglePort = false;

    // ---- Pipeline / SFU ----

    /** Execute bounds-manipulation CHERI instructions in the SFU. */
    bool sfuCheriOffload = false;

    /** PC metadata is set once per kernel launch and never changed. */
    bool staticPcMeta = false;

    /**
     * Host-side warp-regularity fast path: scalarise the execution of
     * instructions whose active-lane operands are uniform or affine.
     * Purely a simulator-speed optimisation -- architectural state, perf
     * counters and trap behaviour are bit-identical either way (see
     * DESIGN.md section 7). Exposed so the parity tests can force both
     * paths.
     */
    bool hostFastPath = true;

    /**
     * Execute-engine selection (only consulted when hostFastPath is
     * true; hostFastPath == false forces the Verbatim engine, keeping
     * the historical on/off switch meaningful for the parity tests).
     * The default Auto policy is the fix for the SPMV regression: a
     * kernel whose sampled hit rate is below engineMinHitRate stops
     * paying the descriptor-classification overhead and runs Verbatim.
     */
    ExecEngine engineSel = ExecEngine::Auto;

    /**
     * Warp-steps sampled (running the FastPath engine) before the Auto
     * policy decides. Kernels finishing earlier decide on the partial
     * sample at run end -- the whole run, which is the unbiased
     * estimate; the window only bounds how long a pathological first
     * launch keeps paying fast-path overhead. Deliberately large:
     * kernel prefixes (setup loops) are more regular than steady state,
     * and a biased early decision would be cached for every later
     * launch. The decision derives only from deterministic
     * architectural events, so it is reproducible across repeats.
     */
    unsigned engineSampleWindow = 32768;

    /**
     * Minimum sampled fast-path hit rate (simhost_fastpath_instrs /
     * simhost_instrs over the window) for a regularity engine to pay
     * for itself; below it Auto picks Verbatim. Re-calibrated for the
     * packed-memory/fusion engines against bench_simspeed: with fused
     * dispatch the descriptor-classification overhead is covered at far
     * lower regularity (every suite kernel now gains >=1.26x under the
     * fast engines, see EXPERIMENTS.md), so the guard only has to catch
     * pathologically irregular kernels.
     */
    double engineMinHitRate = 0.10;

    /**
     * Minimum share of sampled warp-steps retiring through a
     * packed-coverable vector ALU handler for Auto to prefer Simd over
     * FastPath (the two engines behave identically elsewhere).
     */
    double engineMinPackedShare = 0.02;

    /**
     * Steady-state re-sampling interval (warp-steps) for the Auto
     * policy: after the initial window decides, the engine re-opens a
     * cheap probe window every this many retired warp-steps so long
     * kernels whose regularity shifts mid-run can promote/demote
     * instead of being pinned by their prefix. 0 disables re-sampling
     * (one-shot policy, the pre-resampler behaviour). Engine flips are
     * architecturally invisible (all engines are bit-identical), so
     * re-sampling never perturbs modelled state.
     */
    unsigned engineResampleInterval = 131072;

    /**
     * Warp-steps measured per steady-state probe window. Small against
     * engineResampleInterval so the measurement overhead (probes run
     * the FastPath engine when the current engine is Verbatim) stays
     * well under 1%.
     */
    unsigned engineProbeWindow = 8192;

    /**
     * EWMA blend weight for a new probe's hit rate / packed share
     * against the running estimate (1.0 = trust only the newest probe).
     */
    double engineEwmaAlpha = 0.5;

    /**
     * Hysteresis margin around engineMinHitRate/engineMinPackedShare
     * for steady-state re-decisions: the EWMA must cross the threshold
     * by this much to flip an engine already in force, preventing
     * flapping at the boundary.
     */
    double engineHysteresis = 0.05;

    /** Pipeline depth: a warp re-issues this many cycles after issue. */
    unsigned pipelineDepth = 6;

    /** Integer divide latency (per-lane iterative divider). */
    unsigned divLatency = 16;

    /** Per-element SFU service time (serialised over active lanes). */
    unsigned sfuCyclesPerElem = 1;

    // ---- Memory subsystem ----

    unsigned dramLatency = 200;      ///< cycles from request to response
    unsigned dramBytesPerCycle = 32; ///< DRAM bandwidth
    unsigned coalesceBytes = 32;     ///< coalescing segment size
    unsigned scratchpadBanks = 32;

    /** Maintain memory tag bits via the tag controller. */
    bool taggedMem = false;

    unsigned tagCacheLines = 64;     ///< tag-cache capacity in lines
    unsigned tagCacheLineBytes = 32; ///< tag bits per line: 8 * this value

    /**
     * Root-table filter of the tag controller (Joannou et al.): regions
     * that have never held a capability are served without tag traffic.
     */
    bool tagRootFilter = true;

    /**
     * Stack cache (SIMTight's proof-of-concept stack cache): absorbs the
     * poorly-coalescing per-thread stack traffic. 0 lines disables it
     * entirely (all stack traffic goes through the coalescer and DRAM).
     *
     * A line holds one compressed (warp, slot-granule) entry covering
     * stackCacheLineBytes of warp stack data -- numLanes threads each
     * contributing stackCacheLineBytes / numLanes bytes -- and a miss
     * transfers the full line to/from DRAM. Must be a multiple of
     * 4 * numLanes. The default (512 = 32 lanes x 16 B) matches the
     * compiler's 16-byte stack slot granule.
     */
    unsigned stackCacheLines = 256;
    unsigned stackCacheLineBytes = 512;

    /** Per-thread stack bytes (matches the compiler's stack layout). */
    unsigned stackBytesPerThread = 512;

    // ---- Multi-SM grid sharding ----

    /**
     * Number of SMs sharing the device's DRAM. The grid's thread blocks
     * are split into contiguous chunks, an equal share per SM per round
     * (the placement rule is in kc::CompileOptions::numSms and DESIGN.md
     * section 8), and each SM runs on its own host worker thread (see
     * nocl::Device and simt::MemorySystem). The default of 1 is
     * bit-identical to the single-SM model.
     */
    unsigned numSms = 1;

    /** This SM's index in [0, numSms); selects its global-thread base. */
    unsigned smId = 0;

    // ---- Fault injection ----

    /**
     * At most one injected fault for this launch (see simt/faultinject.hpp).
     * Memory-site faults are applied once by the device to the shared
     * DRAM; runtime sites arm a per-SM FaultInjector on the SMs selected
     * by the plan's smMask. Default: disarmed, zero overhead.
     */
    FaultPlan faultPlan;

    // ---- Derived quantities ----

    unsigned numThreads() const { return numWarps * numLanes; }
    unsigned numVectorRegs() const { return numWarps * numRegs; }

    /** Hardware threads across all SMs of the device. */
    unsigned globalNumThreads() const { return numThreads() * numSms; }

    /** First global hartid of this SM (smId * threads-per-SM). */
    unsigned globalThreadBase() const { return smId * numThreads(); }

    /**
     * Base of the per-thread stack region at the top of DRAM. The region
     * covers the stacks of every SM's threads (globalNumThreads), so all
     * SMs agree on the device memory layout.
     */
    uint32_t
    stackRegionBase() const
    {
        return kDramBase + kDramSize -
               globalNumThreads() * stackBytesPerThread;
    }

    /** Base of this SM's slice of the stack region. */
    uint32_t
    smStackBase() const
    {
        return stackRegionBase() + globalThreadBase() * stackBytesPerThread;
    }

    /** Paper presets. */
    static SmConfig baseline();
    static SmConfig cheri();
    static SmConfig cheriOptimised();
};

inline SmConfig
SmConfig::baseline()
{
    SmConfig c;
    return c;
}

inline SmConfig
SmConfig::cheri()
{
    SmConfig c;
    c.purecap = true;
    c.taggedMem = true;
    c.metaCompressed = false;
    c.sharedVrf = false;
    c.nvo = false;
    c.metaSrfSinglePort = false;
    c.sfuCheriOffload = false;
    c.staticPcMeta = false;
    return c;
}

inline SmConfig
SmConfig::cheriOptimised()
{
    SmConfig c;
    c.purecap = true;
    c.taggedMem = true;
    c.metaCompressed = true;
    c.sharedVrf = true;
    c.nvo = true;
    c.metaSrfSinglePort = true;
    c.sfuCheriOffload = true;
    c.staticPcMeta = true;
    return c;
}

} // namespace simt

#endif // CHERI_SIMT_SIMT_CONFIG_HPP_
