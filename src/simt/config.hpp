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

#include <array>
#include <bit>
#include <cstdint>

#include "simt/faultinject.hpp"

namespace simt
{

/** Lanes a warp can hold: SmConfig::numLanes is 1..kMaxLanes. */
constexpr unsigned kMaxLanes = 32;

/**
 * Per-lane boolean mask (active lanes, halted threads, write masks, the
 * NVO null mask): bit i is lane i, so a whole warp is one word and
 * full-warp tests, popcounts and leader picks are single instructions.
 * Bits at and above numLanes are always clear.
 */
using LaneMask = uint32_t;

/**
 * One value per lane of a warp, fixed width so the lane loops have a
 * compile-time trip count. Lanes at and above numLanes hold no state.
 */
template <typename T>
using LaneArray = std::array<T, kMaxLanes>;

/** The mask of lanes 0..n-1 (n <= kMaxLanes). */
constexpr LaneMask
lowLanes(unsigned n)
{
    return n >= kMaxLanes ? ~LaneMask{0} : (LaneMask{1} << n) - 1;
}

/**
 * kLaneBit[i] is lane i's bit. A fixed-width lane loop tests a mask
 * through it as laneWord(m, i), which the compiler vectorises; a shift
 * by the lane index it does not.
 */
inline constexpr LaneArray<LaneMask> kLaneBit = [] {
    LaneArray<LaneMask> bits{};
    for (unsigned i = 0; i < kMaxLanes; ++i)
        bits[i] = LaneMask{1} << i;
    return bits;
}();

/** All ones when lane @p i is in @p m, else zero. */
constexpr uint32_t
laneWord(LaneMask m, unsigned i)
{
    return -static_cast<uint32_t>((m & kLaneBit[i]) != 0);
}

/** Call @p f(lane) for each lane of @p m, lowest first. */
template <typename F>
void
forLanes(LaneMask m, F &&f)
{
    for (; m != 0; m &= m - 1)
        f(static_cast<unsigned>(std::countr_zero(m)));
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
     * Host execute engine (DESIGN.md section 10). true selects the
     * accelerated engine: warp-regularity fast paths (scalarised
     * execute over uniform/affine operand descriptors), threaded-code
     * ALU dispatch with packed host-SIMD handlers, and packed memory
     * lanes. false selects the reference engine, the plain per-lane
     * interpreter. Purely a simulator-speed choice: architectural
     * state, modelled counters, memory contents and trap records are
     * bit-identical either way (the parity suite proves it); only the
     * host-only simhost_* counters differ.
     */
    bool hostFastPath = true;

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
     * numLanes and at least 4 * numLanes. The default (512 = 32 lanes x
     * 16 B) matches the compiler's 16-byte stack slot granule, and holds
     * only for a numLanes that divides 512 (1, 2, 4, 8, 16 or 32); any
     * other lane count must set it, to 16 * numLanes for the same
     * granule.
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
