/**
 * @file
 * The NoCL host runtime: device-memory management, kernel-argument
 * marshalling and kernel launch for the simulated SIMTight SoC.
 *
 * Mirrors the NoCL library of the paper: the host (a CHERI-enabled CPU in
 * the paper's SoC) allocates buffers, sets the bounds of dynamically
 * allocated memory and of the stack, writes the argument block, and
 * launches the kernel. In pure-capability mode arguments are stored as
 * tagged capabilities and the special capability registers (DDC, stack
 * root, argument block) are installed before the kernel starts.
 */

#ifndef CHERI_SIMT_NOCL_NOCL_HPP_
#define CHERI_SIMT_NOCL_NOCL_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kc/codegen.hpp"
#include "kc/kernel.hpp"
#include "simt/checkpoint.hpp"
#include "simt/sm.hpp"

namespace support
{
namespace trace
{
class Buffer;
class Session;
} // namespace trace
} // namespace support

namespace nocl
{

/** A device buffer handle. */
struct Buffer
{
    uint32_t addr = 0;
    uint32_t bytes = 0;
};

/** A kernel argument: a scalar or a buffer. */
struct Arg
{
    enum class Kind { Int, Float, Buf } kind = Kind::Int;
    int32_t i = 0;
    float f = 0.0f;
    Buffer buf;

    static Arg
    integer(int32_t v)
    {
        Arg a;
        a.kind = Kind::Int;
        a.i = v;
        return a;
    }

    static Arg
    real(float v)
    {
        Arg a;
        a.kind = Kind::Float;
        a.f = v;
        return a;
    }

    static Arg
    buffer(Buffer b)
    {
        Arg a;
        a.kind = Kind::Buf;
        a.buf = b;
        return a;
    }
};

/** Launch geometry. */
struct LaunchConfig
{
    unsigned blockDim = 256;
    unsigned gridDim = 1;

    /** Capability-register limit passed to the compiler (0 = off). */
    unsigned capRegLimit = 0;
};

/**
 * Containment policy of a launch: a cycle watchdog. A kernel that
 * exceeds maxCycles is stopped and surfaces a watchdog-timeout
 * structured trap instead of hanging the host.
 */
struct LaunchPolicy
{
    uint64_t maxCycles = 2'000'000'000ull;
};

/** Result of one kernel launch. */
struct RunResult
{
    bool completed = false;
    bool trapped = false;
    simt::TrapKind trapKind = simt::TrapKind::None;
    uint32_t trapAddr = 0;

    /** Full forensic record of the winning trap (the lowest trapped
     *  SM's first trap), and which SM raised it. */
    simt::TrapInfo trapInfo;
    unsigned trapSm = 0;

    /** Modelled cycles: the slowest SM of the launch (max over SMs). */
    uint64_t cycles = 0;

    /** Merged stats; for numSms > 1 counters are summed over the SMs,
     *  "cycles" is the max and "cycles_sum" the sum. */
    support::StatSet stats;

    /** SMs the launch ran on, and each SM's own cycle count. */
    unsigned numSms = 1;
    std::vector<uint64_t> smCycles;

    /**
     * A parallel launch hit a cross-SM conflict (or another condition
     * the deterministic merge cannot handle) and was rerun serially.
     * Architectural results are still exact; only host time suffers.
     */
    bool mergeFallback = false;
    std::string mergeFallbackReason;

    // ---- Containment / fault-injection accounting ----

    /** Watchdog-timeout traps: the SMs the watchdog stopped. */
    unsigned watchdogFires = 0;

    /** Injected faults that actually fired (memory sites applied at
     *  launch plus runtime sites that triggered during execution). */
    uint64_t faultInjections = 0;

    /**
     * The code that ran. Shared, not owned: cached compilations are
     * reused across runs (and threads) without copying the image.
     */
    std::shared_ptr<const kc::CompiledKernel> kernel;

    double avgDataVrf = 0.0; ///< time-averaged data vectors in the VRF
    double avgMetaVrf = 0.0; ///< time-averaged metadata vectors in the VRF
    uint32_t rfCapRegMask = 0; ///< registers observed holding capabilities

    /** Host wall-clock nanoseconds spent simulating this launch. Kept out
     *  of @ref stats so modelled counters stay machine-independent. */
    uint64_t hostNs = 0;
};

class Device;

/**
 * An in-flight kernel launch that can be advanced in bounded cycle
 * chunks, checkpointed at any chunk boundary, and resumed or finished
 * later -- the foundation of the deterministic checkpoint/restore layer
 * (DESIGN.md section 13) and of fork-from-state fault campaigns.
 *
 * A stepped launch goes through the same prepare, run and collect steps
 * as a plain launch (Device::launchCompiled), so its SMs run against
 * their copy-on-write MemShard overlays of the base DRAM and the base
 * memory stays untouched until finish() commits the epoch. It differs
 * from a plain launch in one way: it records a page-granular undo
 * snapshot of every base page before the launch writes it, which makes
 * restoreBase() an exact revert to the device's pre-launch memory state
 * -- the campaign runs thousands of fault sites as cheap deltas off one
 * prepared device.
 *
 * Chunk boundaries are warp-instruction boundaries (simt::Sm::runUntil),
 * so a launch advanced by any sequence of runUntil() calls and then
 * finish()ed is bit-identical -- cycles, traps, stats, memory -- to one
 * finished in a single call, under either execute engine and at any SM
 * count.
 *
 * Obtain instances from Device::beginStepped (a fresh launch) or
 * Device::restoreStepped (from a checkpoint image). At most one stepped
 * launch may be in flight per device, and it must not outlive the
 * device.
 */
class SteppedLaunch
{
  public:
    SteppedLaunch(const SteppedLaunch &) = delete;
    SteppedLaunch &operator=(const SteppedLaunch &) = delete;

    /** Advance every unfinished SM to cycle @p stop_cycle (serially, in
     *  SM index order; shard isolation makes this equivalent to the
     *  threaded parallel epoch). */
    void runUntil(uint64_t stop_cycle);

    /** Every SM has completed (or deadlocked): finish() will not
     *  execute further instructions. */
    bool done() const;

    /** Slowest SM's cycle count so far. */
    uint64_t cycles() const;

    /**
     * Run the remaining SMs to completion with @p max_cycles as the
     * watchdog bound (absolute cycle count, as in LaunchPolicy), on
     * worker threads when there are several, then commit the epoch and
     * aggregate per-SM results exactly as a plain launch does --
     * including the serial single-shard fallback on a cross-SM merge
     * conflict. May be called once.
     */
    RunResult finish(uint64_t max_cycles);

    /**
     * Serialize the complete in-flight launch -- header, base DRAM, every
     * SM's state, every shard overlay -- into a versioned checkpoint
     * image (see simt/checkpoint.hpp for the container format).
     */
    std::vector<uint8_t> saveCheckpoint();

    /**
     * Revert the base DRAM to its pre-launch contents from the undo
     * snapshots (argument block, applied fault word, and every page the
     * epoch commit touched). Abandons the epoch first if the launch was
     * never finished. The device is then ready for the next
     * beginStepped() -- the delta-execution loop of the fault campaign.
     */
    void restoreBase();

  private:
    friend class Device;

    explicit SteppedLaunch(Device &dev) : dev_(dev) {}

    /** Save the base page containing @p addr into the undo log. */
    void snapshotPageAt(uint32_t addr);

    /** Save every base page the open epoch's shards touched. */
    void snapshotTouchedPages();

    struct UndoPage
    {
        std::vector<uint8_t> data;
        std::vector<uint64_t> tags; ///< packed like MainMemory::copyTagsOut
    };

    Device &dev_;
    std::shared_ptr<const kc::CompiledKernel> kernel_; ///< null on restore
    std::string kernelKey_; ///< "name|fingerprint" (checkpoint header)
    unsigned warpsPerBlock_ = 1;
    unsigned memoryFaults_ = 0; ///< memory-site faults applied at begin
    bool epochOpen_ = false;
    bool finished_ = false;
    std::vector<simt::Sm::RunStatus> status_;
    std::map<uint32_t, UndoPage> undo_; ///< page index -> saved contents
};

/**
 * Process-wide kernel-compilation cache, keyed by the kernel's structural
 * IR fingerprint plus every compile option that affects code generation
 * (mode, launch geometry, thread count, stack layout, capRegLimit).
 * Thread-safe: benchmark sweeps recompile each kernel once rather than
 * once per sweep point, from any number of runner threads.
 */
class KernelCache
{
  public:
    static KernelCache &instance();

    /** Return the cached compilation for (ir, opts), compiling on miss. */
    std::shared_ptr<const kc::CompiledKernel>
    getOrCompile(const kc::KernelIr &ir, const kc::CompileOptions &opts);

    uint64_t hits() const;
    uint64_t misses() const;
    size_t size() const;
    void clear();

  private:
    KernelCache() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<const kc::CompiledKernel>>
        entries_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * A simulated device: SmConfig::numSms streaming multiprocessors sharing
 * one DRAM (plus host-side memory management). The persistent-threads
 * dispatch loop gives each SM an equal share of a launch's thread
 * blocks in contiguous chunks (DESIGN.md section 8). Each SM runs
 * against its own simt::MemShard, on its own host worker thread when
 * there are several, and the shards are merged deterministically when
 * all SMs finish (see simt/memsys.hpp).
 */
class Device
{
  public:
    Device(const simt::SmConfig &sm_cfg, kc::CompileOptions::Mode mode);

    /** SM 0 (the only SM when numSms == 1). */
    simt::Sm &sm() { return *sms_[0]; }

    simt::Sm &smAt(unsigned i) { return *sms_.at(i); }
    unsigned numSms() const { return static_cast<unsigned>(sms_.size()); }

    /** The device's one main memory, which every SM borrows. */
    simt::MainMemory &dram() { return memsys_->base(); }
    const simt::MainMemory &dram() const { return memsys_->base(); }

    kc::CompileOptions::Mode mode() const { return mode_; }

    /** Allocate a device buffer (zero-initialised). */
    Buffer alloc(uint32_t bytes);

    /** Host writes into a buffer. */
    void write8(const Buffer &b, const std::vector<uint8_t> &data);
    void write32(const Buffer &b, const std::vector<uint32_t> &data);
    void writeF32(const Buffer &b, const std::vector<float> &data);

    /** Host reads from a buffer. */
    std::vector<uint8_t> read8(const Buffer &b) const;
    std::vector<uint32_t> read32(const Buffer &b) const;
    std::vector<float> readF32(const Buffer &b) const;

    /**
     * Compile and run a kernel under @p policy's watchdog. Arguments
     * must match the kernel's declared parameters in order and kind.
     * Compilation goes through the process-wide KernelCache.
     */
    RunResult launch(kc::KernelDef &def, const LaunchConfig &cfg,
                     const std::vector<Arg> &args,
                     const LaunchPolicy &policy = LaunchPolicy{});

    /**
     * Compile @p def for this device via the KernelCache (reusing a
     * previous identical compilation when present).
     */
    std::shared_ptr<const kc::CompiledKernel>
    compileCached(kc::KernelDef &def, const LaunchConfig &cfg) const;

    /**
     * Run an already-compiled kernel. @p compiled must have been
     * produced for this device's mode and for launch geometry matching
     * @p cfg (compileCached guarantees both).
     *
     * Every launch starts from a zeroed scratchpad. Each SM runs against
     * its own shard (on its own host worker thread when there are
     * several) and the shards are merged. A cross-SM merge conflict
     * commits nothing and reruns the SMs one at a time, each from its
     * launch state (RunResult::mergeFallback).
     */
    RunResult
    launchCompiled(const std::shared_ptr<const kc::CompiledKernel> &compiled,
                   const LaunchConfig &cfg, const std::vector<Arg> &args,
                   const LaunchPolicy &policy = LaunchPolicy{});

    /**
     * Begin a stepped (pausable / checkpointable) launch of an
     * already-compiled kernel. Performs the same preparation as a plain
     * launch -- validation, argument block, memory-site fault, SCRs,
     * program load, zeroed scratchpad -- then leaves the SMs launched
     * but not yet run; drive them with SteppedLaunch::runUntil / finish.
     *
     * @p memory_fault, when non-null, replaces the config's fault plan
     * for the launch-time memory-site corruption (tag clear / DRAM word
     * flip applied to the base image); runtime structure-site faults
     * still come from the config the SMs were built with.
     */
    std::unique_ptr<SteppedLaunch> beginStepped(
        const std::shared_ptr<const kc::CompiledKernel> &compiled,
        const LaunchConfig &cfg, const std::vector<Arg> &args,
        const simt::FaultPlan *memory_fault = nullptr);

    /**
     * Rebuild an in-flight stepped launch from a checkpoint image taken
     * by SteppedLaunch::saveCheckpoint. Refuses -- with a structured
     * error in @p err and no simulator state touched -- images that are
     * corrupt (bad magic / version / CRC), taken under a different
     * device configuration (SmConfig hash mismatch), or, when
     * @p expect_kernel_key is non-empty, taken for a different kernel.
     * On success the device's base DRAM, heap watermark, SM states and
     * shard overlays are restored and the returned launch continues
     * bit-identically to the checkpointed one.
     */
    std::unique_ptr<SteppedLaunch>
    restoreStepped(const std::vector<uint8_t> &image,
                   simt::ckpt::Error *err,
                   const std::string &expect_kernel_key = std::string());

    /** Compile without running (for inspecting generated code). */
    kc::CompiledKernel compileOnly(kc::KernelDef &def,
                                   const LaunchConfig &cfg) const;

    /** Bounds of the device heap: [heapStart, heapEnd) covers every
     *  buffer handed out by alloc() so far (campaign output hashing). */
    uint32_t heapStart() const;
    uint32_t heapEnd() const { return heapNext_; }

    /**
     * Attach (or detach, with nullptr) a trace/profile session. While
     * attached, every launch records lifecycle / epoch / trap / fault
     * events into the session's buffers (merged in SM-index order at
     * each attempt commit) and, when the session profiles, per-PC
     * instruction histograms. Observational only: architectural results
     * are bit-identical with or without a session attached. The caller
     * keeps ownership and must beginTrack() before launches it wants
     * grouped under a named track.
     */
    void attachTraceSession(support::trace::Session *session)
    {
        trace_ = session;
    }

  private:
    friend class SteppedLaunch;

    kc::CompileOptions compileOptions(const LaunchConfig &cfg) const;

    /** Write the kernel-argument block for @p args into the base DRAM. */
    void writeArgBlock(const kc::CompiledKernel &compiled,
                       const std::vector<Arg> &args);

    /** Install the special capability registers on every SM (pure-
     *  capability mode; no-op otherwise). */
    void installScrs(const kc::CompiledKernel &compiled,
                     const kc::CompileOptions &opts);

    /**
     * Prepare step of every launch: validate the launch, write the
     * argument block, apply @p memory_fault's memory-site corruption,
     * install the SCRs, load the program and launch every SM from a
     * zeroed scratchpad. When @p undo is non-null each base page is
     * saved into its undo log before it is written. Returns the number
     * of memory-site faults applied.
     */
    unsigned prepare(const kc::CompiledKernel &compiled,
                     const LaunchConfig &cfg, const std::vector<Arg> &args,
                     const simt::FaultPlan &memory_fault,
                     SteppedLaunch *undo);

    /**
     * Run step of every launch, inside the epoch the caller began. Runs
     * every SM whose @p status is still CycleLimit to @p max_cycles (on
     * worker threads when there are several SMs) and commits the epoch.
     * On a cross-SM conflict the epoch commits nothing; every SM then
     * reruns from its launch state on its own reset shard, one at a
     * time, each committed before the next starts, and
     * @p res records the fallback. @p undo, when non-null, saves every
     * base page before each commit writes it; @p devbuf, when non-null,
     * receives the commit timestamps. Returns whether each SM completed.
     */
    std::vector<uint8_t>
    runEpoch(const std::vector<simt::Sm::RunStatus> &status,
             uint64_t max_cycles, unsigned warps_per_block,
             SteppedLaunch *undo, support::trace::Buffer *devbuf,
             RunResult &res);

    /**
     * Collect step: aggregate the per-SM results into @p res. At more
     * than one SM the counters are summed, "cycles" is the max, and
     * "cycles_sum" and "merge_fallbacks" are added; @p epoch_ns becomes
     * hostNs (a single SM reports its own run time instead).
     */
    void collect(const std::vector<uint8_t> &completed,
                 unsigned memory_faults, uint64_t epoch_ns,
                 RunResult &res);

    simt::SmConfig smCfg_;
    kc::CompileOptions::Mode mode_;
    std::unique_ptr<simt::MemorySystem> memsys_; ///< owns the DRAM
    std::vector<std::unique_ptr<simt::Sm>> sms_;
    uint32_t heapNext_ = 0;
    uint32_t heapLimit_ = 0;
    support::trace::Session *trace_ = nullptr;
};

} // namespace nocl

#endif // CHERI_SIMT_NOCL_NOCL_HPP_
