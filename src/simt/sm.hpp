/**
 * @file
 * Cycle-level model of a SIMTight streaming multiprocessor (Figure 2 of
 * the paper) extended with CHERI (Figure 8).
 *
 * Key structural behaviours modelled:
 *  - barrel scheduling with at most one instruction per warp in flight
 *    (a warp re-issues pipelineDepth cycles after issue);
 *  - per-thread PCs with active-thread selection by deepest nesting level
 *    then lowest PC (convergence for structured control flow), held as
 *    groups of lanes sharing (nest, pc);
 *  - a coalescing unit packing per-lane accesses into aligned segments;
 *  - a banked scratchpad with conflict serialisation;
 *  - a shared function unit serialising requests over active lanes, used
 *    for floating-point divide/sqrt and (in the optimised configuration)
 *    the CHERI bounds instructions;
 *  - capability (64-bit) accesses as two-flit transactions;
 *  - the compressed register files with spill traffic through DRAM;
 *  - operand-fetch stalls: CSC with the single-read-port metadata SRF,
 *    and data+metadata shared-VRF port conflicts.
 */

#ifndef CHERI_SIMT_SIMT_SM_HPP_
#define CHERI_SIMT_SIMT_SM_HPP_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cap/cheri_concentrate.hpp"
#include "isa/instr.hpp"
#include "simt/config.hpp"
#include "simt/engine.hpp"
#include "simt/mem.hpp"
#include "simt/memsys.hpp"
#include "simt/regfile.hpp"
#include "simt/scratchpad.hpp"
#include "simt/trap.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

namespace support
{
class ByteWriter;
class ByteReader;
namespace trace
{
class Buffer;
struct StepProfile;
} // namespace trace
} // namespace support

namespace simt
{

/** Description of the first trap taken, for diagnostics and tests. */
struct TrapInfo
{
    bool trapped = false;
    uint32_t pc = 0;
    uint32_t addr = 0;
    unsigned warp = 0;
    unsigned lane = 0;
    isa::Op op = isa::Op::ILLEGAL;
    TrapKind kind = TrapKind::None;

    /** Decoded faulting instruction, when one was in flight (fetch-side
     *  traps and the watchdog/deadlock records leave it defaulted). */
    bool hasInstr = false;
    isa::Instr instr{};

    /** Forensic snapshot of the offending capability for CHERI checks
     *  (the capability the access was authorised against, with its
     *  address set to the faulting address). */
    bool hasCap = false;
    bool capTag = false;
    uint32_t capPerms = 0;
    uint32_t capBase = 0;
    uint64_t capTop = 0;
};

/**
 * Render the full forensic record of a trap: kind, site (SM/warp/lane/
 * PC), the disassembled instruction, the kernel name, and -- for CHERI
 * traps -- the offending capability's bounds/perms/tag plus the faulting
 * address's relation to the bounds. One line, for logs and campaign
 * tables.
 */
std::string formatTrapRecord(const TrapInfo &t, const std::string &kernel,
                             bool purecap, int sm = -1);

class Sm
{
  public:
    /** An SM over @p mem, its functional memory, which the caller owns
     *  and keeps alive for the SM's lifetime (a device gives each SM
     *  its own shard of the one DRAM). Timing models (DRAM timer,
     *  caches) are the SM's own. A lane count outside 1..kMaxLanes is
     *  a fatal configuration error. */
    Sm(const SmConfig &cfg, MemShard &mem);

    const SmConfig &config() const { return cfg_; }

    /**
     * Attach (or detach, with nullptr) a trace buffer and optional
     * profile scratch (its per-PC histogram sized to the code image;
     * the SM sizes the per-op counts). Observational only: no modelled
     * state ever depends on whether tracing is attached -- the hook
     * sites are cold paths plus two predicted branches per warp
     * instruction for the profile. Defined in sm.cpp.
     */
    void attachTrace(support::trace::Buffer *buf,
                     support::trace::StepProfile *profile = nullptr);

    Scratchpad &scratchpad() { return scratchpad_; }
    RegFileSystem &regfile() { return regfile_; }
    support::StatSet &stats() { return stats_; }
    const support::StatSet &stats() const { return stats_; }

    /** Load a program image into the tightly-coupled instruction memory. */
    void loadProgram(const std::vector<uint32_t> &words);

    /** Set a special capability register (DDC/STC/ARG). */
    void setScr(isa::Scr scr, const cap::CapPipe &value);

    const cap::CapPipe &
    scr(isa::Scr scr) const
    {
        fatal_if(scr >= isa::NUM_SCRS,
                 "special capability register %u out of range",
                 static_cast<unsigned>(scr));
        return scrs_[scr];
    }

    /**
     * Start all threads at @p entry_pc. Warps are grouped into thread
     * blocks of @p warps_per_block consecutive warps for barriers.
     */
    void launch(uint32_t entry_pc, unsigned warps_per_block);

    /**
     * Run until every thread halts or @p max_cycles elapse.
     * @returns true if the kernel completed.
     */
    bool run(uint64_t max_cycles = 2'000'000'000);

    /** Outcome of a bounded scheduling-loop segment (runUntil). */
    enum class RunStatus : uint8_t
    {
        Completed,  ///< every thread halted
        CycleLimit, ///< paused at the cycle bound (resumable)
        Deadlock,   ///< all live warps parked at a barrier
    };

    /**
     * Chunked execution: advance the launch until it completes,
     * deadlocks, or the cycle counter reaches @p stop_cycle. Pausing is
     * invisible to the modelled machine -- a run split into arbitrary
     * runUntil() chunks executes the identical instruction sequence,
     * cycle for cycle, as a single run() call (run() is runUntil with
     * the bound treated as a watchdog). The pause boundary is a
     * warp-instruction boundary by construction: the scheduler never
     * stops mid-instruction. CycleLimit records no watchdog trap.
     */
    RunStatus runUntil(uint64_t stop_cycle);

    /** Every thread has halted (the completion state of runUntil). */
    bool finished() const { return liveWarps_ == 0; }

    /**
     * Checkpoint serialization of the complete launch state: warps,
     * PCCs, SCRs, register files, scratchpad, timing models,
     * fault-injector trigger, stats and per-op counts -- everything
     * needed for a restored Sm (same modelled SmConfig, same program;
     * either engine) to continue bit-identically. DRAM is serialized
     * separately at the device level. Defined in simt/checkpoint.cpp.
     */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

    /**
     * Order-dependent hash of the architectural machine state (warps,
     * PCs/PCCs, SCRs, register files, scratchpad, cycle counter, trap
     * record) -- engine-invariant by the bit-identity contract, used by
     * the determinism bisector to localise divergence.
     */
    uint64_t archStateHash() const;

    uint64_t cycles() const { return now_; }
    const TrapInfo &firstTrap() const { return firstTrap_; }
    bool trapped() const { return firstTrap_.trapped; }

    /** Times the configured fault plan's runtime site actually fired. */
    uint64_t faultFires() const;

    /** Host wall-clock time spent inside run() since the last launch().
     *  Host-side measurement only -- deliberately kept out of the StatSet
     *  so modelled counters stay machine-independent. */
    uint64_t hostNanos() const { return hostNanos_; }

    /** Time-averaged VRF occupancy in vector registers (Figure 10). */
    double avgDataVectorsInVrf() const;
    double avgMetaVectorsInVrf() const;

  private:
    /** The live lanes of a warp at one (nest, pc). */
    struct LaneGroup
    {
        LaneMask lanes = 0;
        uint32_t pc = 0;
        uint32_t nest = 0;
    };

    struct Warp
    {
        // The fields every step reads come first, in the warp's first
        // cache line; the lane tables follow.
        unsigned numGroups = 0;
        LaneMask halted = 0;
        uint64_t readyAt = 0;
        unsigned liveThreads = 0;
        bool atBarrier = false;

        // Host-side tracking (never affects modelled state): every live
        // lane shares the whole PCC.
        bool pccUniform = true;

        // Host-side memo of the last successful purecap fetch check:
        // fetchLanes holds lanes whose PCC is known to equal fetchCap
        // bit for bit, and for a leader among them any pc with
        // fetchLo <= pc && pc + 4 <= fetchHi passes the EXECUTE/bounds
        // check without re-decoding the bounds. A PCC write clears its
        // lane; launch and restore clear them all, so the first fetch
        // (and any fetch under a changed PCC) takes the full check.
        LaneMask fetchLanes = 0;
        uint32_t fetchLo = 1;
        uint64_t fetchHi = 0;

        // Convergence state: the live lanes as groups, one per distinct
        // (nest, pc), disjoint and together covering every live lane,
        // kept in selection order -- deepest nest first, then lowest pc
        // (Section 2.3) -- so groups[0] issues next. The per-lane
        // (pc, nest) of the paper's SM is what laneKeys() writes out.
        std::array<LaneGroup, kMaxLanes> groups{};
        // The last (pc, nest) of each halted lane; meaningless for live
        // lanes, whose keys are their group's.
        LaneArray<uint32_t> haltPc{};
        LaneArray<uint32_t> haltNest{};
        LaneArray<cap::CapPipe> pcc{};
        cap::CapPipe fetchCap{};

        bool done() const { return liveThreads == 0; }

        /** Does @p g issue before (@p pc, @p nest)? */
        static bool
        before(const LaneGroup &g, uint32_t pc, uint32_t nest)
        {
            return g.nest > nest || (g.nest == nest && g.pc < pc);
        }

        /** Add @p lanes (live, in no group) at (@p pc, @p nest), joining
         *  the group already there. */
        void
        place(LaneMask lanes, uint32_t pc, uint32_t nest)
        {
            if (lanes == 0)
                return;
            unsigned i = 0;
            while (i < numGroups && before(groups[i], pc, nest))
                ++i;
            if (i < numGroups && groups[i].nest == nest &&
                groups[i].pc == pc) {
                groups[i].lanes |= lanes;
                return;
            }
            for (unsigned j = numGroups; j > i; --j)
                groups[j] = groups[j - 1];
            groups[i] = LaneGroup{lanes, pc, nest};
            ++numGroups;
        }

        /** Take @p lanes out of group @p i, dropping it when empty. */
        void
        release(unsigned i, LaneMask lanes)
        {
            groups[i].lanes &= ~lanes;
            if (groups[i].lanes != 0)
                return;
            --numGroups;
            for (unsigned j = i; j < numGroups; ++j)
                groups[j] = groups[j + 1];
        }

        /** Move @p lanes of the issuing group to (@p pc, @p nest). */
        void
        moveLead(LaneMask lanes, uint32_t pc, uint32_t nest)
        {
            if (lanes == 0)
                return;
            if (lanes != groups[0].lanes) {
                release(0, lanes);
                place(lanes, pc, nest);
                return;
            }
            // The whole group moves: re-key it and sink it past the
            // groups that now issue first, joining one at its new key.
            unsigned i = 0;
            while (i + 1 < numGroups && before(groups[i + 1], pc, nest)) {
                groups[i] = groups[i + 1];
                ++i;
            }
            if (i + 1 < numGroups && groups[i + 1].nest == nest &&
                groups[i + 1].pc == pc) {
                groups[i + 1].lanes |= lanes;
                release(i, ~LaneMask{0});
                return;
            }
            groups[i] = LaneGroup{lanes, pc, nest};
        }

        /** Take the halting @p lane out of its group, keeping its last
         *  (pc, nest). */
        void
        halt(unsigned lane)
        {
            const LaneMask bit = LaneMask{1} << lane;
            for (unsigned i = 0; i < numGroups; ++i) {
                if (groups[i].lanes & bit) {
                    haltPc[lane] = groups[i].pc;
                    haltNest[lane] = groups[i].nest;
                    release(i, bit);
                    return;
                }
            }
        }

        /** Lane @p lane's pc, live or halted. */
        uint32_t
        pcOf(unsigned lane) const
        {
            for (unsigned i = 0; i < numGroups; ++i)
                if ((groups[i].lanes >> lane) & 1)
                    return groups[i].pc;
            return haltPc[lane];
        }

        /** Write out every lane's (pc, nest), the paper's per-thread
         *  state (checkpoints and the architectural hash). */
        void
        laneKeys(LaneArray<uint32_t> &pc, LaneArray<uint32_t> &nest) const
        {
            pc = haltPc;
            nest = haltNest;
            for (unsigned i = 0; i < numGroups; ++i) {
                forLanes(groups[i].lanes, [&](unsigned lane) {
                    pc[lane] = groups[i].pc;
                    nest[lane] = groups[i].nest;
                });
            }
        }

        /** Rebuild the groups of the @p live lanes from per-lane keys
         *  (checkpoint restore); other lanes keep theirs as halted. */
        void
        setLaneKeys(const LaneArray<uint32_t> &pc,
                    const LaneArray<uint32_t> &nest, LaneMask live)
        {
            haltPc = pc;
            haltNest = nest;
            numGroups = 0;
            forLanes(live, [&](unsigned lane) {
                place(LaneMask{1} << lane, pc[lane], nest[lane]);
            });
        }
    };

    /** Halt one thread (idempotent); maintains live counters. */
    void haltThread(unsigned warp, unsigned lane);

    /**
     * Refresh the compact schedule mirror for one warp. sched_[w] holds
     * the warp's readyAt, or uint64_t max when it can never be issued
     * (finished, or parked at a barrier), so the per-slot round-robin
     * scan reads one dense u64 array instead of the scattered Warp
     * structs. Must be called after any change to a warp's liveThreads,
     * atBarrier or readyAt.
     */
    void schedUpdate(unsigned wid)
    {
        const Warp &w = warps_[wid];
        sched_[wid] = (w.liveThreads == 0 || w.atBarrier)
                          ? std::numeric_limits<uint64_t>::max()
                          : w.readyAt;
    }

    /**
     * Select the active threads of a warp into active_: the lanes of its
     * first group (with dynamic PC metadata, those sharing the leader's
     * PCC). Returns the leader, the group's lowest lane (-1 for a
     * finished warp). @p fully_active: the issue covers every live lane.
     */
    int selectActive(Warp &w, unsigned &num_active, bool &fully_active);

    /** One warp instruction in flight (defined in sm.cpp). */
    struct Step;

    /**
     * Execute one instruction for a warp. Returns issue-slot cycles.
     * The driver of the execute stage: it selects the active lanes,
     * fetches the instruction and its operands, hands the step to one
     * class step below, then writes back and schedules the outcome.
     * Each class step keeps its accelerated path next to the reference
     * path it must match.
     */
    unsigned executeWarp(unsigned warp_id);

    void execMemory(Step &s);
    /** Affine warp memory path; false (no effect) when it declines. */
    bool memAffine(Step &s);
    void memLanes(Step &s);
    void execSfu(Step &s);
    void execAlu(Step &s);
    void execControl(Step &s);

    /**
     * The non-atomic functional access of every active lane at
     * @p addr(lane): loads land in result_/resultMeta_, stores read the
     * rs2 descriptors; a CLC is authorised by @p auth_perms(lane).
     */
    template <typename AddrFn, typename PermsFn>
    void memAccessLanes(Step &s, AddrFn &&addr, PermsFn &&auth_perms);

    /** A CLC's register value: the loaded capability, its tag stripped
     *  when the authority (perms @p auth_perms) lacks PERM_LOAD_CAP. */
    void clcValue(const cap::CapMem &mem, uint8_t auth_perms,
                  uint32_t &data, CapMeta &meta) const;

    /** Scratchpad bank-conflict cycles of @p lanes at addrs_. */
    unsigned scratchpadTiming(const Step &s, LaneMask lanes);

    /**
     * DRAM timing of a warp access whose DRAM lanes start at
     * @p min_addr: one stack-cache entry when the warp lies in this SM's
     * stack slice, else the tag controller and DRAM channel for each
     * transaction @p txns() lists. Returns the completion cycle.
     */
    template <typename TxnsFn>
    uint64_t dramTiming(const Step &s, uint32_t min_addr,
                        bool writes_tagged_cap, TxnsFn &&txns);

    /**
     * One lane of the per-lane data path (every non-memory,
     * non-control op; the SFU step computes its lanes here too),
     * operating on explicit operand values so the scalarised fast path
     * can run it once for a whole warp. Writes result_[lane] /
     * resultMeta_[lane] and may trap.
     */
    void executeAluLane(Warp &w, unsigned wid, unsigned lane,
                        const isa::Instr &in, uint32_t pc, uint32_t a,
                        uint32_t b, const CapMeta &m1);

    /** The scheduling loop of run(), separated for host-time accounting. */
    bool runLoop(uint64_t max_cycles);

    /** Shared core of runLoop()/runUntil(): the scheduling loop up to
     *  @p max_cycles, with no watchdog recording on CycleLimit (the
     *  caller decides whether the bound is a watchdog or a pause). */
    RunStatus runLoopCore(uint64_t max_cycles);

    /** @p in and @p auth_cap, when available at the trap site, feed the
     *  forensic record (disassembly, capability bounds) -- diagnostics
     *  only, never modelled state. */
    void trap(unsigned warp, unsigned lane, uint32_t pc, isa::Op op,
              uint32_t addr, TrapKind kind, const isa::Instr *in = nullptr,
              const cap::CapPipe *auth_cap = nullptr);

    /** Like trap(), but for machine containment faults (unmapped or
     *  baseline-misaligned accesses) that are not CHERI checks and so
     *  must not move the cheri_traps counter. */
    void containmentTrap(unsigned warp, unsigned lane, uint32_t pc,
                         isa::Op op, uint32_t addr, TrapKind kind,
                         const isa::Instr *in = nullptr);

    /** trap() every active lane at @p addr and drop it from active_. */
    void trapActive(unsigned warp, uint32_t pc, isa::Op op, uint32_t addr,
                    TrapKind kind, const isa::Instr *in = nullptr,
                    const cap::CapPipe *auth_cap = nullptr);

    /** Fill the forensic fields of a TrapInfo record. */
    static void trapForensics(TrapInfo &t, const isa::Instr *in,
                              const cap::CapPipe *auth_cap);

    /** Emit the trace event for a just-recorded trap (cold path). */
    void traceTrap(const TrapInfo &t);

    /** Per-lane memory access helpers (functional + routing). */
    uint32_t loadValue(uint32_t addr, unsigned log_width, bool sign);
    void storeValue(uint32_t addr, unsigned log_width, uint32_t value);
    uint32_t atomicRmw(isa::Op op, uint32_t addr, uint32_t operand,
                       bool result_used);
    cap::CapMem loadCap(uint32_t addr);
    void storeCap(uint32_t addr, const cap::CapMem &value);

    void releaseBarrierIfReady(unsigned block);

    // Test seam for states unreachable through the public API (e.g. the
    // barrier-deadlock detector); defined by test translation units only.
    friend struct SmTestAccess;

    const SmConfig cfg_;
    /** Every lane of a warp (lanes 0..numLanes-1). */
    const LaneMask allLanes_;
    support::StatSet stats_;
    MemShard &mem_;

    // Observational trace sink and profile scratch (both nullptr unless
    // a trace session is attached; see attachTrace()).
    support::trace::Buffer *trace_ = nullptr;
    support::trace::StepProfile *profile_ = nullptr;

    // Runtime fault injection (nullptr unless cfg_.faultPlan arms a
    // runtime site that applies to this SM). Owned here; attached to the
    // register file and scratchpad write paths.
    std::unique_ptr<FaultInjector> injector_;

    Scratchpad scratchpad_;
    DramTimer dramTimer_;
    TagController tagController_;
    StackCache stackCache_;
    Coalescer coalescer_;
    RegFileSystem regfile_;

    std::vector<uint32_t> code_;

    // Decoded program with resolved dispatch tables, shared across Sm
    // instances running the same image (see the process-wide decode
    // cache in sm.cpp).
    std::shared_ptr<const engine::DecodedProgram> decoded_;

    cap::CapPipe scrs_[isa::NUM_SCRS];

    std::vector<Warp> warps_;
    /** Dense issue-scan mirror; see schedUpdate(). */
    std::vector<uint64_t> sched_;
    unsigned liveWarps_ = 0;
    unsigned warpsPerBlock_ = 1;
    unsigned rrPtr_ = 0;
    uint64_t now_ = 0;
    uint64_t sfuBusyUntil_ = 0;

    TrapInfo firstTrap_;

    // Host wall-clock nanoseconds spent in run() since launch().
    uint64_t hostNanos_ = 0;

    // Occupancy accumulators (cycle-weighted) for Figure 10.
    uint64_t dataOccAccum_ = 0;
    uint64_t metaOccAccum_ = 0;

    // Per-opcode dynamic execution counts (Figure 6); folded into the
    // stat set as "op_<name>" when a run finishes.
    std::vector<uint64_t> opCounts_;

    // Per-instruction state: the active lanes and the operand, result
    // and address buffers.
    LaneMask active_ = 0;
    LaneArray<uint32_t> rs1Data_{}, rs2Data_{}, result_{}, addrs_{};
    LaneArray<CapMeta> rs1Meta_{}, rs2Meta_{}, resultMeta_{};
    std::vector<MemTransaction> fastTxns_;

    // Lazy null-fill for resultMeta_: paths writing per-lane result
    // metadata set this, and the per-step prologue refills with nulls
    // only then -- the all-null invariant every reader relies on holds
    // without a lane fill on steps that never touch metadata.
    bool resultMetaDirty_ = true;

    // Hot-loop counter handles (the string-keyed registry is never
    // consulted from per-instruction code).
    support::StatSet::Handle statInstrs_;
    support::StatSet::Handle statCheriInstrs_;
    support::StatSet::Handle statCheriTraps_;
    support::StatSet::Handle statIdleCycles_;
    support::StatSet::Handle statIssueSlots_;
    support::StatSet::Handle statCscPortStalls_;
    support::StatSet::Handle statSharedVrfStalls_;
    support::StatSet::Handle statScratchpadAccesses_;
    support::StatSet::Handle statStackWarpAccesses_;
    support::StatSet::Handle statDramTransactions_;
    support::StatSet::Handle statDramBytesRead_;
    support::StatSet::Handle statDramBytesWritten_;
    support::StatSet::Handle statRfSpillDramBytes_;
    support::StatSet::Handle statSfuCheriOps_;
    support::StatSet::Handle statSfuFpOps_;
    support::StatSet::Handle statSoftBoundsTraps_;
    support::StatSet::Handle statBarriersReleased_;
    support::StatSet::Handle statSimhostInstrs_;
    support::StatSet::Handle statSimhostFastpath_;
    support::StatSet::Handle statSimhostPackedMem_;
    support::StatSet::Handle statSimhostFused_;

    // Per-step retire counters kept as plain integers and folded into
    // the stat set once per run() (flushStepCounters): even a cached
    // handle add costs a generation check and an indirect increment,
    // which is measurable at host-throughput scales when paid several
    // times per warp-step. Flush-and-zero semantics, so chunked run()
    // calls accumulate correctly.
    uint64_t ctrInstrs_ = 0;
    uint64_t ctrCheriInstrs_ = 0;
    uint64_t ctrIssueSlots_ = 0;
    uint64_t ctrFastpath_ = 0;
    uint64_t ctrPackedMem_ = 0;
    uint64_t ctrFused_ = 0;

    void
    flushStepCounters()
    {
        statInstrs_.add(ctrInstrs_);
        statCheriInstrs_.add(ctrCheriInstrs_);
        statIssueSlots_.add(ctrIssueSlots_);
        statSimhostInstrs_.add(ctrInstrs_);
        statSimhostFastpath_.add(ctrFastpath_);
        statSimhostPackedMem_.add(ctrPackedMem_);
        statSimhostFused_.add(ctrFused_);
        ctrInstrs_ = 0;
        ctrCheriInstrs_ = 0;
        ctrIssueSlots_ = 0;
        ctrFastpath_ = 0;
        ctrPackedMem_ = 0;
        ctrFused_ = 0;
    }
};

} // namespace simt

#endif // CHERI_SIMT_SIMT_SM_HPP_
