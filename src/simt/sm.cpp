#include "simt/sm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <limits>

#include "isa/encoding.hpp"
#include "simt/alu.hpp"
#include "support/bits.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace simt
{

namespace
{

using cap::CapPipe;
using isa::Instr;
using isa::Op;

/** The in-memory form of register data + metadata (what a CSC stores). */
cap::CapMem
capMemOf(uint32_t data, const CapMeta &meta)
{
    cap::CapMem mem;
    mem.bits = (static_cast<uint64_t>(meta.meta) << 32) | data;
    mem.tag = meta.tag;
    return mem;
}

/** Compose a pipeline capability from register data + metadata. */
CapPipe
capFromParts(uint32_t data, const CapMeta &meta)
{
    return cap::fromMem(capMemOf(data, meta));
}

/** Split a pipeline capability into register data + metadata. */
void
capToParts(const CapPipe &c, uint32_t &data, CapMeta &meta)
{
    const cap::CapMem mem = cap::toMem(c);
    data = static_cast<uint32_t>(mem.bits);
    meta.meta = static_cast<uint32_t>(mem.bits >> 32);
    meta.tag = mem.tag;
}

/** The metadata half of a capability's register form. */
CapMeta
metaOf(const CapPipe &c)
{
    uint32_t data;
    CapMeta meta;
    capToParts(c, data, meta);
    return meta;
}

/** The sealed return capability a JAL/JALR links: the PCC at pc + 4. */
CapPipe
linkCap(const CapPipe &pcc, uint32_t pc)
{
    return cap::sealEntry(cap::setAddr(pcc, pc + 4));
}

/**
 * Expand a metadata descriptor into the per-lane buffer the reference
 * (per-lane) paths read. A Lanes descriptor already points at the caller's
 * scratch buffer, so only closed forms need expanding.
 */
void
materialiseMeta(const MetaDesc &d, LaneArray<CapMeta> &buf)
{
    switch (d.kind) {
      case MetaDesc::Kind::Lanes:
        if (d.lanes != buf.data())
            std::copy(d.lanes, d.lanes + kMaxLanes, buf.begin());
        return;
      case MetaDesc::Kind::Uniform:
        buf.fill(d.value);
        return;
      case MetaDesc::Kind::PartialNull:
        for (unsigned lane = 0; lane < kMaxLanes; ++lane)
            buf[lane] = (d.nullMask >> lane) & 1 ? CapMeta{} : d.value;
        return;
    }
}

/**
 * Per-opcode classification, tabulated once from the isa:: predicates so
 * the per-instruction loop does one indexed load instead of several
 * out-of-line switch calls. Bit-identical by construction: the table IS
 * the predicates, evaluated at first use.
 */
struct OpTraits
{
    bool cheri;
    bool cheriSlowPath;
    bool memAccess;
    bool load;
    bool store;
    bool atomic;
    bool fpSlowPath;
    bool branch;
    bool control; ///< branches, JAL/JALR and the SIMT_* ops
    bool capAccess; ///< CLC/CSC
    bool signedLoad; ///< LB/LH
    bool scalarisable;
    bool usesRd;
    bool usesRs1;
    bool usesRs2;
    uint8_t accessLogWidth;
};

const OpTraits &
opTraits(Op op)
{
    static const auto table = [] {
        std::array<OpTraits, static_cast<size_t>(Op::NUM_OPS)> t{};
        for (size_t i = 0; i < t.size(); ++i) {
            const Op o = static_cast<Op>(i);
            t[i].cheri = isa::isCheri(o);
            t[i].cheriSlowPath = isa::isCheriSlowPath(o);
            t[i].memAccess = isa::isMemAccess(o);
            t[i].load = isa::isLoad(o);
            t[i].store = isa::isStore(o);
            t[i].atomic = isa::isAtomic(o);
            t[i].fpSlowPath = isa::isFpSlowPath(o);
            t[i].branch = isa::isBranch(o);
            t[i].control = t[i].branch || o == Op::JAL || o == Op::JALR ||
                           o == Op::SIMT_PUSH || o == Op::SIMT_POP ||
                           o == Op::SIMT_BARRIER || o == Op::SIMT_HALT ||
                           o == Op::SIMT_TRAP;
            t[i].capAccess = o == Op::CLC || o == Op::CSC;
            t[i].signedLoad = o == Op::LB || o == Op::LH;
            t[i].scalarisable = isa::isScalarisable(o);
            t[i].usesRd = isa::usesRd(o);
            t[i].usesRs1 = isa::usesRs1(o);
            t[i].usesRs2 = isa::usesRs2(o);
            t[i].accessLogWidth = t[i].memAccess
                ? static_cast<uint8_t>(isa::accessLogWidth(o))
                : 0;
        }
        return t;
    }();
    return table[static_cast<size_t>(op)];
}

/**
 * The address-independent checks of a capability memory access through
 * @p c, in priority order: tag, seal, store permission (stores and
 * atomics), load permission (loads and atomics), then store-capability
 * permission for a CSC whose source is tagged. @p stores_tagged_cap is
 * called only for that last check. The alignment and bounds checks that
 * follow depend on the lane address and stay with the caller.
 */
template <typename StoresTaggedFn>
TrapKind
capAccessFault(const CapPipe &c, const OpTraits &tr,
               StoresTaggedFn &&stores_tagged_cap)
{
    if (!c.tag)
        return TrapKind::TagViolation;
    if (c.isSealed())
        return TrapKind::SealViolation;
    if ((tr.store || tr.atomic) && !(c.perms & cap::PERM_STORE))
        return TrapKind::StorePermViolation;
    if (!tr.store && !(c.perms & cap::PERM_LOAD))
        return TrapKind::LoadPermViolation;
    if (tr.capAccess && tr.store && !(c.perms & cap::PERM_STORE_CAP) &&
        stores_tagged_cap())
        return TrapKind::StoreCapPermViolation;
    return TrapKind::None;
}

/** The JALR checks through @p c, in priority order: tag, seal (only a
 *  sentry, jumped to without offset, may be sealed), execute
 *  permission, then the bounds of the fetch at @p target. */
TrapKind
jumpFault(const CapPipe &c, uint32_t target, int32_t imm)
{
    if (!c.tag)
        return TrapKind::JumpTagViolation;
    if (c.isSealed() && (!c.isSentry() || imm != 0))
        return TrapKind::JumpSealViolation;
    if (!(c.perms & cap::PERM_EXECUTE))
        return TrapKind::JumpPermViolation;
    if (!cap::isRangeInBounds(c, target, 4))
        return TrapKind::JumpBoundsViolation;
    return TrapKind::None;
}

} // namespace

Sm::Sm(const SmConfig &cfg, MemShard &mem)
    : cfg_(cfg), allLanes_(lowLanes(cfg.numLanes)), mem_(mem),
      scratchpad_(cfg_),
      dramTimer_(cfg_.dramLatency, cfg_.dramBytesPerCycle),
      tagController_(cfg_, dramTimer_, stats_),
      stackCache_(cfg_.stackCacheLines, cfg_.stackCacheLineBytes,
                  dramTimer_, stats_),
      coalescer_(cfg_.coalesceBytes), regfile_(cfg_, stats_),
      opCounts_(static_cast<size_t>(Op::NUM_OPS), 0),
      statInstrs_(stats_.handle("instrs")),
      statCheriInstrs_(stats_.handle("cheri_instrs")),
      statCheriTraps_(stats_.handle("cheri_traps")),
      statIdleCycles_(stats_.handle("idle_cycles")),
      statIssueSlots_(stats_.handle("issue_slots")),
      statCscPortStalls_(stats_.handle("csc_port_stalls")),
      statSharedVrfStalls_(stats_.handle("shared_vrf_stalls")),
      statScratchpadAccesses_(stats_.handle("scratchpad_accesses")),
      statStackWarpAccesses_(stats_.handle("stack_warp_accesses")),
      statDramTransactions_(stats_.handle("dram_transactions")),
      statDramBytesRead_(stats_.handle("dram_bytes_read")),
      statDramBytesWritten_(stats_.handle("dram_bytes_written")),
      statRfSpillDramBytes_(stats_.handle("rf_spill_dram_bytes")),
      statSfuCheriOps_(stats_.handle("sfu_cheri_ops")),
      statSfuFpOps_(stats_.handle("sfu_fp_ops")),
      statSoftBoundsTraps_(stats_.handle("soft_bounds_traps")),
      statBarriersReleased_(stats_.handle("barriers_released")),
      statSimhostInstrs_(stats_.handle("simhost_instrs")),
      statSimhostFastpath_(stats_.handle("simhost_fastpath_instrs")),
      statSimhostPackedMem_(stats_.handle("simhost_packed_mem_instrs")),
      statSimhostFused_(stats_.handle("simhost_fused_instrs"))
{
    fatal_if(cfg_.numLanes == 0 || cfg_.numLanes > kMaxLanes,
             "numLanes (%u) must be 1..%u: a warp's lanes are one 32-bit "
             "mask",
             cfg_.numLanes, kMaxLanes);
    fatal_if(cfg_.stackCacheLines > 0 &&
                 (cfg_.stackCacheLineBytes <
                      4 * cfg_.numLanes ||
                  cfg_.stackCacheLineBytes % cfg_.numLanes != 0),
             "stackCacheLineBytes (%u) must be a multiple of the lane "
             "count (%u) covering at least one word per lane; %u (16 x "
             "numLanes) keeps the 16-byte stack slot granule",
             cfg_.stackCacheLineBytes, cfg_.numLanes, 16 * cfg_.numLanes);
    for (auto &scr : scrs_)
        scr = cap::nullCapPipe();

    decoded_ = std::make_shared<const engine::DecodedProgram>();

    // Runtime fault-injection sites hook the register-file and scratchpad
    // write paths; memory sites (tag/DRAM-word flips) are applied by the
    // launch layer, once, to the shared base DRAM instead.
    if (cfg_.faultPlan.runtimeSite() &&
        cfg_.faultPlan.appliesToSm(cfg_.smId)) {
        injector_ = std::make_unique<FaultInjector>(cfg_.faultPlan);
        regfile_.attachFaultInjector(injector_.get());
        scratchpad_.attachFaultInjector(injector_.get());
    }
}

uint64_t
Sm::faultFires() const
{
    return injector_ ? injector_->fires() : 0;
}

void
Sm::loadProgram(const std::vector<uint32_t> &words)
{
    fatal_if(words.size() * 4 > kTcimSize, "program exceeds TCIM size");
    code_ = words;
    decoded_ = engine::sharedProgram(words);
}

void
Sm::setScr(isa::Scr scr, const CapPipe &value)
{
    fatal_if(scr >= isa::NUM_SCRS,
             "special capability register %u out of range",
             static_cast<unsigned>(scr));
    scrs_[scr] = value;
}

void
Sm::attachTrace(support::trace::Buffer *buf,
                support::trace::StepProfile *profile)
{
    trace_ = buf;
    profile_ = profile;
    if (profile_ != nullptr) {
        profile_->opSteps.resize(static_cast<size_t>(Op::NUM_OPS), 0);
        profile_->opMisses.resize(static_cast<size_t>(Op::NUM_OPS), 0);
    }
    if (injector_)
        injector_->attachTrace(buf);
}

void
Sm::launch(uint32_t entry_pc, unsigned warps_per_block)
{
    fatal_if(warps_per_block == 0 || cfg_.numWarps % warps_per_block != 0,
             "warps per block (%u) must divide warp count (%u)",
             warps_per_block, cfg_.numWarps);
    warpsPerBlock_ = warps_per_block;

    // The program-counter capability covers the instruction memory with
    // execute permission; with the static-PC-metadata restriction this is
    // set once here and never changed.
    CapPipe code_cap = cap::setBounds(cap::rootCap(), kTcimSize).cap;
    code_cap = cap::andPerms(
        code_cap, static_cast<uint8_t>(cap::PERM_EXECUTE | cap::PERM_LOAD |
                                       cap::PERM_GLOBAL));

    warps_.assign(cfg_.numWarps, Warp{});
    for (auto &w : warps_) {
        w.place(allLanes_, entry_pc, 0);
        w.pcc.fill(code_cap);
        w.liveThreads = cfg_.numLanes;
    }
    sched_.assign(cfg_.numWarps, 0);
    liveWarps_ = cfg_.numWarps;
    rrPtr_ = 0;
    now_ = 0;
    sfuBusyUntil_ = 0;
    firstTrap_ = TrapInfo{};
    hostNanos_ = 0;
    dataOccAccum_ = 0;
    metaOccAccum_ = 0;

    // A launch starts from clean microarchitectural state and counters;
    // DRAM and scratchpad contents persist (host-visible memory).
    regfile_.reset();
    tagController_.reset();
    stackCache_.reset();
    dramTimer_.reset();
    if (injector_)
        injector_->reset();
    stats_.clear();
    std::fill(opCounts_.begin(), opCounts_.end(), 0);
    ctrInstrs_ = 0;
    ctrCheriInstrs_ = 0;
    ctrIssueSlots_ = 0;
    ctrFastpath_ = 0;
    ctrPackedMem_ = 0;
    ctrFused_ = 0;

    // The host-throughput counters are emitted together even when one
    // stays zero (fast paths disabled, or nothing scalarised), so results
    // files always carry the full set (json_check relies on the pairing
    // and subset invariants).
    stats_.add("simhost_instrs", 0);
    stats_.add("simhost_fastpath_instrs", 0);
    stats_.add("simhost_packed_mem_instrs", 0);
    stats_.add("simhost_fused_instrs", 0);
}

int
Sm::selectActive(Warp &w, unsigned &num_active, bool &fully_active)
{
    num_active = 0;
    fully_active = false;
    if (w.numGroups == 0)
        return -1;
    // Deepest nesting level first, then lowest PC (Section 2.3): the
    // groups are kept in that order, so the first one issues, led by its
    // lowest lane.
    const LaneGroup &g = w.groups[0];
    const int leader = std::countr_zero(g.lanes);
    LaneMask at = g.lanes;
    const bool check_pcc = cfg_.purecap && !cfg_.staticPcMeta;
    if (check_pcc && !w.pccUniform) {
        // Dynamic PC metadata: active threads must agree on the whole
        // PCC, not just the address.
        forLanes(g.lanes, [&](unsigned lane) {
            if (!(w.pcc[lane] == w.pcc[leader]))
                at &= ~(LaneMask{1} << lane);
        });
    }
    active_ = at;
    num_active = static_cast<unsigned>(std::popcount(at));
    fully_active = w.numGroups == 1 && at == g.lanes;
    if (fully_active && check_pcc)
        w.pccUniform = true;
    return leader;
}

void
Sm::haltThread(unsigned warp, unsigned lane)
{
    Warp &w = warps_[warp];
    const LaneMask bit = LaneMask{1} << lane;
    if (w.halted & bit)
        return;
    w.halted |= bit;
    w.halt(lane);
    --w.liveThreads;
    if (w.liveThreads == 0) {
        --liveWarps_;
        schedUpdate(warp);
        // A finishing warp may be the last arrival its block's barrier
        // was waiting for.
        releaseBarrierIfReady(warp / warpsPerBlock_);
    }
}

namespace
{

/** Describe the faulting address's relation to the capability bounds. */
std::string
trapBoundsRelation(const TrapInfo &t)
{
    if (!t.hasCap)
        return "no capability context";
    if (!t.capTag)
        return "tag clear";
    if (t.addr < t.capBase)
        return support::strprintf("%u bytes below base",
                                  t.capBase - t.addr);
    if (static_cast<uint64_t>(t.addr) >= t.capTop)
        return support::strprintf(
            "%llu bytes past top",
            static_cast<unsigned long long>(t.addr - t.capTop));
    return "within bounds (permission/seal check failed)";
}

} // namespace

std::string
formatTrapRecord(const TrapInfo &t, const std::string &kernel, bool purecap,
                 int sm)
{
    if (!t.trapped)
        return "no trap";
    std::string s = trapKindName(t.kind);
    s += support::strprintf(": kernel=%s", kernel.c_str());
    if (sm >= 0)
        s += support::strprintf(" sm%d", sm);
    s += support::strprintf(" warp %u lane %u pc=0x%08x", t.warp, t.lane,
                            t.pc);
    s += support::strprintf(
        " '%s'",
        t.hasInstr ? isa::toString(t.instr, purecap).c_str() : "<no instr>");
    s += support::strprintf(" addr=0x%08x", t.addr);
    if (t.hasCap) {
        s += support::strprintf(
            " cap=[0x%08x,0x%09llx) perms=0x%02x tag=%d", t.capBase,
            static_cast<unsigned long long>(t.capTop), t.capPerms,
            t.capTag ? 1 : 0);
        s += " (" + trapBoundsRelation(t) + ")";
    }
    return s;
}

void
Sm::trapForensics(TrapInfo &t, const Instr *in, const CapPipe *auth_cap)
{
    if (in != nullptr) {
        t.hasInstr = true;
        t.instr = *in;
    }
    if (auth_cap != nullptr) {
        t.hasCap = true;
        t.capTag = auth_cap->tag;
        t.capPerms = auth_cap->perms;
        const cap::Bounds bounds = cap::getBounds(*auth_cap);
        t.capBase = bounds.base;
        t.capTop = bounds.top;
    }
}

void
Sm::traceTrap(const TrapInfo &t)
{
    using namespace support::trace;
    if (trace_ == nullptr || !trace_->wants(kCatTrap))
        return;
    Event &e = trace_->emit(EventKind::Instant, kCatTrap,
                            std::string("trap: ") + trapKindName(t.kind));
    e.cycle = now_;
    auto &args = e.args;
    using support::json::Value;
    args.emplace_back("kind", Value::str(trapKindName(t.kind)));
    args.emplace_back("pc", Value::str(support::strprintf("0x%08x", t.pc)));
    args.emplace_back("warp", Value::integer(t.warp));
    args.emplace_back("lane", Value::integer(t.lane));
    args.emplace_back("addr",
                      Value::str(support::strprintf("0x%08x", t.addr)));
    if (t.hasInstr)
        args.emplace_back("instr",
                          Value::str(isa::toString(t.instr, cfg_.purecap)));
    if (t.hasCap) {
        args.emplace_back(
            "cap", Value::str(support::strprintf(
                       "[0x%08x,0x%09llx) perms=0x%02x tag=%d", t.capBase,
                       static_cast<unsigned long long>(t.capTop), t.capPerms,
                       t.capTag ? 1 : 0)));
        args.emplace_back("bounds_relation",
                          Value::str(trapBoundsRelation(t)));
    }
}

void
Sm::trap(unsigned warp, unsigned lane, uint32_t pc, Op op, uint32_t addr,
         TrapKind kind, const Instr *in, const CapPipe *auth_cap)
{
    statCheriTraps_.add();
    if (!firstTrap_.trapped) {
        firstTrap_.trapped = true;
        firstTrap_.pc = pc;
        firstTrap_.addr = addr;
        firstTrap_.warp = warp;
        firstTrap_.lane = lane;
        firstTrap_.op = op;
        firstTrap_.kind = kind;
        trapForensics(firstTrap_, in, auth_cap);
    }
    if (trace_ != nullptr) {
        TrapInfo t;
        t.trapped = true;
        t.pc = pc;
        t.addr = addr;
        t.warp = warp;
        t.lane = lane;
        t.op = op;
        t.kind = kind;
        trapForensics(t, in, auth_cap);
        traceTrap(t);
    }
    haltThread(warp, lane);
}

void
Sm::containmentTrap(unsigned warp, unsigned lane, uint32_t pc, Op op,
                    uint32_t addr, TrapKind kind, const Instr *in)
{
    if (!firstTrap_.trapped) {
        firstTrap_.trapped = true;
        firstTrap_.pc = pc;
        firstTrap_.addr = addr;
        firstTrap_.warp = warp;
        firstTrap_.lane = lane;
        firstTrap_.op = op;
        firstTrap_.kind = kind;
        trapForensics(firstTrap_, in, nullptr);
    }
    if (trace_ != nullptr) {
        TrapInfo t;
        t.trapped = true;
        t.pc = pc;
        t.addr = addr;
        t.warp = warp;
        t.lane = lane;
        t.op = op;
        t.kind = kind;
        trapForensics(t, in, nullptr);
        traceTrap(t);
    }
    haltThread(warp, lane);
}

void
Sm::trapActive(unsigned warp, uint32_t pc, Op op, uint32_t addr,
               TrapKind kind, const Instr *in, const CapPipe *auth_cap)
{
    forLanes(active_, [&](unsigned lane) {
        trap(warp, lane, pc, op, addr, kind, in, auth_cap);
    });
    active_ = 0;
}

uint32_t
Sm::loadValue(uint32_t addr, unsigned log_width, bool sign)
{
    uint32_t raw;
    if (Scratchpad::contains(addr)) {
        raw = log_width == 0
                  ? scratchpad_.load8(addr)
                  : (log_width == 1 ? scratchpad_.load16(addr)
                                    : scratchpad_.load32(addr));
    } else if (MainMemory::contains(addr)) {
        raw = log_width == 0 ? mem_.load8(addr)
                             : (log_width == 1 ? mem_.load16(addr)
                                               : mem_.load32(addr));
    } else if (addr >= kTcimBase && addr < kTcimBase + kTcimSize) {
        const size_t idx = (addr & ~3u) / 4;
        raw = idx < code_.size() ? code_[idx] : 0;
        raw >>= (addr & 3) * 8;
        raw &= static_cast<uint32_t>(support::mask(8u << log_width));
    } else {
        panic("load from unmapped address 0x%08x", addr);
    }
    if (sign && log_width < 2)
        raw = static_cast<uint32_t>(
            support::signExtend32(raw, 8u << log_width));
    return raw;
}

void
Sm::storeValue(uint32_t addr, unsigned log_width, uint32_t value)
{
    const unsigned bytes = 1u << log_width;
    if (Scratchpad::contains(addr)) {
        if (log_width == 0)
            scratchpad_.store8(addr, static_cast<uint8_t>(value));
        else if (log_width == 1)
            scratchpad_.store16(addr, static_cast<uint16_t>(value));
        else
            scratchpad_.store32(addr, value);
        scratchpad_.clearTagForStore(addr, bytes);
    } else if (MainMemory::contains(addr)) {
        if (log_width == 0)
            mem_.store8(addr, static_cast<uint8_t>(value));
        else if (log_width == 1)
            mem_.store16(addr, static_cast<uint16_t>(value));
        else
            mem_.store32(addr, value);
    } else {
        panic("store to unmapped address 0x%08x", addr);
    }
}

cap::CapMem
Sm::loadCap(uint32_t addr)
{
    return Scratchpad::contains(addr) ? scratchpad_.loadCap(addr)
                                      : mem_.loadCap(addr);
}

void
Sm::storeCap(uint32_t addr, const cap::CapMem &value)
{
    if (Scratchpad::contains(addr))
        scratchpad_.storeCap(addr, value);
    else
        mem_.storeCap(addr, value);
}

uint32_t
Sm::atomicRmw(Op op, uint32_t addr, uint32_t operand, bool result_used)
{
    // DRAM atomics go through the shard's logged entry point so the
    // epoch merge can mediate them deterministically. Scratchpad atomics
    // stay local: the scratchpad is private per SM.
    if (MainMemory::contains(addr))
        return mem_.amo32(op, addr, operand, result_used);
    const uint32_t old = loadValue(addr, 2, false);
    storeValue(addr, 2, amoApply(op, old, operand));
    return old;
}

void
Sm::releaseBarrierIfReady(unsigned block)
{
    const unsigned first = block * warpsPerBlock_;
    for (unsigned w = first; w < first + warpsPerBlock_; ++w) {
        if (!warps_[w].done() && !warps_[w].atBarrier)
            return;
    }
    for (unsigned w = first; w < first + warpsPerBlock_; ++w) {
        if (warps_[w].atBarrier) {
            warps_[w].atBarrier = false;
            warps_[w].readyAt = now_ + 1;
            schedUpdate(w);
        }
    }
    statBarriersReleased_.add();
}

bool
Sm::run(uint64_t max_cycles)
{
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = runLoop(max_cycles);
    hostNanos_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    flushStepCounters();
    if (injector_)
        stats_.set("fault_injections", injector_->fires());

    using namespace support::trace;
    if (trace_ != nullptr && trace_->wants(kCatCounter)) {
        using support::json::Value;
        const uint64_t instrs = stats_.get("simhost_instrs");
        const uint64_t fast = stats_.get("simhost_fastpath_instrs");
        Event &hr = trace_->emit(EventKind::Counter, kCatCounter,
                                 "fastpath_hit_rate");
        hr.cycle = now_;
        hr.args.emplace_back(
            "rate", Value::number(instrs ? static_cast<double>(fast) /
                                               static_cast<double>(instrs)
                                         : 0.0));
        Event &dr = trace_->emit(EventKind::Counter, kCatCounter,
                                 "dram_bytes");
        dr.cycle = now_;
        dr.args.emplace_back("read",
                             Value::integer(stats_.get("dram_bytes_read")));
        dr.args.emplace_back(
            "written", Value::integer(stats_.get("dram_bytes_written")));
        Event &pm = trace_->emit(EventKind::Counter, kCatCounter,
                                 "packed_mem");
        pm.cycle = now_;
        pm.args.emplace_back(
            "packed_mem_instrs",
            Value::integer(stats_.get("simhost_packed_mem_instrs")));
        pm.args.emplace_back(
            "fused_instrs",
            Value::integer(stats_.get("simhost_fused_instrs")));
    }
    return ok;
}

Sm::RunStatus
Sm::runUntil(uint64_t stop_cycle)
{
    const auto t0 = std::chrono::steady_clock::now();
    const RunStatus st = runLoopCore(stop_cycle);
    hostNanos_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    // Mirror run()'s per-segment bookkeeping so a paused launch carries
    // coherent stats at every chunk boundary (flushStepCounters is
    // flush-and-zero, so chunked segments accumulate exactly).
    flushStepCounters();
    if (injector_)
        stats_.set("fault_injections", injector_->fires());
    return st;
}

bool
Sm::runLoop(uint64_t max_cycles)
{
    const RunStatus st = runLoopCore(max_cycles);
    if (st == RunStatus::Completed)
        return true;
    if (st == RunStatus::Deadlock)
        return false;
    support::log(support::LogLevel::Info,
                 "kernel did not complete within %llu cycles",
                 static_cast<unsigned long long>(max_cycles));
    // Surface the timeout as a structured trap so launch policies can
    // contain runaway kernels without scraping stderr. Like the
    // barrier-deadlock trap this is recorded directly, not via trap():
    // it is a containment event, not a CHERI violation, so the
    // cheri-trap counter must not move.
    if (!firstTrap_.trapped) {
        firstTrap_.trapped = true;
        firstTrap_.kind = TrapKind::WatchdogTimeout;
        firstTrap_.addr = 0;
        for (unsigned wid = 0; wid < cfg_.numWarps; ++wid) {
            const Warp &w = warps_[wid];
            if (w.done())
                continue;
            firstTrap_.warp = wid;
            firstTrap_.lane = std::countr_zero(allLanes_ & ~w.halted);
            firstTrap_.pc = w.pcOf(firstTrap_.lane);
            break;
        }
    }
    if (trace_ != nullptr && trace_->wants(support::trace::kCatWatchdog)) {
        support::trace::Event &e = trace_->emit(
            support::trace::EventKind::Instant, support::trace::kCatWatchdog,
            "watchdog-timeout");
        e.cycle = now_;
        e.args.emplace_back("max_cycles",
                            support::json::Value::integer(max_cycles));
    }
    return false;
}

Sm::RunStatus
Sm::runLoopCore(uint64_t max_cycles)
{
    while (now_ < max_cycles) {
        if (injector_)
            injector_->setNow(now_);
        if (liveWarps_ == 0) {
            // Fold per-op counts into the stat set.
            for (size_t i = 0; i < opCounts_.size(); ++i) {
                if (opCounts_[i]) {
                    stats_.set("op_" + isa::opName(static_cast<Op>(i),
                                                   cfg_.purecap),
                               opCounts_[i]);
                }
            }
            stats_.set("cycles", now_);
            return RunStatus::Completed;
        }

        // Round-robin issue among ready warps. The scan runs once per
        // issue slot, so it reads the dense sched_ mirror (readyAt, or
        // u64 max for finished/parked warps) instead of chasing the
        // scattered Warp structs, and wraps with a compare instead of a
        // modulo. Selection order is identical to the original
        // per-struct scan.
        int chosen = -1;
        for (unsigned i = 0, wid = rrPtr_; i < cfg_.numWarps; ++i) {
            if (sched_[wid] <= now_) {
                chosen = static_cast<int>(wid);
                break;
            }
            if (++wid == cfg_.numWarps)
                wid = 0;
        }

        if (chosen < 0) {
            // Idle: fast-forward to the next warp wake-up. (Finished
            // and parked warps sit at u64 max in the mirror, so the
            // plain min is the min over issuable warps.)
            uint64_t next = std::numeric_limits<uint64_t>::max();
            for (const uint64_t t : sched_)
                next = std::min(next, t);
            if (next == std::numeric_limits<uint64_t>::max()) {
                support::log(support::LogLevel::Info,
                             "deadlock: all live warps waiting at a barrier");
                // Surface the deadlock as a structured trap so harnesses
                // (and the multi-SM merge) can detect it without
                // scraping stderr. Recorded directly rather than via
                // trap(): this is a scheduling failure, not a CHERI
                // violation, so the cheri-trap counter must not move.
                if (!firstTrap_.trapped) {
                    for (unsigned wid = 0; wid < cfg_.numWarps; ++wid) {
                        const Warp &w = warps_[wid];
                        if (w.done() || !w.atBarrier)
                            continue;
                        firstTrap_.trapped = true;
                        firstTrap_.warp = wid;
                        firstTrap_.kind = TrapKind::BarrierDeadlock;
                        firstTrap_.addr = 0;
                        firstTrap_.lane =
                            std::countr_zero(allLanes_ & ~w.halted);
                        firstTrap_.pc = w.pcOf(firstTrap_.lane);
                        break;
                    }
                }
                if (trace_ != nullptr &&
                    trace_->wants(support::trace::kCatWatchdog)) {
                    support::trace::Event &e = trace_->emit(
                        support::trace::EventKind::Instant,
                        support::trace::kCatWatchdog, "barrier-deadlock");
                    e.cycle = now_;
                }
                return RunStatus::Deadlock;
            }
            const uint64_t dt = next - now_;
            statIdleCycles_.add(dt);
            dataOccAccum_ += regfile_.dataVectorsInVrf() * dt;
            metaOccAccum_ += regfile_.metaVectorsInVrf() * dt;
            now_ = next;
            continue;
        }

        rrPtr_ = static_cast<unsigned>(chosen) + 1;
        if (rrPtr_ == cfg_.numWarps)
            rrPtr_ = 0;
        const unsigned slot_cycles = executeWarp(chosen);
        dataOccAccum_ += regfile_.dataVectorsInVrf() * slot_cycles;
        metaOccAccum_ += regfile_.metaVectorsInVrf() * slot_cycles;
        now_ += slot_cycles;
    }
    return RunStatus::CycleLimit;
}

double
Sm::avgDataVectorsInVrf() const
{
    return now_ ? static_cast<double>(dataOccAccum_) / now_ : 0.0;
}

double
Sm::avgMetaVectorsInVrf() const
{
    return now_ ? static_cast<double>(metaOccAccum_) / now_ : 0.0;
}

void
Sm::executeAluLane(Warp &w, unsigned wid, unsigned lane, const Instr &in,
                   uint32_t pc, uint32_t a, uint32_t b, const CapMeta &m1)
{
    const Op op = in.op;
    const int32_t imm = in.imm;
    // The trap-free data ops: one lane of alu.hpp's table, tested ahead
    // of the switch so they take one jump table, not two.
    if (alu::covers(op)) {
        result_[lane] = alu::lane(op, a, b, imm);
        return;
    }

    const auto cap1 = [&]() { return capFromParts(a, m1); };
    const auto set_cap_result = [&](const CapPipe &c) {
        resultMetaDirty_ = true;
        capToParts(c, result_[lane], resultMeta_[lane]);
    };

    uint32_t r = 0;
    switch (op) {
      case Op::AUIPC:
        if (cfg_.purecap) {
            const CapPipe c = cap::setAddr(
                w.pcc[lane], pc + static_cast<uint32_t>(imm));
            set_cap_result(c);
            r = result_[lane];
        } else {
            r = pc + static_cast<uint32_t>(imm);
        }
        break;
      case Op::CSRRW:
      case Op::CSRRS:
        switch (static_cast<uint16_t>(imm)) {
          case isa::CSR_HARTID:
            r = cfg_.globalThreadBase() + wid * cfg_.numLanes + lane;
            break;
          case isa::CSR_NUMTHREADS:
            r = cfg_.globalNumThreads();
            break;
          case isa::CSR_WARPID: r = wid; break;
          case isa::CSR_LANEID: r = lane; break;
          default: r = 0; break;
        }
        break;

      // Control flow and SIMT ops handled in the PC-update section; no
      // data-path result.
      case Op::JAL:
      case Op::JALR:
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
      case Op::SIMT_PUSH: case Op::SIMT_POP:
      case Op::SIMT_BARRIER: case Op::SIMT_HALT:
      case Op::SIMT_TRAP:
        break;

      // CHERI per-lane fast path.
      case Op::CGETTAG:
        r = m1.tag ? 1 : 0;
        break;
      case Op::CGETPERM: r = cap1().perms; break;
      case Op::CGETTYPE: r = cap1().otype; break;
      case Op::CGETSEALED:
        r = cap1().isSealed() ? 1 : 0;
        break;
      case Op::CGETFLAGS: r = cap1().flag ? 1 : 0; break;
      case Op::CMOVE:
        result_[lane] = a;
        resultMetaDirty_ = true;
        resultMeta_[lane] = m1;
        break;
      case Op::CCLEARTAG:
        result_[lane] = a;
        resultMetaDirty_ = true;
        resultMeta_[lane] = m1;
        resultMeta_[lane].tag = false;
        break;
      case Op::CANDPERM:
        set_cap_result(cap::andPerms(
            cap1(), static_cast<uint8_t>(b)));
        break;
      case Op::CSETFLAGS: {
        CapPipe c = cap1();
        if (c.isSealed())
            c.tag = false;
        c.flag = (b & 1) != 0;
        set_cap_result(c);
        break;
      }
      case Op::CSEALENTRY:
        set_cap_result(cap::sealEntry(cap1()));
        break;
      case Op::CSETADDR:
        set_cap_result(cap::setAddr(cap1(), b));
        break;
      case Op::CINCOFFSET:
        set_cap_result(cap::incAddr(cap1(), b));
        break;
      case Op::CINCOFFSETIMM:
        set_cap_result(cap::incAddr(
            cap1(), static_cast<uint32_t>(imm)));
        break;
      case Op::CSPECIALRW: {
        const auto scr_idx = static_cast<isa::Scr>(imm & 0x1f);
        if (scr_idx >= isa::NUM_SCRS) {
            trap(wid, lane, pc, op, scr_idx, TrapKind::BadScrIndex, &in);
            active_ &= ~(LaneMask{1} << lane);
            break;
        }
        const CapPipe old = scr_idx == isa::SCR_PCC
                                ? w.pcc[lane]
                                : scrs_[scr_idx];
        if (in.rs1 != 0 && scr_idx != isa::SCR_PCC)
            scrs_[scr_idx] = cap1();
        set_cap_result(old);
        break;
      }
      // Bounds ops: the same per-lane semantics whether the SFU
      // serialises them (offload) or the data path runs them at normal
      // latency.
      case Op::CGETBASE:
        r = cap::getBase(cap1());
        break;
      case Op::CGETLEN: {
        const uint64_t len = cap::getLength(cap1());
        r = static_cast<uint32_t>(
            std::min<uint64_t>(len, 0xffffffffull));
        break;
      }
      case Op::CSETBOUNDS:
      case Op::CSETBOUNDSEXACT:
      case Op::CSETBOUNDSIMM: {
        const uint32_t len = op == Op::CSETBOUNDSIMM
                                 ? static_cast<uint32_t>(imm)
                                 : b;
        const cap::SetBoundsResult res =
            cap::setBounds(cap1(), len);
        if (op == Op::CSETBOUNDSEXACT && !res.exact) {
            const CapPipe c = cap1();
            trap(wid, lane, pc, op, a, TrapKind::InexactBounds, &in, &c);
            active_ &= ~(LaneMask{1} << lane);
            break;
        }
        set_cap_result(res.cap);
        break;
      }
      case Op::CRRL:
        r = cap::representableLength(a);
        break;
      case Op::CRAM:
        r = cap::representableAlignmentMask(a);
        break;
      default:
        panic("unimplemented op %s", isa::opName(op).c_str());
    }

    switch (op) {
      case Op::CMOVE: case Op::CCLEARTAG: case Op::CANDPERM:
      case Op::CSETFLAGS: case Op::CSEALENTRY: case Op::CSETADDR:
      case Op::CINCOFFSET: case Op::CINCOFFSETIMM:
      case Op::CSPECIALRW: case Op::CSETBOUNDS:
      case Op::CSETBOUNDSEXACT: case Op::CSETBOUNDSIMM:
        break; // result_ already set via set_cap_result
      case Op::AUIPC:
        if (cfg_.purecap)
            break;
        [[fallthrough]];
      default:
        result_[lane] = r;
        break;
    }
}

// ---- The execute stage ----
//
// executeWarp is the driver: it selects the active lanes, fetches and
// PCC-checks the instruction, fetches the operands, hands the step to
// one class step (memory, SFU, ALU or control), then writes back,
// accounts spill traffic and schedules the warp. The engine is
// SmConfig::hostFastPath: the reference engine is the plain per-lane
// interpreter; the accelerated engine adds the descriptor fast paths,
// threaded ALU dispatch and packed memory lanes, each next to the
// reference path it must match (DESIGN.md section 10).

/**
 * One warp instruction in flight. The driver fills the issue, decode
 * and operand fields; the class step fills the outcome, which the
 * driver writes back and schedules.
 */
struct Sm::Step
{
    // A constructor rather than aggregate initialisation: the latter
    // clears the whole (mostly zero) struct with a block store on every
    // warp-step, which costs more than the member stores.
    Step(Warp &warp, unsigned warp_id, uint32_t issue_pc, uint32_t issue_nest,
         const Instr &instr, const OpTraits &traits, size_t index,
         int leader_lane, unsigned num_active, bool fully_active,
         bool pcc_uniform, bool rs1_is_cap, uint64_t ready)
        : w(warp), wid(warp_id), pc(issue_pc), nest(issue_nest), in(instr),
          op(instr.op),
          tr(traits), idx(index), leader(leader_lane), numActive(num_active),
          fullyActive(fully_active), pccUniform(pcc_uniform),
          rs1IsCap(rs1_is_cap), finish(ready), writesRd(traits.usesRd)
    {
    }

    Warp &w;
    const unsigned wid;
    const uint32_t pc;
    const uint32_t nest; ///< the issuing group's nesting level
    const Instr &in;
    const Op op;
    const OpTraits &tr;
    const size_t idx;   ///< instruction index into the decoded program
    const int leader;   ///< the selected lane whose PC (and PCC) issues
    const unsigned numActive;
    const bool fullyActive; ///< the issue covers every live lane
    /** Every active lane provably shares the whole PCC: selection
     *  compares it under dynamic PC metadata, and pccUniform covers all
     *  live lanes otherwise. */
    const bool pccUniform;
    const bool rs1IsCap; ///< rs1 is read as a capability

    // Operand descriptors: closed forms stay unexpanded until a per-lane
    // path needs the lanes.
    DataDesc rs1d, rs2d;
    MetaDesc rs1m, rs2m;

    uint64_t finish;          ///< cycle the result is ready
    unsigned extraCycles = 0; ///< issue-slot cycles beyond the first
    bool writesRd;
    bool fastHit = false; ///< retired through an accelerated path

    // Result descriptor for writeback: with resAffine set, every active
    // lane's result is resBase + resStride * lane with metadata resMeta;
    // otherwise result_/resultMeta_ hold per-lane values.
    bool resAffine = false;
    uint32_t resBase = 0;
    int32_t resStride = 0;
    CapMeta resMeta{};

    /** Commit a closed-form result: an accelerated retirement. */
    void
    result(uint32_t base, int32_t stride, CapMeta meta = CapMeta{})
    {
        resAffine = true;
        resBase = base;
        resStride = stride;
        resMeta = meta;
        fastHit = true;
    }
};

unsigned
Sm::executeWarp(unsigned wid)
{
    Warp &w = warps_[wid];
    const bool check_pcc = cfg_.purecap && !cfg_.staticPcMeta;

    // ---- Active-thread selection ----
    unsigned num_active;
    bool fully_active;
    const int leader = selectActive(w, num_active, fully_active);
    panic_if(leader < 0, "executeWarp on a finished warp");
    const uint32_t pc = w.groups[0].pc;
    const uint32_t nest = w.groups[0].nest;

    // ---- Fetch ----
    // One instruction fetched and decoded per warp (control-flow
    // regularity). In purecap mode the PCC is checked once per warp.
    const size_t idx = (pc - kTcimBase) / 4;
    if (pc % 4 != 0 || idx >= decoded_->size()) {
        trapActive(wid, pc, Op::ILLEGAL, pc, TrapKind::BadFetchPc);
        return 1;
    }
    if (cfg_.purecap && !(((w.fetchLanes >> leader) & 1) &&
                          pc >= w.fetchLo &&
                          static_cast<uint64_t>(pc) + 4 <= w.fetchHi)) {
        const CapPipe &pcc = w.pcc[leader];
        if (!pcc.tag || !(pcc.perms & cap::PERM_EXECUTE) ||
            !cap::isRangeInBounds(pcc, pc, 4)) {
            trapActive(wid, pc, Op::ILLEGAL, pc, TrapKind::PccViolation,
                       nullptr, &pcc);
            return 1;
        }
        if (!(pcc == w.fetchCap)) {
            w.fetchCap = pcc;
            w.fetchLanes = 0;
        }
        // The lanes known to hold this PCC: every live one when the
        // warp's PCCs are uniform, else the selected lanes, which
        // selection matched against the leader's PCC (dynamic PC
        // metadata) or, under static PC metadata, the leader alone.
        w.fetchLanes |= w.pccUniform ? allLanes_ & ~w.halted
                        : check_pcc  ? active_
                                     : LaneMask{1} << leader;
        const cap::Bounds fb = cap::getBounds(pcc);
        w.fetchLo = fb.base;
        w.fetchHi = fb.top;
    }

    const Instr &in = decoded_->instrs[idx];
    const Op op = in.op;
    if (op == Op::ILLEGAL) {
        trapActive(wid, pc, op, pc, TrapKind::IllegalInstruction, &in);
        return 1;
    }

    // ---- Counters ----
    ++ctrInstrs_;
    // Fusion coverage: instructions retiring inside a fused block. The
    // count follows the decode-time annotation, so it is the same under
    // either engine.
    if (decoded_->fusedId[idx] != 0)
        ++ctrFused_;
    opCounts_[static_cast<size_t>(op)]++;
    // Per-PC profile histogram (observational; nullptr unless --profile).
    if (profile_ != nullptr && idx < profile_->pcCounts.size())
        profile_->pcCounts[idx]++;
    const OpTraits &tr = opTraits(op);
    if (tr.cheri)
        ++ctrCheriInstrs_;

    // ---- Operand fetch (lazy descriptors) ----
    // Descriptor reads are side-effect-identical to the eager readData /
    // readMeta calls; compressed registers stay in closed form until a
    // per-lane path actually needs the expansion.
    Step s(w, wid, pc, nest, in, tr, idx, leader, num_active, fully_active,
           check_pcc || w.pccUniform,
           cfg_.purecap &&
               (tr.memAccess || op == Op::JALR ||
                (tr.cheri && op != Op::CRRL && op != Op::CRAM)),
           now_ + cfg_.pipelineDepth);
    RfAccess fetch_acc;
    if (tr.usesRs1)
        regfile_.readDataDesc(wid, in.rs1, rs1Data_, s.rs1d, fetch_acc);
    if (tr.usesRs2)
        regfile_.readDataDesc(wid, in.rs2, rs2Data_, s.rs2d, fetch_acc);
    if (s.rs1IsCap)
        regfile_.readMetaDesc(wid, in.rs1, rs1Meta_, s.rs1m, fetch_acc);
    if (cfg_.purecap && (op == Op::CSC || op == Op::CSPECIALRW))
        regfile_.readMetaDesc(wid, in.rs2, rs2Meta_, s.rs2m, fetch_acc);
    // A divergent step reads its active lanes only, so its operands need
    // describe only those (DESIGN.md section 10): per-lane values that
    // are affine or uniform over the active lanes take the closed forms.
    // The kind tests stay here, so a closed-form operand costs no call.
    if (cfg_.hostFastPath && active_ != allLanes_) {
        if (s.rs1d.kind == DataDesc::Kind::Lanes)
            s.rs1d.narrowTo(active_);
        if (s.rs2d.kind == DataDesc::Kind::Lanes)
            s.rs2d.narrowTo(active_);
        if (!s.rs1m.isUniform())
            s.rs1m.narrowTo(active_);
        if (!s.rs2m.isUniform())
            s.rs2m.narrowTo(active_);
    }

    if (cfg_.metaSrfSinglePort && op == Op::CSC) {
        // Two capability source operands through a single-read-port
        // metadata SRF (Section 3.2).
        ++s.extraCycles;
        statCscPortStalls_.add();
    }
    if (cfg_.sharedVrf && fetch_acc.dataFromVrf && fetch_acc.metaFromVrf) {
        // Serialised data/metadata access to the shared VRF (Section 3.2).
        ++s.extraCycles;
        statSharedVrfStalls_.add();
    }

    // Lazy null-fill: resultMeta_ only needs re-nulling when some prior
    // step wrote lanes of it (every write site sets the dirty flag), and
    // it is only ever read in purecap mode -- the per-lane writeback
    // treats a null entry as "plain integer result clears the tag".
    if (cfg_.purecap && resultMetaDirty_) {
        resultMeta_.fill(CapMeta{});
        resultMetaDirty_ = false;
    }

    // ---- Execute ----
    if (tr.memAccess)
        execMemory(s);
    else if (tr.fpSlowPath || (cfg_.sfuCheriOffload && tr.cheriSlowPath))
        execSfu(s);
    else if (tr.control)
        execControl(s);
    else
        execAlu(s);
    // The step covered the whole warp: every lane issued and none trapped
    // (each lane a step drops from active_ has trapped and halted).
    const bool full_mask =
        num_active == cfg_.numLanes && w.liveThreads == cfg_.numLanes;
    // Straight-line instructions fall through to the next one; the lanes
    // that trapped have left the group.
    if (!tr.control)
        w.moveLead(active_, pc + 4, nest);

    // ---- Writeback ----
    RfAccess wb_acc;
    if (s.writesRd && in.rd != 0) {
        if (s.resAffine)
            regfile_.writeDataAffine(wid, in.rd, s.resBase, s.resStride,
                                     active_, wb_acc);
        else
            regfile_.writeData(wid, in.rd, result_, active_, wb_acc);
        // Writing a plain integer result sets the metadata to the null
        // value with the tag cleared (Figure 4 caption).
        if (cfg_.purecap) {
            if (s.resAffine && full_mask) {
                regfile_.writeMetaUniform(wid, in.rd, s.resMeta, allLanes_,
                                          wb_acc);
            } else if (cfg_.hostFastPath && !injector_ &&
                       (s.resAffine || !resultMetaDirty_)) {
                // A clean dirty flag means no lane of resultMeta_ was
                // written this step, so the vector is still all-null:
                // with a closed-form result, the active lanes carry one
                // value, and the write is its uniform broadcast (same
                // entry state, stats and RfAccess effects). Engine-tier
                // shortcut: the reference engine keeps the per-lane
                // classify.
                regfile_.writeMetaUniform(
                    wid, in.rd, s.resAffine ? s.resMeta : CapMeta{},
                    active_, wb_acc);
            } else {
                if (s.resAffine) {
                    resultMetaDirty_ = true;
                    forLanes(active_, [&](unsigned lane) {
                        resultMeta_[lane] = s.resMeta;
                    });
                }
                regfile_.writeMeta(wid, in.rd, resultMeta_, active_,
                                   wb_acc);
            }
        }
    }

    if (s.fastHit)
        ++ctrFastpath_;
    if (profile_ != nullptr) {
        ++profile_->opSteps[static_cast<size_t>(op)];
        profile_->opMisses[static_cast<size_t>(op)] += !s.fastHit;
    }

    // Register-file spill/reload traffic goes through DRAM.
    const unsigned rf_bytes = fetch_acc.dramBytes + wb_acc.dramBytes;
    if (rf_bytes > 0) {
        const uint64_t done = dramTimer_.access(now_, rf_bytes);
        statRfSpillDramBytes_.add(rf_bytes);
        if (fetch_acc.reloads + wb_acc.reloads > 0)
            s.finish = std::max(s.finish, done + cfg_.pipelineDepth);
    }

    // ---- Barrier bookkeeping ----
    if (op == Op::SIMT_BARRIER) {
        w.atBarrier = true;
        releaseBarrierIfReady(wid / warpsPerBlock_);
    }

    w.readyAt = std::max(s.finish, now_ + s.extraCycles + 1);
    schedUpdate(wid);
    ctrIssueSlots_ += 1 + s.extraCycles;
    return 1 + s.extraCycles;
}

// ---- Memory step ----

void
Sm::execMemory(Step &s)
{
    // Either path writes rd for a load or atomic, and a capability access
    // is a two-flit (64-bit) transaction that occupies the request
    // serialiser for an extra cycle (Section 3.4).
    s.writesRd = (s.tr.load || s.tr.atomic) && s.in.rd != 0;
    if (s.tr.capAccess)
        ++s.extraCycles;
    if (cfg_.hostFastPath && s.tr.scalarisable && s.rs1d.isRegular() &&
        (!cfg_.purecap || s.rs1m.isUniform()) && memAffine(s))
        return;
    memLanes(s);
}

template <typename AddrFn, typename PermsFn>
void
Sm::memAccessLanes(Step &s, AddrFn &&addr, PermsFn &&auth_perms)
{
    const unsigned log_width = s.tr.accessLogWidth;
    const auto each = [&](auto &&access) {
        forLanes(active_, [&](unsigned lane) { access(lane, addr(lane)); });
    };
    if (s.op == Op::CLC) {
        resultMetaDirty_ = true;
        each([&](unsigned lane, uint32_t a) {
            clcValue(loadCap(a), auth_perms(lane), result_[lane],
                     resultMeta_[lane]);
        });
    } else if (s.op == Op::CSC) {
        each([&](unsigned lane, uint32_t a) {
            storeCap(a, capMemOf(s.rs2d.at(lane), s.rs2m.at(lane)));
        });
    } else if (s.tr.store) {
        each([&](unsigned lane, uint32_t a) {
            storeValue(a, log_width, s.rs2d.at(lane));
        });
    } else {
        each([&](unsigned lane, uint32_t a) {
            result_[lane] = loadValue(a, log_width, s.tr.signedLoad);
        });
    }
}

template <typename TxnsFn>
uint64_t
Sm::dramTiming(const Step &s, uint32_t min_addr, bool writes_tagged_cap,
               TxnsFn &&txns)
{
    const bool write = s.tr.store || s.tr.atomic;
    const uint32_t stack_base = cfg_.smStackBase();
    if (stackCache_.enabled() && min_addr >= stack_base) {
        // A warp access wholly within this SM's slice of the stack region
        // is served by the compressed stack cache: the addresses are
        // affine (uniform slot offset, per-thread stride), so one
        // compressed entry covers the warp, tag bits included. The key is
        // the slot granule (one line's per-thread share) within the
        // frame, qualified by the warp's block of stacks; consecutive
        // warps map to consecutive entries, so a direct-mapped cache
        // holds one live slot per warp without conflict misses.
        const uint32_t granule = cfg_.stackCacheLineBytes / cfg_.numLanes;
        const uint32_t stride = cfg_.stackBytesPerThread;
        const uint32_t warp_block =
            (min_addr - stack_base) / (stride * cfg_.numLanes);
        const uint32_t slot = ((min_addr - stack_base) % stride) / granule;
        statStackWarpAccesses_.add();
        return std::max(now_, stackCache_.access(
                                  now_, slot * cfg_.numWarps + warp_block,
                                  write));
    }
    // Each coalesced transaction passes the tag controller, then queues
    // on the bandwidth-limited DRAM channel.
    const auto &list = txns();
    statDramTransactions_.add(list.size());
    uint64_t done = now_;
    for (const MemTransaction &t : list) {
        const uint64_t tag_done =
            tagController_.access(now_, t.segment, write, writes_tagged_cap);
        done = std::max(done, dramTimer_.access(tag_done, t.bytes));
        if (!s.tr.store)
            statDramBytesRead_.add(t.bytes);
        if (write)
            statDramBytesWritten_.add(t.bytes);
    }
    return done;
}

void
Sm::clcValue(const cap::CapMem &mem, uint8_t auth_perms, uint32_t &data,
             CapMeta &meta) const
{
    CapPipe loaded = cap::fromMem(mem);
    if (cfg_.purecap && !(auth_perms & cap::PERM_LOAD_CAP))
        loaded.tag = false;
    capToParts(loaded, data, meta);
}

unsigned
Sm::scratchpadTiming(const Step &s, LaneMask lanes)
{
    // Bank-conflict serialisation; a capability access touches two
    // consecutive words, doubling the occupancy.
    statScratchpadAccesses_.add();
    return scratchpad_.conflictCycles(addrs_, lanes) *
           (s.tr.capAccess ? 2 : 1);
}

/**
 * The accelerated memory path: affine lane addresses through a uniform
 * capability, checked once for the whole warp. Every gate before the
 * first modelled effect is side-effect free -- any uncertainty
 * (wraparound, mixed regions, divergent alignment or bounds outcomes)
 * returns false and the per-lane path runs instead, which is
 * bit-identical by construction.
 */
bool
Sm::memAffine(Step &s)
{
    const OpTraits &tr = s.tr;
    const unsigned bytes = 1u << tr.accessLogWidth;
    // The descriptor describes the active lanes only, so a0, the lane-0
    // address, may be an extrapolation that no lane uses: every check
    // below starts from the lowest active lane instead.
    const uint32_t a0 = s.rs1d.base + static_cast<uint32_t>(s.in.imm);
    const int64_t stride = s.rs1d.stride;
    const uint32_t ustride = static_cast<uint32_t>(s.rs1d.stride);
    const auto lane_addr = [a0, ustride](unsigned lane) {
        return a0 + ustride * lane;
    };
    // The leader is active, so the mask is not empty.
    const int min_l = std::countr_zero(active_);
    const int max_l =
        static_cast<int>(kMaxLanes) - 1 - std::countl_zero(active_);
    const bool no_holes =
        s.numActive == static_cast<unsigned>(max_l - min_l + 1);
    // The affine span must avoid 32-bit wraparound so the extreme lanes
    // bound every lane's address.
    const int64_t v_lo = lane_addr(static_cast<unsigned>(min_l));
    const int64_t v_hi = v_lo + stride * (max_l - min_l);
    if (v_hi < 0 || v_hi > 0xffffffffll)
        return false;
    const uint32_t n_min = static_cast<uint32_t>(std::min(v_lo, v_hi));
    const uint32_t n_max = static_cast<uint32_t>(std::max(v_lo, v_hi));

    // Both regions are contiguous, so containing the span's endpoints
    // contains every lane address.
    const bool all_shared =
        Scratchpad::contains(n_min) && Scratchpad::contains(n_max);
    const bool all_dram =
        MainMemory::contains(n_min) && MainMemory::contains(n_max);
    if (!all_shared && !all_dram)
        return false; // TCIM / unmapped / mixed regions

    // ---- Warp verdict ----
    CapPipe c0{};
    TrapKind fault = TrapKind::None;
    if (cfg_.purecap) {
        // Every check of the chain is address-independent, so one
        // verdict covers the warp; a CSC's store-cap check needs one
        // source tag across the active lanes.
        c0 = capFromParts(s.rs1d.at(static_cast<unsigned>(min_l)),
                          s.rs1m.value);
        bool mixed_tags = false;
        fault = capAccessFault(c0, tr, [&] {
            LaneMask tagged = 0;
            forLanes(active_, [&](unsigned lane) {
                tagged |= LaneMask{s.rs2m.at(lane).tag} << lane;
            });
            mixed_tags = tagged != 0 && tagged != active_;
            return tagged != 0;
        });
        if (mixed_tags)
            return false;
    }
    if (fault == TrapKind::None) {
        // A stride that is a multiple of the access width makes the
        // alignment residue uniform across lanes.
        if (ustride % bytes != 0)
            return false;
        if (a0 % bytes != 0)
            fault = TrapKind::MisalignedAccess;
    }
    if (cfg_.purecap && fault == TrapKind::None) {
        // getBounds depends on the address only through
        // addr >> (exponent + MW - 3); if that is constant over
        // [n_min, n_max], one decode gives the bounds every lane checks
        // against.
        const unsigned e = c0.exponent > cap::kMaxExponent
                               ? cap::kMaxExponent
                               : c0.exponent;
        const unsigned shift = e + cap::kMantissaWidth - 3;
        if ((static_cast<uint64_t>(n_min) >> shift) !=
            (static_cast<uint64_t>(n_max) >> shift))
            return false;
        CapPipe c_rep = c0;
        c_rep.addr = n_min;
        const cap::Bounds bnd = cap::getBounds(c_rep);
        if (n_min < bnd.base ||
            static_cast<uint64_t>(n_max) + bytes > bnd.top) {
            // Endpoints failing does not imply every lane fails; only
            // provable all-fail scalarises.
            if (static_cast<uint64_t>(n_min) + bytes <= bnd.top &&
                n_max >= bnd.base)
                return false;
            fault = TrapKind::BoundsViolation;
        }
    }

    if (fault != TrapKind::None) {
        // Every active lane takes the same trap, in lane order, with its
        // own (closed-form) address. Its forensic capability is the
        // per-lane path's: the lane's capability set to that address.
        // The baseline machine's only fault here is a misaligned
        // address: a containment trap, as on the per-lane path.
        forLanes(active_, [&](unsigned lane) {
            if (cfg_.purecap) {
                const CapPipe c = cap::setAddr(
                    capFromParts(s.rs1d.at(lane), s.rs1m.value),
                    lane_addr(lane));
                trap(s.wid, lane, s.pc, s.op, lane_addr(lane), fault, &s.in,
                     &c);
            } else {
                containmentTrap(s.wid, lane, s.pc, s.op, lane_addr(lane),
                                fault, &s.in);
            }
        });
        active_ = 0;
        s.fastHit = true;
        return true;
    }

    // ---- Timing (the per-lane path's event sequence) ----
    uint64_t mem_done = now_;
    unsigned shared_cycles = 0;
    if (all_shared) {
        for (unsigned lane = 0; lane < kMaxLanes; ++lane)
            addrs_[lane] = lane_addr(lane);
        shared_cycles = scratchpadTiming(s, active_);
    } else {
        bool writes_tagged_cap = false;
        if (s.op == Op::CSC) {
            forLanes(active_, [&](unsigned lane) {
                writes_tagged_cap = writes_tagged_cap || s.rs2m.at(lane).tag;
            });
        }
        mem_done = dramTiming(
            s, n_min, writes_tagged_cap,
            [&]() -> const std::vector<MemTransaction> & {
                // Closed-form coalescing: affine addresses visit segments
                // monotonically (in lane order for non-negative strides,
                // reversed otherwise), so an ordered walk with a tail
                // check reproduces the coalescer's sorted, deduplicated
                // list.
                fastTxns_.clear();
                const uint32_t seg_bytes = cfg_.coalesceBytes;
                if (no_holes && stride >= -static_cast<int64_t>(seg_bytes) &&
                    stride <= static_cast<int64_t>(seg_bytes)) {
                    // With no inactive gaps and |stride| <= segment size,
                    // consecutive lanes' segment ranges abut or overlap,
                    // so the walk visits exactly every segment from
                    // n_min's to n_max+bytes-1's, each once.
                    const uint32_t first = n_min & ~(seg_bytes - 1);
                    const uint32_t last =
                        (n_max + bytes - 1) & ~(seg_bytes - 1);
                    for (uint32_t seg = first;; seg += seg_bytes) {
                        fastTxns_.push_back(MemTransaction{seg, seg_bytes});
                        if (seg == last)
                            break;
                    }
                    return fastTxns_;
                }
                const bool ascending = stride >= 0;
                const int begin = ascending ? min_l : max_l;
                const int end = ascending ? max_l + 1 : min_l - 1;
                for (int lane = begin; lane != end;
                     lane += ascending ? 1 : -1) {
                    if (!((active_ >> lane) & 1))
                        continue;
                    const uint32_t addr =
                        lane_addr(static_cast<unsigned>(lane));
                    const uint32_t first = addr & ~(seg_bytes - 1);
                    const uint32_t last =
                        (addr + bytes - 1) & ~(seg_bytes - 1);
                    for (uint32_t seg = first;; seg += seg_bytes) {
                        if (fastTxns_.empty() ||
                            seg > fastTxns_.back().segment)
                            fastTxns_.push_back(
                                MemTransaction{seg, seg_bytes});
                        if (seg == last)
                            break;
                    }
                }
                return fastTxns_;
            });
    }

    // ---- Packed memory lanes ----
    // A fused-block plain load/store whose lanes all fall in one 4 KiB
    // page moves its data through the packed lane handlers, straight
    // over the shard's private copy of that page; timing and trap logic
    // already ran above, and the word marks below are exactly the
    // per-lane accessors', so memory, tag and register state stay
    // bit-identical to the reference loops by construction (DESIGN.md
    // section 12). The coverage stat counts these steps, so packed <=
    // fastpath holds: an eligible access always retires via the fast
    // path.
    const engine::MemLoopFn mfn =
        all_dram && !tr.capAccess && stride != 0 &&
                (n_min ^ (n_max + bytes - 1)) < MemShard::kPageBytes
            ? decoded_->memLoop[s.idx]
            : nullptr;
    const auto packed = [&](bool store) {
        const uint32_t page = n_min & ~(MemShard::kPageBytes - 1);
        mfn(engine::MemCtx{mem_.pageData(page), active_, result_.data(),
                           &s.rs2d, a0 - page,
                           static_cast<int32_t>(stride)});
        // Accesses are aligned, so none straddles a word. With no holes
        // and |stride| <= 4 the lanes' words form one run; otherwise
        // mark lane by lane, since a word no lane touched would make a
        // false cross-SM merge conflict.
        if (no_holes && stride >= -4 && stride <= 4) {
            mem_.markWords(n_min, n_max, store);
            return;
        }
        forLanes(active_, [&](unsigned lane) {
            mem_.markWords(lane_addr(lane), lane_addr(lane), store);
        });
    };
    if (mfn)
        ++ctrPackedMem_;

    // ---- Functional access ----
    if (stride == 0 && tr.store) {
        // One shared address: the last active lane's value is the final
        // memory state, and the per-lane tag clearing is idempotent.
        const unsigned lane = static_cast<unsigned>(max_l);
        if (s.op == Op::CSC)
            storeCap(n_min, capMemOf(s.rs2d.at(lane), s.rs2m.at(lane)));
        else
            storeValue(n_min, tr.accessLogWidth, s.rs2d.at(lane));
    } else if (stride == 0) {
        // Uniform load: access memory once and broadcast.
        if (s.op == Op::CLC) {
            uint32_t d;
            CapMeta dm;
            clcValue(loadCap(n_min), c0.perms, d, dm);
            s.result(d, 0, dm);
        } else {
            s.result(loadValue(n_min, tr.accessLogWidth, tr.signedLoad), 0);
        }
    } else if (mfn != nullptr) {
        packed(tr.store);
    } else {
        memAccessLanes(s, lane_addr, [&](unsigned) { return c0.perms; });
    }

    s.finish = std::max(mem_done, now_ + shared_cycles) + cfg_.pipelineDepth;
    s.fastHit = true;
    return true;
}

/**
 * The reference memory path, lane by lane: addresses, the capability
 * (or baseline alignment) checks, containment, then timing and the
 * functional access of the surviving lanes. The accelerated engine runs
 * it whenever the affine path declines, hoisting a uniform
 * capability's checks.
 */
void
Sm::memLanes(Step &s)
{
    const OpTraits &tr = s.tr;
    const unsigned bytes = 1u << tr.accessLogWidth;
    s.rs1d.materialiseTo(rs1Data_);
    if (tr.usesRs2)
        s.rs2d.materialiseTo(rs2Data_);
    materialiseMeta(s.rs1m, rs1Meta_);
    materialiseMeta(s.rs2m, rs2Meta_);
    const auto lane_cap = [&](unsigned lane) {
        return capFromParts(rs1Data_[lane], rs1Meta_[lane]);
    };

    const uint32_t offset = static_cast<uint32_t>(tr.atomic ? 0 : s.in.imm);
    for (unsigned lane = 0; lane < kMaxLanes; ++lane)
        addrs_[lane] = rs1Data_[lane] + offset;

    // Per-lane CHERI checks; faulting lanes trap and drop out.
    if (cfg_.purecap) {
        // Uniform-capability hoist for the divergent (gather) case: the
        // address-independent verdict depends only on the metadata, and
        // getBounds depends on the address only through the exponent
        // window (same argument as the affine path), so one decode per
        // window replaces the per-lane capability rebuild. Faulting lanes
        // rebuild the exact per-lane capability so trap forensics are
        // unchanged; a metadata-level fault or a CSC (whose store-cap
        // check reads per-lane rs2 tags) takes the reference loop. Like
        // the packed handlers, the hoist is accelerated-engine only.
        bool hoisted = false;
        if (cfg_.hostFastPath && s.rs1m.kind == MetaDesc::Kind::Uniform &&
            s.op != Op::CSC) {
            const CapMeta um = s.rs1m.value;
            const CapPipe cm = capFromParts(0, um);
            if (capAccessFault(cm, tr, [] { return false; }) ==
                TrapKind::None) {
                const unsigned e = cm.exponent > cap::kMaxExponent
                                       ? cap::kMaxExponent
                                       : cm.exponent;
                const unsigned shift = e + cap::kMantissaWidth - 3;
                uint64_t rep_w = ~uint64_t{0};
                cap::Bounds bnd{};
                forLanes(active_, [&](unsigned lane) {
                    const uint32_t a = addrs_[lane];
                    TrapKind fault = TrapKind::None;
                    if (a % bytes != 0) {
                        fault = TrapKind::MisalignedAccess;
                    } else {
                        const uint64_t w = static_cast<uint64_t>(a) >> shift;
                        if (w != rep_w) {
                            bnd = cap::getBounds(capFromParts(a, um));
                            rep_w = w;
                        }
                        if (a < bnd.base ||
                            static_cast<uint64_t>(a) + bytes > bnd.top)
                            fault = TrapKind::BoundsViolation;
                    }
                    if (fault != TrapKind::None) {
                        const CapPipe c = cap::setAddr(lane_cap(lane), a);
                        trap(s.wid, lane, s.pc, s.op, a, fault, &s.in, &c);
                        active_ &= ~(LaneMask{1} << lane);
                    }
                });
                hoisted = true;
            }
        }
        forLanes(hoisted ? 0 : active_, [&](unsigned lane) {
            const uint32_t a = addrs_[lane];
            const CapPipe auth = lane_cap(lane);
            const CapPipe c = cap::setAddr(auth, a);
            TrapKind fault = capAccessFault(
                auth, tr, [&] { return rs2Meta_[lane].tag; });
            if (fault == TrapKind::None && a % bytes != 0)
                fault = TrapKind::MisalignedAccess;
            if (fault == TrapKind::None && !cap::isRangeInBounds(c, a, bytes))
                fault = TrapKind::BoundsViolation;
            if (fault != TrapKind::None) {
                trap(s.wid, lane, s.pc, s.op, a, fault, &s.in, &c);
                active_ &= ~(LaneMask{1} << lane);
            }
        });
    } else {
        // The baseline machine performs no capability checks, but a
        // misaligned address still faults the lane rather than the host:
        // corrupted data used as a pointer stays contained.
        forLanes(active_, [&](unsigned lane) {
            if (addrs_[lane] % bytes != 0) {
                containmentTrap(s.wid, lane, s.pc, s.op, addrs_[lane],
                                TrapKind::MisalignedAccess, &s.in);
                active_ &= ~(LaneMask{1} << lane);
            }
        });
    }

    // Containment: a lane whose address maps to no memory region faults
    // rather than aborting the host. TCIM is load-only and never backs
    // capability or atomic accesses.
    const bool tcim_ok = !tr.store && !tr.atomic && !tr.capAccess;
    forLanes(active_, [&](unsigned lane) {
        const uint32_t a = addrs_[lane];
        bool mapped = Scratchpad::contains(a) || MainMemory::contains(a);
        if (!mapped && tcim_ok)
            mapped = a >= kTcimBase && a < kTcimBase + kTcimSize;
        if (!mapped) {
            containmentTrap(s.wid, lane, s.pc, s.op, a,
                            TrapKind::UnmappedAccess, &s.in);
            active_ &= ~(LaneMask{1} << lane);
        }
    });

    // Split shared-memory and DRAM lanes.
    LaneMask shared_lanes = 0;
    bool writes_tagged_cap = false;
    uint32_t min_dram = 0xffffffffu;
    forLanes(active_, [&](unsigned lane) {
        if (Scratchpad::contains(addrs_[lane])) {
            shared_lanes |= LaneMask{1} << lane;
        } else {
            min_dram = std::min(min_dram, addrs_[lane]);
            writes_tagged_cap = writes_tagged_cap ||
                                (s.op == Op::CSC && rs2Meta_[lane].tag);
        }
    });
    const LaneMask dram_lanes = active_ & ~shared_lanes;

    // ---- Timing ----
    const unsigned shared_cycles =
        shared_lanes != 0 ? scratchpadTiming(s, shared_lanes) : 0;
    const uint64_t mem_done =
        dram_lanes != 0 ? dramTiming(s, min_dram, writes_tagged_cap,
                              [&] {
                                  return coalescer_.coalesce(
                                      addrs_, dram_lanes, bytes);
                              })
                 : now_;

    // ---- Functional access ----
    if (tr.atomic) {
        forLanes(active_, [&](unsigned lane) {
            result_[lane] = atomicRmw(s.op, addrs_[lane], rs2Data_[lane],
                                      s.in.rd != 0);
        });
    } else {
        memAccessLanes(
            s, [&](unsigned lane) { return addrs_[lane]; },
            [&](unsigned lane) { return lane_cap(lane).perms; });
    }

    s.finish = std::max(mem_done, now_ + shared_cycles) + cfg_.pipelineDepth;
}

// ---- SFU step ----

void
Sm::execSfu(Step &s)
{
    // Shared function unit: serialised over the active lanes, on both
    // engines. Only the timing is the SFU's; each lane computes through
    // the per-lane data path.
    const unsigned count = static_cast<unsigned>(std::popcount(active_));
    const uint64_t start = std::max(now_, sfuBusyUntil_);
    sfuBusyUntil_ = start + count * cfg_.sfuCyclesPerElem;
    s.finish = sfuBusyUntil_ + cfg_.pipelineDepth;
    (s.tr.fpSlowPath ? statSfuFpOps_ : statSfuCheriOps_).add(count);

    forLanes(active_, [&](unsigned lane) {
        executeAluLane(s.w, s.wid, lane, s.in, s.pc, s.rs1d.at(lane),
                       s.rs2d.at(lane), s.rs1m.at(lane));
    });
}

// ---- ALU step ----

void
Sm::execAlu(Step &s)
{
    const Op op = s.op;
    const int32_t imm = s.in.imm;
    const DataDesc &rs1d = s.rs1d;
    const DataDesc &rs2d = s.rs2d;
    const MetaDesc &rs1m = s.rs1m;
    switch (op) {
      case Op::DIV:
      case Op::DIVU:
      case Op::REM:
      case Op::REMU:
        s.finish = now_ + cfg_.pipelineDepth + cfg_.divLatency;
        break;
      default:
        break;
    }

    // Scalarised fast path: closed-form affine results, pointer-op
    // shortcuts through a uniform capability, or a single leader-lane
    // execution when every consumed operand is uniform.
    const bool u1 = rs1d.isUniform();
    const bool r1 = rs1d.isRegular();
    const bool u2 = rs2d.isUniform();
    const bool m1u = rs1m.isUniform();
    const auto scalarised = [&]() -> bool {
        const auto leader_exec = [&]() {
            const unsigned l = static_cast<unsigned>(s.leader);
            executeAluLane(s.w, s.wid, l, s.in, s.pc, rs1d.at(l), rs2d.at(l),
                           rs1m.at(l));
            s.result(result_[l], 0, resultMeta_[l]);
        };
        switch (op) {
          case Op::AUIPC:
            if (!cfg_.purecap) {
                s.result(s.pc + static_cast<uint32_t>(imm), 0);
                return true;
            }
            if (!s.pccUniform)
                return false; // lanes derive from distinct PCCs
            leader_exec();
            return true;
          case Op::CSRRW:
          case Op::CSRRS:
            switch (static_cast<uint16_t>(imm)) {
              case isa::CSR_HARTID:
                s.result(cfg_.globalThreadBase() + s.wid * cfg_.numLanes, 1);
                break;
              case isa::CSR_NUMTHREADS:
                s.result(cfg_.globalNumThreads(), 0);
                break;
              case isa::CSR_WARPID: s.result(s.wid, 0); break;
              case isa::CSR_LANEID: s.result(0, 1); break;
              default: s.result(0, 0); break;
            }
            return true;
          case Op::CGETTAG:
          case Op::CGETPERM:
          case Op::CGETTYPE:
          case Op::CGETSEALED:
          case Op::CGETFLAGS:
            // Results depend only on the (uniform) metadata, never on
            // the per-lane address.
            if (!m1u)
                break;
            leader_exec();
            return true;
          case Op::CMOVE:
          case Op::CCLEARTAG: {
            if (!(r1 && m1u))
                break;
            CapMeta m = rs1m.value;
            m.tag = m.tag && op == Op::CMOVE;
            s.result(rs1d.base, rs1d.stride, m);
            return true;
          }
          case Op::CANDPERM:
          case Op::CSETFLAGS:
          case Op::CSEALENTRY: {
            // The address passes through untouched, so affine data with
            // one recomputed metadata word covers the warp (the encoded
            // metadata is address-free).
            if (!(r1 && m1u && (op == Op::CSEALENTRY || u2)))
                break;
            CapPipe c = capFromParts(rs1d.base, rs1m.value);
            if (op == Op::CANDPERM) {
                c = cap::andPerms(c, static_cast<uint8_t>(rs2d.base));
            } else if (op == Op::CSETFLAGS) {
                if (c.isSealed())
                    c.tag = false;
                c.flag = (rs2d.base & 1) != 0;
            } else {
                c = cap::sealEntry(c);
            }
            s.result(rs1d.base, rs1d.stride, metaOf(c));
            return true;
          }
          case Op::CSETADDR:
          case Op::CINCOFFSET:
          case Op::CINCOFFSETIMM: {
            // Pointer arithmetic through a uniform capability: the result
            // metadata word is the source's (setAddr never alters encoded
            // fields), and only the tag can vary per lane, via the
            // representability check.
            if (!m1u)
                break;
            // The new address: rs2, rs1 + rs2 or rs1 + imm, as the
            // integer ops' closed forms.
            const std::optional<DataDesc> n =
                op == Op::CSETADDR     ? alu::transfer(Op::CGETADDR, rs2d,
                                                       rs2d, 0)
                : op == Op::CINCOFFSET ? alu::transfer(Op::ADD, rs1d, rs2d, 0)
                                       : alu::transfer(Op::ADDI, rs1d, rs2d,
                                                       imm);
            if (!n)
                break;
            const uint32_t n_base = n->base;
            const int32_t n_stride = n->stride;
            const CapMeta m1 = rs1m.value;
            const CapPipe c0 = capFromParts(rs1d.base, m1);
            if (!m1.tag || c0.isSealed()) {
                // Result tag is uniformly false regardless of
                // representability.
                s.result(n_base, n_stride, CapMeta{m1.meta, false});
                return true;
            }
            const unsigned e = c0.exponent > cap::kMaxExponent
                                   ? cap::kMaxExponent
                                   : c0.exponent;
            if (e >= cap::kMaxExponent - 2) {
                // Every increment is representable.
                s.result(n_base, n_stride, CapMeta{m1.meta, true});
                return true;
            }
            if (!r1)
                break; // per-lane check needs lane addresses
            // One representability check per lane; the lanes' values
            // are written out only when the tags differ.
            CapPipe ct = c0;
            LaneMask tagged = 0;
            forLanes(active_, [&](unsigned lane) {
                const uint32_t ai = rs1d.at(lane);
                ct.addr = ai;
                const uint32_t ni =
                    n_base + static_cast<uint32_t>(n_stride) * lane;
                tagged |= LaneMask{cap::inRepresentableRange(ct, ni - ai)}
                          << lane;
            });
            if (tagged == 0 || tagged == active_) {
                s.result(n_base, n_stride, CapMeta{m1.meta, tagged != 0});
                return true;
            }
            resultMetaDirty_ = true;
            forLanes(active_, [&](unsigned lane) {
                result_[lane] =
                    n_base + static_cast<uint32_t>(n_stride) * lane;
                resultMeta_[lane] =
                    CapMeta{m1.meta, ((tagged >> lane) & 1) != 0};
            });
            s.fastHit = true; // per-lane tags, no re-decode
            return true;
          }
          default:
            // A table op's closed form, where its transfer rule has one.
            if (const auto d = alu::transfer(op, rs1d, rs2d, imm)) {
                s.result(d->base, d->stride);
                return true;
            }
            break;
        }
        // Generic scalarisation: every operand the op consumes is
        // uniform, so the leader's result is every lane's.
        if ((!s.tr.usesRs1 || u1) && (!s.tr.usesRs2 || u2) &&
            (!s.rs1IsCap || m1u)) {
            leader_exec();
            return true;
        }
        return false;
    };
    if (cfg_.hostFastPath && s.tr.scalarisable && scalarised())
        return;
    if (cfg_.hostFastPath) {
        // Threaded-code dispatch: the handler pointer was resolved at
        // decode time for every row of alu.hpp's table, nullptr
        // otherwise: the packed (host-SIMD) handler where the op has
        // one, else the scalar lane loop of its lane function.
        if (const engine::AluLoopFn fn = decoded_->aluLoop[s.idx]) {
            fn(engine::AluCtx{&rs1d, &rs2d, active_, result_.data(), imm});
            return;
        }
    }
    forLanes(active_, [&](unsigned lane) {
        executeAluLane(s.w, s.wid, lane, s.in, s.pc, rs1d.at(lane),
                       rs2d.at(lane), rs1m.at(lane));
    });
}

// ---- Control step ----

void
Sm::execControl(Step &s)
{
    Warp &w = s.w;
    const uint32_t pc = s.pc;
    const int32_t imm = s.in.imm;
    // The lanes still active after the step move to their new key.
    const auto set_pc = [&](uint32_t target) {
        w.moveLead(active_, target, s.nest);
    };
    switch (s.op) {
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU: {
        const DataDesc &a = s.rs1d, &b = s.rs2d;
        // One branch-free predicate pass builds the taken mask; uniform
        // operands decide every lane at once.
        LaneMask taken = 0;
        const auto each_lane = [&](auto taken_fn) {
            if (a.isUniform() && b.isUniform()) {
                taken = taken_fn(a.base, b.base) ? active_ : 0;
                return;
            }
            LaneArray<uint32_t> ta, tb;
            const uint32_t *xa = a.lanes, *xb = b.lanes;
            if (a.isRegular()) {
                a.materialiseTo(ta);
                xa = ta.data();
            }
            if (b.isRegular()) {
                b.materialiseTo(tb);
                xb = tb.data();
            }
            for (unsigned lane = 0; lane < kMaxLanes; ++lane)
                taken |= kLaneBit[lane] &
                         -static_cast<uint32_t>(taken_fn(xa[lane], xb[lane]));
            taken &= active_;
        };
        using U = uint32_t;
        using S = int32_t;
        switch (s.op) {
          case Op::BEQ:
            each_lane([](U x, U y) { return x == y; });
            break;
          case Op::BNE:
            each_lane([](U x, U y) { return x != y; });
            break;
          case Op::BLT:
            each_lane([](U x, U y) { return S(x) < S(y); });
            break;
          case Op::BGE:
            each_lane([](U x, U y) { return S(x) >= S(y); });
            break;
          case Op::BLTU:
            each_lane([](U x, U y) { return x < y; });
            break;
          default: // BGEU
            each_lane([](U x, U y) { return x >= y; });
            break;
        }
        const uint32_t taken_pc = pc + static_cast<uint32_t>(imm);
        const bool diverged = taken != 0 && taken != active_;
        if (diverged) {
            // The group splits in two.
            w.release(0, active_);
            w.place(taken, taken_pc, s.nest);
            w.place(active_ & ~taken, pc + 4, s.nest);
        } else {
            set_pc(taken != 0 ? taken_pc : pc + 4);
        }
        // Affine operands expand in closed form, so a coherent outcome
        // over them is an accelerated retirement (a loop branch on an
        // affine induction variable is the common case).
        s.fastHit = cfg_.hostFastPath && s.rs1d.isRegular() &&
                    s.rs2d.isRegular() && !diverged;
        return;
      }
      case Op::JAL: {
        if (cfg_.hostFastPath && (!cfg_.purecap || s.pccUniform)) {
            if (cfg_.purecap) {
                uint32_t d;
                CapMeta m;
                capToParts(linkCap(w.pcc[s.leader], pc), d, m);
                s.result(d, 0, m);
            } else {
                s.result(pc + 4, 0);
            }
        } else {
            resultMetaDirty_ = resultMetaDirty_ || cfg_.purecap;
            forLanes(active_, [&](unsigned lane) {
                if (cfg_.purecap)
                    capToParts(linkCap(w.pcc[lane], pc), result_[lane],
                               resultMeta_[lane]);
                else
                    result_[lane] = pc + 4;
            });
        }
        set_pc(pc + static_cast<uint32_t>(imm));
        return;
      }
      case Op::JALR:
        if (cfg_.hostFastPath && s.rs1d.isUniform() &&
            (!cfg_.purecap || (s.rs1m.isUniform() && s.pccUniform))) {
            const uint32_t target =
                (s.rs1d.base + static_cast<uint32_t>(imm)) & ~1u;
            s.fastHit = true;
            if (!cfg_.purecap) {
                s.result(pc + 4, 0);
                set_pc(target);
                return;
            }
            CapPipe c = capFromParts(s.rs1d.base, s.rs1m.value);
            const TrapKind fault = jumpFault(c, target, imm);
            if (fault != TrapKind::None) {
                trapActive(s.wid, pc, s.op, target, fault, &s.in, &c);
                return;
            }
            c.otype = cap::OTYPE_UNSEALED;
            uint32_t d;
            CapMeta m;
            capToParts(linkCap(w.pcc[s.leader], pc), d, m);
            s.result(d, 0, m);
            forLanes(active_, [&](unsigned lane) { w.pcc[lane] = c; });
            w.fetchLanes &= ~active_;
            set_pc(target);
            // Only a jump covering every live lane keeps the warp's PCCs
            // provably uniform.
            w.pccUniform = s.fullyActive;
        } else {
            LaneArray<uint32_t> targets{};
            forLanes(active_, [&](unsigned lane) {
                const uint32_t a = s.rs1d.at(lane);
                const uint32_t target = (a + static_cast<uint32_t>(imm)) & ~1u;
                if (cfg_.purecap) {
                    CapPipe c = capFromParts(a, s.rs1m.at(lane));
                    const TrapKind fault = jumpFault(c, target, imm);
                    if (fault != TrapKind::None) {
                        trap(s.wid, lane, pc, s.op, target, fault, &s.in, &c);
                        active_ &= ~(LaneMask{1} << lane);
                        return;
                    }
                    c.otype = cap::OTYPE_UNSEALED;
                    resultMetaDirty_ = true;
                    capToParts(linkCap(w.pcc[lane], pc), result_[lane],
                               resultMeta_[lane]);
                    w.pcc[lane] = c;
                    w.fetchLanes &= ~(LaneMask{1} << lane);
                } else {
                    result_[lane] = pc + 4;
                }
                targets[lane] = target;
            });
            // The surviving lanes, grouped by target.
            w.release(0, active_);
            for (LaneMask left = active_; left != 0;) {
                const uint32_t t = targets[std::countr_zero(left)];
                LaneMask same = 0;
                for (unsigned lane = 0; lane < kMaxLanes; ++lane)
                    same |= kLaneBit[lane] &
                            -static_cast<uint32_t>(targets[lane] == t);
                same &= left;
                w.place(same, t, s.nest);
                left &= ~same;
            }
            if (cfg_.purecap)
                w.pccUniform = false;
        }
        return;
      case Op::SIMT_PUSH:
        w.moveLead(active_, pc + 4, s.nest + 1);
        return;
      case Op::SIMT_POP:
        panic_if(s.nest == 0, "SIMT_POP at nesting level 0");
        w.moveLead(active_, pc + 4, s.nest - 1);
        return;
      case Op::SIMT_HALT:
        forLanes(active_, [&](unsigned lane) { haltThread(s.wid, lane); });
        return;
      case Op::SIMT_TRAP:
        forLanes(active_, [&](unsigned lane) {
            statSoftBoundsTraps_.add();
            trap(s.wid, lane, pc, s.op, 0, TrapKind::SoftwareBoundsTrap,
                 &s.in);
        });
        return;
      default:
        // SIMT_BARRIER falls through to the next instruction; the driver
        // parks the warp.
        set_pc(pc + 4);
        return;
    }
}

} // namespace simt
