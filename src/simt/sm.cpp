#include "simt/sm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

#include "isa/encoding.hpp"
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

/** Compose a pipeline capability from register data + metadata. */
CapPipe
capFromParts(uint32_t data, const CapMeta &meta)
{
    cap::CapMem mem;
    mem.bits = (static_cast<uint64_t>(meta.meta) << 32) | data;
    mem.tag = meta.tag;
    return cap::fromMem(mem);
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

float
asFloat(uint32_t v)
{
    return std::bit_cast<float>(v);
}

uint32_t
asBits(float f)
{
    return std::bit_cast<uint32_t>(f);
}

/**
 * Expand an operand descriptor into the per-lane buffer the reference
 * (per-lane) paths read. A Lanes descriptor already points at the caller's
 * scratch buffer, so only closed forms need expanding.
 */
void
materialiseData(const DataDesc &d, std::vector<uint32_t> &buf)
{
    d.materialiseTo(buf.data(), static_cast<unsigned>(buf.size()));
}

void
materialiseMeta(const MetaDesc &d, std::vector<CapMeta> &buf)
{
    switch (d.kind) {
      case MetaDesc::Kind::Lanes:
        if (d.lanes != buf.data())
            std::copy(d.lanes, d.lanes + buf.size(), buf.begin());
        return;
      case MetaDesc::Kind::Uniform:
        std::fill(buf.begin(), buf.end(), d.value);
        return;
      case MetaDesc::Kind::PartialNull:
        for (unsigned lane = 0; lane < buf.size(); ++lane)
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

} // namespace

Sm::Sm(const SmConfig &cfg, MemShard &mem)
    : cfg_(cfg), mem_(mem), scratchpad_(cfg_),
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
    fatal_if(cfg_.stackCacheLines > 0 &&
                 (cfg_.stackCacheLineBytes <
                      4 * cfg_.numLanes ||
                  cfg_.stackCacheLineBytes % cfg_.numLanes != 0),
             "stackCacheLineBytes (%u) must be a multiple of the lane "
             "count (%u) covering at least one word per lane",
             cfg_.stackCacheLineBytes, cfg_.numLanes);
    for (auto &scr : scrs_)
        scr = cap::nullCapPipe();

    decoded_ = std::make_shared<const engine::DecodedProgram>();

    active_.resize(cfg_.numLanes);
    rs1Data_.resize(cfg_.numLanes);
    rs2Data_.resize(cfg_.numLanes);
    result_.resize(cfg_.numLanes);
    addrs_.resize(cfg_.numLanes);
    rs1Meta_.resize(cfg_.numLanes);
    rs2Meta_.resize(cfg_.numLanes);
    resultMeta_.resize(cfg_.numLanes);
    storeCapTags_.resize(cfg_.numLanes);

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
        w.pc.assign(cfg_.numLanes, entry_pc);
        w.nest.assign(cfg_.numLanes, 0);
        w.halted.assign(cfg_.numLanes, false);
        w.pcc.assign(cfg_.numLanes, code_cap);
        w.readyAt = 0;
        w.atBarrier = false;
        w.liveThreads = cfg_.numLanes;
        w.regular = true;
        w.pccUniform = true;
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
Sm::selectActive(const Warp &warp, LaneMask &active) const
{
    // Deepest nesting level first, then lowest PC (Section 2.3).
    int leader = -1;
    for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
        if (warp.halted[lane])
            continue;
        if (leader < 0 || warp.nest[lane] > warp.nest[leader] ||
            (warp.nest[lane] == warp.nest[leader] &&
             warp.pc[lane] < warp.pc[leader])) {
            leader = static_cast<int>(lane);
        }
    }
    if (leader < 0)
        return -1;

    const bool check_pcc_meta = cfg_.purecap && !cfg_.staticPcMeta;
    for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
        bool a = !warp.halted[lane] &&
                 warp.nest[lane] == warp.nest[leader] &&
                 warp.pc[lane] == warp.pc[leader];
        if (a && check_pcc_meta) {
            // Dynamic PC metadata: active threads must agree on the whole
            // PCC, not just the address.
            a = warp.pcc[lane] == warp.pcc[leader];
        }
        active[lane] = a;
    }
    return leader;
}

void
Sm::haltThread(unsigned warp, unsigned lane)
{
    Warp &w = warps_[warp];
    if (w.halted[lane])
        return;
    w.halted[lane] = true;
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
        mem_.clearTagForStore(addr, bytes);
    } else {
        panic("store to unmapped address 0x%08x", addr);
    }
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
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!w.halted[lane]) {
                    firstTrap_.lane = lane;
                    firstTrap_.pc = w.pc[lane];
                    break;
                }
            }
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
                        for (unsigned lane = 0; lane < cfg_.numLanes;
                             ++lane) {
                            if (!w.halted[lane]) {
                                firstTrap_.lane = lane;
                                firstTrap_.pc = w.pc[lane];
                                break;
                            }
                        }
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
    const int32_t sa = static_cast<int32_t>(a);
    const int32_t sb = static_cast<int32_t>(b);

    const auto cap1 = [&]() { return capFromParts(a, m1); };
    const auto set_cap_result = [&](const CapPipe &c) {
        resultMetaDirty_ = true;
        capToParts(c, result_[lane], resultMeta_[lane]);
    };

    uint32_t r = 0;
    switch (op) {
      case Op::LUI: r = static_cast<uint32_t>(imm); break;
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
      case Op::ADDI: r = a + static_cast<uint32_t>(imm); break;
      case Op::SLTI: r = sa < imm ? 1 : 0; break;
      case Op::SLTIU:
        r = a < static_cast<uint32_t>(imm) ? 1 : 0;
        break;
      case Op::XORI: r = a ^ static_cast<uint32_t>(imm); break;
      case Op::ORI: r = a | static_cast<uint32_t>(imm); break;
      case Op::ANDI: r = a & static_cast<uint32_t>(imm); break;
      case Op::SLLI: r = a << (imm & 31); break;
      case Op::SRLI: r = a >> (imm & 31); break;
      case Op::SRAI: r = static_cast<uint32_t>(sa >> (imm & 31));
        break;
      case Op::ADD: r = a + b; break;
      case Op::SUB: r = a - b; break;
      case Op::SLL: r = a << (b & 31); break;
      case Op::SLT: r = sa < sb ? 1 : 0; break;
      case Op::SLTU: r = a < b ? 1 : 0; break;
      case Op::XOR: r = a ^ b; break;
      case Op::SRL: r = a >> (b & 31); break;
      case Op::SRA: r = static_cast<uint32_t>(sa >> (b & 31));
        break;
      case Op::OR: r = a | b; break;
      case Op::AND: r = a & b; break;
      case Op::MUL: r = a * b; break;
      case Op::MULH:
        r = static_cast<uint32_t>(
            (static_cast<int64_t>(sa) * sb) >> 32);
        break;
      case Op::MULHSU:
        r = static_cast<uint32_t>(
            (static_cast<int64_t>(sa) *
             static_cast<uint64_t>(b)) >> 32);
        break;
      case Op::MULHU:
        r = static_cast<uint32_t>(
            (static_cast<uint64_t>(a) * b) >> 32);
        break;
      case Op::DIV:
        r = b == 0 ? 0xffffffffu
                   : (sa == INT32_MIN && sb == -1
                          ? static_cast<uint32_t>(INT32_MIN)
                          : static_cast<uint32_t>(sa / sb));
        break;
      case Op::DIVU: r = b == 0 ? 0xffffffffu : a / b; break;
      case Op::REM:
        r = b == 0 ? a
                   : (sa == INT32_MIN && sb == -1
                          ? 0
                          : static_cast<uint32_t>(sa % sb));
        break;
      case Op::REMU: r = b == 0 ? a : a % b; break;
      case Op::FADD_S:
        r = asBits(asFloat(a) + asFloat(b));
        break;
      case Op::FSUB_S:
        r = asBits(asFloat(a) - asFloat(b));
        break;
      case Op::FMUL_S:
        r = asBits(asFloat(a) * asFloat(b));
        break;
      case Op::FMIN_S:
        r = asBits(std::fmin(asFloat(a), asFloat(b)));
        break;
      case Op::FMAX_S:
        r = asBits(std::fmax(asFloat(a), asFloat(b)));
        break;
      case Op::FCVT_W_S:
        r = static_cast<uint32_t>(
            static_cast<int32_t>(asFloat(a)));
        break;
      case Op::FCVT_WU_S:
        r = static_cast<uint32_t>(asFloat(a));
        break;
      case Op::FCVT_S_W:
        r = asBits(static_cast<float>(sa));
        break;
      case Op::FCVT_S_WU:
        r = asBits(static_cast<float>(a));
        break;
      case Op::FEQ_S: r = asFloat(a) == asFloat(b) ? 1 : 0; break;
      case Op::FLT_S: r = asFloat(a) < asFloat(b) ? 1 : 0; break;
      case Op::FLE_S: r = asFloat(a) <= asFloat(b) ? 1 : 0; break;
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
      case Op::CGETADDR: r = a; break;
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
            active_[lane] = false;
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
      // SFU ops reach here when offload is disabled: executed
      // in the per-lane data path at normal latency.
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
            active_[lane] = false;
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

unsigned
Sm::executeWarp(unsigned wid)
{
    Warp &w = warps_[wid];
    const bool check_pcc = cfg_.purecap && !cfg_.staticPcMeta;
    // Engine dispatch: the reference engine is the plain per-lane
    // interpreter; the accelerated engine adds the descriptor fast
    // paths, threaded ALU dispatch and packed memory lanes below.
    const bool fast_enabled = cfg_.hostFastPath;

    // ---- Active-thread selection ----
    // A regular warp has every live lane at the same (nest, pc) [and the
    // same PCC when selection compares it], so the selection scan reduces
    // to "active = not halted" with the first live lane as leader --
    // exactly what selectActive computes in that situation.
    int leader = -1;
    unsigned num_active = 0;
    bool fully_active = false;
    if (fast_enabled && w.regular && (!check_pcc || w.pccUniform)) {
        if (w.liveThreads == cfg_.numLanes) {
            // No lane has halted: skip the per-lane scan entirely.
            std::fill(active_.begin(), active_.end(), uint8_t{1});
            leader = 0;
        } else {
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                const bool a = !w.halted[lane];
                active_[lane] = a;
                if (a && leader < 0)
                    leader = static_cast<int>(lane);
            }
        }
        num_active = w.liveThreads;
        fully_active = true;
    } else {
        leader = selectActive(w, active_);
        if (leader >= 0) {
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane)
                num_active += active_[lane] ? 1 : 0;
            fully_active = num_active == w.liveThreads;
            if (fully_active) {
                // The issue covers every live lane: the warp has
                // (re)converged.
                w.regular = true;
                if (check_pcc)
                    w.pccUniform = true;
            }
        }
    }
    panic_if(leader < 0, "executeWarp on a finished warp");
    const uint32_t pc = w.pc[leader];

    // Fetch: one instruction fetched and decoded per warp (control-flow
    // regularity). In purecap mode the PCC is checked once per warp.
    const size_t idx = (pc - kTcimBase) / 4;
    if (pc % 4 != 0 || idx >= decoded_->size()) {
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (active_[lane])
                trap(wid, lane, pc, Op::ILLEGAL, pc, TrapKind::BadFetchPc);
        }
        return 1;
    }
    if (cfg_.purecap) {
        const CapPipe &pcc = w.pcc[leader];
        if (!(pcc == w.fetchCap && pc >= w.fetchLo &&
              static_cast<uint64_t>(pc) + 4 <= w.fetchHi)) {
            if (!pcc.tag || !(pcc.perms & cap::PERM_EXECUTE) ||
                !cap::isRangeInBounds(pcc, pc, 4)) {
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                    if (active_[lane])
                        trap(wid, lane, pc, Op::ILLEGAL, pc,
                             TrapKind::PccViolation, nullptr, &pcc);
                }
                return 1;
            }
            const cap::Bounds fb = cap::getBounds(pcc);
            w.fetchCap = pcc;
            w.fetchLo = fb.base;
            w.fetchHi = fb.top;
        }
    }

    const Instr &in = decoded_->instrs[idx];
    const Op op = in.op;
    if (op == Op::ILLEGAL) {
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (active_[lane])
                trap(wid, lane, pc, op, pc, TrapKind::IllegalInstruction,
                     &in);
        }
        return 1;
    }

    ++ctrInstrs_;
    // Fusion coverage: instructions retiring inside a fused block. The
    // count follows the decode-time annotation, so it is the same under
    // either engine.
    if (decoded_->fusedId[idx] != 0)
        ++ctrFused_;
    opCounts_[static_cast<size_t>(op)]++;
    // Per-PC profile histogram (observational; nullptr unless --profile).
    if (profilePc_ != nullptr && idx < profilePc_->size())
        (*profilePc_)[idx]++;
    const OpTraits &tr = opTraits(op);
    if (tr.cheri)
        ++ctrCheriInstrs_;

    // ---- Operand fetch (lazy descriptors) ----
    // Descriptor reads are side-effect-identical to the eager readData /
    // readMeta calls; compressed registers stay in closed form until a
    // per-lane path actually needs the expansion.
    RfAccess fetch_acc;
    DataDesc rs1d, rs2d;
    MetaDesc rs1m, rs2m;
    if (tr.usesRs1)
        regfile_.readDataDesc(wid, in.rs1, rs1Data_, rs1d, fetch_acc);
    if (tr.usesRs2)
        regfile_.readDataDesc(wid, in.rs2, rs2Data_, rs2d, fetch_acc);

    const bool rs1_is_cap =
        cfg_.purecap &&
        (tr.memAccess || op == Op::JALR ||
         (tr.cheri && op != Op::CRRL && op != Op::CRAM));
    const bool rs2_is_cap = cfg_.purecap &&
                            (op == Op::CSC || op == Op::CSPECIALRW);
    if (rs1_is_cap)
        regfile_.readMetaDesc(wid, in.rs1, rs1Meta_, rs1m, fetch_acc);
    if (rs2_is_cap)
        regfile_.readMetaDesc(wid, in.rs2, rs2Meta_, rs2m, fetch_acc);

    unsigned extra_cycles = 0;
    if (cfg_.metaSrfSinglePort && op == Op::CSC) {
        // Two capability source operands through a single-read-port
        // metadata SRF (Section 3.2).
        ++extra_cycles;
        statCscPortStalls_.add();
    }
    if (cfg_.sharedVrf && fetch_acc.dataFromVrf && fetch_acc.metaFromVrf) {
        // Serialised data/metadata access to the shared VRF (Section 3.2).
        ++extra_cycles;
        statSharedVrfStalls_.add();
    }

    // ---- Execute ----
    uint64_t finish = now_ + cfg_.pipelineDepth;
    bool writes_rd = tr.usesRd;
    const int32_t imm = in.imm;

    // Lazy null-fill: resultMeta_ only needs re-nulling when some prior
    // step wrote lanes of it (every write site sets the dirty flag), and
    // it is only ever read in purecap mode -- the per-lane writeback
    // treats a null entry as "plain integer result clears the tag".
    if (cfg_.purecap && resultMetaDirty_) {
        std::fill(resultMeta_.begin(), resultMeta_.end(), CapMeta{});
        resultMetaDirty_ = false;
    }

    // Result descriptor for writeback: with res_affine set, every active
    // lane's result is res_base + res_stride * lane with metadata
    // res_meta; otherwise result_/resultMeta_ hold per-lane values.
    bool res_affine = false;
    uint32_t res_base = 0;
    int32_t res_stride = 0;
    CapMeta res_meta{};
    bool fast_hit = false;
    bool pc_diverged = false;

    const bool u1 = rs1d.isUniform();
    const bool r1 = rs1d.isRegular();
    const bool u2 = rs2d.isUniform();
    const bool r2 = rs2d.isRegular();
    const bool m1u = rs1m.isUniform();
    // Whether all active lanes provably share the whole PCC: selection
    // compares it when check_pcc, and pccUniform covers all live lanes.
    const bool pcc_uniform = check_pcc || w.pccUniform;

    const bool is_sfu_fp = tr.fpSlowPath;
    const bool is_sfu_cheri = cfg_.sfuCheriOffload && tr.cheriSlowPath;
    const bool is_control =
        tr.branch || op == Op::JAL || op == Op::JALR ||
        op == Op::SIMT_PUSH || op == Op::SIMT_POP ||
        op == Op::SIMT_BARRIER || op == Op::SIMT_HALT ||
        op == Op::SIMT_TRAP;

    if (tr.memAccess) {
        // ---- Memory pipeline ----
        const unsigned log_width = tr.accessLogWidth;
        const unsigned bytes = 1u << log_width;
        const bool is_store = tr.store;
        const bool is_atomic = tr.atomic;
        const bool is_cap_access = op == Op::CLC || op == Op::CSC;

        // Scalarised fast path: affine lane addresses through a uniform
        // capability. All gates below are side-effect free -- any
        // uncertainty (wraparound, mixed regions, divergent alignment or
        // bounds outcomes) falls back to the reference per-lane path,
        // which is bit-identical by construction.
        bool fast_done = false;
        if (fast_enabled && tr.scalarisable && r1 &&
            (!cfg_.purecap || m1u)) {
            fast_done = [&]() -> bool {
                const uint32_t a0 =
                    rs1d.base + static_cast<uint32_t>(imm);
                const int64_t s = rs1d.stride;
                int min_l = -1, max_l = -1;
                if (fully_active && w.liveThreads == cfg_.numLanes) {
                    min_l = 0;
                    max_l = static_cast<int>(cfg_.numLanes) - 1;
                } else {
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        if (min_l < 0)
                            min_l = static_cast<int>(lane);
                        max_l = static_cast<int>(lane);
                    }
                }
                const bool no_holes =
                    num_active ==
                    static_cast<unsigned>(max_l - min_l + 1);
                // The affine span must avoid 32-bit wraparound so the
                // extreme lanes bound every lane's address.
                const int64_t v_lo = static_cast<int64_t>(a0) + s * min_l;
                const int64_t v_hi = static_cast<int64_t>(a0) + s * max_l;
                if (v_lo < 0 || v_lo > 0xffffffffll || v_hi < 0 ||
                    v_hi > 0xffffffffll)
                    return false;
                const uint32_t n_min =
                    static_cast<uint32_t>(std::min(v_lo, v_hi));
                const uint32_t n_max =
                    static_cast<uint32_t>(std::max(v_lo, v_hi));

                // Both regions are contiguous, so containing the span's
                // endpoints contains every lane address.
                const bool all_shared = Scratchpad::contains(n_min) &&
                                        Scratchpad::contains(n_max);
                const bool all_dram = MainMemory::contains(n_min) &&
                                      MainMemory::contains(n_max);
                if (!all_shared && !all_dram)
                    return false; // TCIM / unmapped / mixed regions

                CapPipe c0{};
                TrapKind fault = TrapKind::None;
                if (cfg_.purecap) {
                    const CapMeta m1 = rs1m.value;
                    c0 = capFromParts(rs1d.base, m1);
                    // Same priority order as the per-lane chain; every
                    // condition here is address-independent, so one
                    // verdict covers the warp.
                    if (!m1.tag)
                        fault = TrapKind::TagViolation;
                    else if (c0.isSealed())
                        fault = TrapKind::SealViolation;
                    else if ((is_store || is_atomic) &&
                             !(c0.perms & cap::PERM_STORE))
                        fault = TrapKind::StorePermViolation;
                    else if (!is_store && !(c0.perms & cap::PERM_LOAD))
                        fault = TrapKind::LoadPermViolation;
                    else if (op == Op::CSC &&
                             !(c0.perms & cap::PERM_STORE_CAP)) {
                        // Faults only on lanes storing a tagged source:
                        // need a uniform source tag for a warp verdict.
                        bool first = true, tag0 = false, uniform = true;
                        for (unsigned lane = 0; lane < cfg_.numLanes;
                             ++lane) {
                            if (!active_[lane])
                                continue;
                            const bool t = rs2m.at(lane).tag;
                            if (first) {
                                tag0 = t;
                                first = false;
                            } else {
                                uniform = uniform && t == tag0;
                            }
                        }
                        if (!uniform)
                            return false;
                        if (tag0)
                            fault = TrapKind::StoreCapPermViolation;
                    }
                }
                if (fault == TrapKind::None) {
                    // Stride a multiple of the access width makes the
                    // alignment residue uniform across lanes.
                    if (static_cast<uint32_t>(rs1d.stride) % bytes != 0)
                        return false;
                    if (a0 % bytes != 0) {
                        if (!cfg_.purecap)
                            panic("misaligned %s at 0x%08x (baseline)",
                                  isa::opName(op).c_str(),
                                  static_cast<uint32_t>(v_lo));
                        fault = TrapKind::MisalignedAccess;
                    }
                }
                if (cfg_.purecap && fault == TrapKind::None) {
                    // getBounds depends on the address only through
                    // addr >> (exponent + MW - 3); if that is constant
                    // over [n_min, n_max], one decode gives the bounds
                    // every lane checks against.
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
                    const bool all_pass =
                        n_min >= bnd.base &&
                        static_cast<uint64_t>(n_max) + bytes <= bnd.top;
                    if (!all_pass) {
                        // Endpoints failing does not imply every lane
                        // fails; only provable all-fail scalarises.
                        const bool all_fail =
                            static_cast<uint64_t>(n_min) + bytes >
                                bnd.top ||
                            n_max < bnd.base;
                        if (!all_fail)
                            return false;
                        fault = TrapKind::BoundsViolation;
                    }
                }

                if (fault != TrapKind::None) {
                    // Every active lane takes the same trap, in lane
                    // order, with its own (closed-form) address.
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        const uint32_t addr =
                            a0 +
                            static_cast<uint32_t>(rs1d.stride) * lane;
                        trap(wid, lane, pc, op, addr, fault, &in, &c0);
                        active_[lane] = false;
                    }
                    writes_rd = (tr.load || is_atomic) &&
                                in.rd != 0;
                    if (is_cap_access)
                        ++extra_cycles;
                    fast_hit = true;
                    return true;
                }

                // ---- Timing (same event sequence as the slow path) ----
                uint64_t mem_done = now_;
                unsigned shared_cycles = 0;
                if (all_shared) {
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (active_[lane])
                            addrs_[lane] =
                                a0 + static_cast<uint32_t>(rs1d.stride) *
                                         lane;
                    }
                    shared_cycles =
                        scratchpad_.conflictCycles(addrs_, active_) *
                        (is_cap_access ? 2 : 1);
                    statScratchpadAccesses_.add();
                } else {
                    bool writes_tagged_cap = false;
                    if (op == Op::CSC) {
                        for (unsigned lane = 0; lane < cfg_.numLanes;
                             ++lane)
                            writes_tagged_cap =
                                writes_tagged_cap ||
                                (active_[lane] && rs2m.at(lane).tag);
                    }
                    const uint32_t stack_base = cfg_.smStackBase();
                    if (stackCache_.enabled() && n_min >= stack_base) {
                        const uint32_t granule =
                            cfg_.stackCacheLineBytes / cfg_.numLanes;
                        const uint32_t stride = cfg_.stackBytesPerThread;
                        const uint32_t warp_block =
                            (n_min - stack_base) /
                            (stride * cfg_.numLanes);
                        const uint32_t slot =
                            ((n_min - stack_base) % stride) / granule;
                        const uint32_t key =
                            slot * cfg_.numWarps + warp_block;
                        const uint64_t done = stackCache_.access(
                            now_, key, is_store || is_atomic);
                        mem_done = std::max(mem_done, done);
                        statStackWarpAccesses_.add();
                    } else {
                        // Closed-form coalescing: affine addresses visit
                        // segments monotonically (in lane order for
                        // non-negative strides, reversed otherwise), so
                        // an ordered walk with a tail check reproduces
                        // the coalescer's sorted, deduplicated list.
                        fastTxns_.clear();
                        const uint32_t seg_bytes = cfg_.coalesceBytes;
                        if (no_holes && s >= -static_cast<int64_t>(
                                                 seg_bytes) &&
                            s <= static_cast<int64_t>(seg_bytes)) {
                            // With no inactive gaps and |stride| <=
                            // segment size, consecutive lanes' segment
                            // ranges abut or overlap, so the ordered
                            // walk visits exactly every segment from
                            // n_min's to n_max+bytes-1's, each once --
                            // emit them directly.
                            const uint32_t first =
                                n_min & ~(seg_bytes - 1);
                            const uint32_t last =
                                (n_max + bytes - 1) & ~(seg_bytes - 1);
                            for (uint32_t seg = first;;
                                 seg += seg_bytes) {
                                fastTxns_.push_back(
                                    MemTransaction{seg, seg_bytes});
                                if (seg == last)
                                    break;
                            }
                        } else {
                        const bool ascending = rs1d.stride >= 0;
                        const int begin = ascending ? min_l : max_l;
                        const int end = ascending ? max_l + 1 : min_l - 1;
                        const int step = ascending ? 1 : -1;
                        for (int lane = begin; lane != end;
                             lane += step) {
                            if (!active_[lane])
                                continue;
                            const uint32_t addr =
                                a0 +
                                static_cast<uint32_t>(rs1d.stride) *
                                    static_cast<unsigned>(lane);
                            const uint32_t first = addr & ~(seg_bytes - 1);
                            const uint32_t last =
                                (addr + bytes - 1) & ~(seg_bytes - 1);
                            for (uint32_t seg = first;;
                                 seg += seg_bytes) {
                                if (fastTxns_.empty() ||
                                    seg > fastTxns_.back().segment)
                                    fastTxns_.push_back(
                                        MemTransaction{seg, seg_bytes});
                                if (seg == last)
                                    break;
                            }
                        }
                        }
                        statDramTransactions_.add(fastTxns_.size());
                        for (const auto &t : fastTxns_) {
                            const uint64_t tag_done =
                                tagController_.access(
                                    now_, t.segment,
                                    is_store || is_atomic,
                                    writes_tagged_cap);
                            const uint64_t done =
                                dramTimer_.access(tag_done, t.bytes);
                            mem_done = std::max(mem_done, done);
                            if (is_store)
                                statDramBytesWritten_.add(t.bytes);
                            else
                                statDramBytesRead_.add(t.bytes);
                        }
                    }
                }

                // ---- Packed memory lanes ----
                // A fused-block plain load/store whose lanes all fall in
                // one 4 KiB page moves its data through the packed lane
                // handlers, straight over the shard's private copy of
                // that page; timing and trap logic already ran above,
                // and the word marks below are exactly the per-lane
                // accessors', so memory, tag and register state stay
                // bit-identical to the reference loops by construction
                // (DESIGN.md section 12). The coverage stat counts
                // these steps, so packed <= fastpath holds: an eligible
                // access always retires via the fast path.
                const engine::MemLoopFn mfn =
                    all_dram && !is_cap_access && rs1d.stride != 0 &&
                            (n_min ^ (n_max + bytes - 1)) <
                                MemShard::kPageBytes
                        ? decoded_->memLoop[idx]
                        : nullptr;
                const auto packed = [&](bool store) {
                    const uint32_t page =
                        n_min & ~(MemShard::kPageBytes - 1);
                    mfn(engine::MemCtx{
                        mem_.pageData(page), active_.data(),
                        result_.data(), &rs2d, a0 - page,
                        static_cast<int32_t>(rs1d.stride),
                        cfg_.numLanes});
                    // Accesses are aligned, so none straddles a word.
                    // With no holes and |stride| <= 4 the lanes' words
                    // form one run; otherwise mark lane by lane, since
                    // a word no lane touched would make a false
                    // cross-SM merge conflict.
                    if (no_holes && rs1d.stride >= -4 && rs1d.stride <= 4) {
                        mem_.markWords(n_min, n_max, store);
                        return;
                    }
                    for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                        const uint32_t addr =
                            a0 + static_cast<uint32_t>(rs1d.stride) * lane;
                        if (active_[lane])
                            mem_.markWords(addr, addr, store);
                    }
                };
                if (mfn)
                    ++ctrPackedMem_;

                // ---- Functional access ----
                if (is_store) {
                    if (rs1d.stride == 0) {
                        // One shared address: the last active lane's
                        // value is the final memory state, and the
                        // per-lane tag clearing is idempotent.
                        const unsigned lane =
                            static_cast<unsigned>(max_l);
                        if (op == Op::CSC) {
                            cap::CapMem m;
                            const CapMeta sm = rs2m.at(lane);
                            m.bits =
                                (static_cast<uint64_t>(sm.meta) << 32) |
                                rs2d.at(lane);
                            m.tag = sm.tag;
                            if (all_shared)
                                scratchpad_.storeCap(n_min, m);
                            else
                                mem_.storeCap(n_min, m);
                        } else {
                            storeValue(n_min, log_width, rs2d.at(lane));
                        }
                    } else if (mfn != nullptr) {
                        packed(true);
                    } else {
                        for (unsigned lane = 0; lane < cfg_.numLanes;
                             ++lane) {
                            if (!active_[lane])
                                continue;
                            const uint32_t addr =
                                a0 +
                                static_cast<uint32_t>(rs1d.stride) *
                                    lane;
                            if (op == Op::CSC) {
                                cap::CapMem m;
                                const CapMeta sm = rs2m.at(lane);
                                m.bits = (static_cast<uint64_t>(sm.meta)
                                          << 32) |
                                         rs2d.at(lane);
                                m.tag = sm.tag;
                                if (all_shared)
                                    scratchpad_.storeCap(addr, m);
                                else
                                    mem_.storeCap(addr, m);
                            } else {
                                storeValue(addr, log_width,
                                           rs2d.at(lane));
                            }
                        }
                    }
                } else if (rs1d.stride == 0) {
                    // Uniform load: access memory once and broadcast.
                    if (op == Op::CLC) {
                        const cap::CapMem m =
                            all_shared ? scratchpad_.loadCap(n_min)
                                       : mem_.loadCap(n_min);
                        CapPipe loaded = cap::fromMem(m);
                        if (cfg_.purecap &&
                            !(c0.perms & cap::PERM_LOAD_CAP))
                            loaded.tag = false;
                        uint32_t d;
                        CapMeta dm;
                        capToParts(loaded, d, dm);
                        res_affine = true;
                        res_base = d;
                        res_stride = 0;
                        res_meta = dm;
                    } else {
                        const bool sign = op == Op::LB || op == Op::LH;
                        res_affine = true;
                        res_base = loadValue(n_min, log_width, sign);
                        res_stride = 0;
                    }
                } else if (mfn != nullptr) {
                    packed(false);
                } else {
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        const uint32_t addr =
                            a0 +
                            static_cast<uint32_t>(rs1d.stride) * lane;
                        if (op == Op::CLC) {
                            resultMetaDirty_ = true;
                            const cap::CapMem m =
                                all_shared ? scratchpad_.loadCap(addr)
                                           : mem_.loadCap(addr);
                            CapPipe loaded = cap::fromMem(m);
                            if (cfg_.purecap &&
                                !(c0.perms & cap::PERM_LOAD_CAP))
                                loaded.tag = false;
                            capToParts(loaded, result_[lane],
                                       resultMeta_[lane]);
                        } else {
                            const bool sign =
                                op == Op::LB || op == Op::LH;
                            result_[lane] =
                                loadValue(addr, log_width, sign);
                        }
                    }
                }

                writes_rd = tr.load && in.rd != 0;
                if (is_cap_access)
                    ++extra_cycles;
                finish = std::max(mem_done, now_ + shared_cycles) +
                         cfg_.pipelineDepth;
                fast_hit = true;
                return true;
            }();
        }

        if (!fast_done) {
        materialiseData(rs1d, rs1Data_);
        if (tr.usesRs2)
            materialiseData(rs2d, rs2Data_);
        materialiseMeta(rs1m, rs1Meta_);
        materialiseMeta(rs2m, rs2Meta_);

        const auto cap1 = [&](unsigned lane) {
            return capFromParts(rs1Data_[lane], rs1Meta_[lane]);
        };
        const auto set_cap_result = [&](unsigned lane, const CapPipe &c) {
            resultMetaDirty_ = true;
            capToParts(c, result_[lane], resultMeta_[lane]);
        };

        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            addrs_[lane] =
                rs1Data_[lane] +
                static_cast<uint32_t>(is_atomic ? 0 : imm);
        }

        // Per-lane CHERI checks; faulting lanes trap and drop out.
        if (cfg_.purecap) {
            // Uniform-capability hoist for the divergent (gather) case:
            // tag/seal/perm outcomes depend only on the metadata, and
            // getBounds depends on the address only through the
            // exponent window (same argument as the affine fast path),
            // so one decode per window replaces the per-lane capability
            // rebuild. Faulting lanes reconstruct the exact per-lane
            // capability so trap forensics are unchanged; any
            // metadata-level fault or CSC (whose store-cap check reads
            // per-lane rs2 tags) takes the reference loop. Like the
            // packed handlers, the hoist is an engine-tier device: the
            // reference engine keeps the plain per-lane loop.
            bool hoisted = false;
            if (fast_enabled && rs1m.kind == MetaDesc::Kind::Uniform &&
                op != Op::CSC) {
                const CapMeta um = rs1m.value;
                const CapPipe cm = capFromParts(0, um);
                const bool meta_fault =
                    !um.tag || cm.isSealed() ||
                    ((is_store || is_atomic) &&
                     !(cm.perms & cap::PERM_STORE)) ||
                    (!is_store && !(cm.perms & cap::PERM_LOAD));
                if (!meta_fault) {
                    const unsigned e = cm.exponent > cap::kMaxExponent
                                           ? cap::kMaxExponent
                                           : cm.exponent;
                    const unsigned shift = e + cap::kMantissaWidth - 3;
                    uint64_t rep_w = ~uint64_t{0};
                    cap::Bounds bnd{};
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        const uint32_t a = addrs_[lane];
                        TrapKind fault = TrapKind::None;
                        if (a % bytes != 0) {
                            fault = TrapKind::MisalignedAccess;
                        } else {
                            const uint64_t w =
                                static_cast<uint64_t>(a) >> shift;
                            if (w != rep_w) {
                                bnd = cap::getBounds(capFromParts(a, um));
                                rep_w = w;
                            }
                            if (a < bnd.base ||
                                static_cast<uint64_t>(a) + bytes >
                                    bnd.top)
                                fault = TrapKind::BoundsViolation;
                        }
                        if (fault != TrapKind::None) {
                            CapPipe c = cap::setAddr(
                                capFromParts(rs1Data_[lane], um), a);
                            trap(wid, lane, pc, op, a, fault, &in, &c);
                            active_[lane] = false;
                        }
                    }
                    hoisted = true;
                }
            }
            if (!hoisted) {
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!active_[lane])
                    continue;
                CapPipe c = cap1(lane);
                c = cap::setAddr(c, addrs_[lane]);
                TrapKind fault = TrapKind::None;
                if (!rs1Meta_[lane].tag)
                    fault = TrapKind::TagViolation;
                else if (rs1Meta_[lane].tag &&
                         capFromParts(rs1Data_[lane], rs1Meta_[lane])
                             .isSealed())
                    fault = TrapKind::SealViolation;
                else if ((is_store || is_atomic) &&
                         !(c.perms & cap::PERM_STORE))
                    fault = TrapKind::StorePermViolation;
                else if (!is_store && !(c.perms & cap::PERM_LOAD))
                    fault = TrapKind::LoadPermViolation;
                else if (op == Op::CSC && rs2Meta_[lane].tag &&
                         !(c.perms & cap::PERM_STORE_CAP))
                    fault = TrapKind::StoreCapPermViolation;
                else if (addrs_[lane] % bytes != 0)
                    fault = TrapKind::MisalignedAccess;
                else if (!cap::isRangeInBounds(c, addrs_[lane], bytes))
                    fault = TrapKind::BoundsViolation;
                if (fault != TrapKind::None) {
                    trap(wid, lane, pc, op, addrs_[lane], fault, &in, &c);
                    active_[lane] = false;
                }
            }
            }
        } else {
            // The baseline machine performs no capability checks, but a
            // misaligned address still faults the lane rather than the
            // host: corrupted data used as a pointer stays contained.
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (active_[lane] && addrs_[lane] % bytes != 0) {
                    containmentTrap(wid, lane, pc, op, addrs_[lane],
                                    TrapKind::MisalignedAccess, &in);
                    active_[lane] = false;
                }
            }
        }

        // Containment: a lane whose address maps to no memory region
        // faults rather than aborting the host. TCIM is load-only and
        // never backs capability or atomic accesses.
        const bool tcim_ok = !is_store && !is_atomic && !is_cap_access;
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            const uint32_t a = addrs_[lane];
            bool mapped = Scratchpad::contains(a) || MainMemory::contains(a);
            if (!mapped && tcim_ok)
                mapped = a >= kTcimBase && a < kTcimBase + kTcimSize;
            if (!mapped) {
                containmentTrap(wid, lane, pc, op, a,
                                TrapKind::UnmappedAccess, &in);
                active_[lane] = false;
            }
        }

        // Split shared-memory and DRAM lanes.
        static thread_local LaneMask dram_lanes, shared_lanes;
        dram_lanes.assign(cfg_.numLanes, false);
        shared_lanes.assign(cfg_.numLanes, false);
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            if (Scratchpad::contains(addrs_[lane]))
                shared_lanes[lane] = true;
            else
                dram_lanes[lane] = true;
        }

        // Scratchpad: bank-conflict serialisation. Capability accesses
        // touch two consecutive words, doubling the occupancy.
        unsigned shared_cycles = 0;
        bool any_shared = false;
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane)
            any_shared = any_shared || shared_lanes[lane];
        if (any_shared) {
            shared_cycles =
                scratchpad_.conflictCycles(addrs_, shared_lanes) *
                (is_cap_access ? 2 : 1);
            statScratchpadAccesses_.add();
        }

        // DRAM: coalesce into segments, account tag traffic, queue on the
        // bandwidth-limited channel.
        uint64_t mem_done = now_;
        bool any_dram = false;
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane)
            any_dram = any_dram || dram_lanes[lane];
        if (any_dram) {
            bool writes_tagged_cap = false;
            if (op == Op::CSC) {
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane)
                    writes_tagged_cap = writes_tagged_cap ||
                                        (dram_lanes[lane] &&
                                         rs2Meta_[lane].tag);
            }
            // A warp access entirely within the stack region is served
            // by the compressed stack cache: the addresses are affine
            // (uniform slot offset, per-thread stride), so one compressed
            // entry covers the whole warp. The cache holds tag bits too.
            // Keyed relative to this SM's own slice of the global stack
            // region so warp_block stays within [0, numWarps).
            const uint32_t stack_base = cfg_.smStackBase();
            bool all_stack = stackCache_.enabled();
            uint32_t min_addr = 0xffffffffu;
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!dram_lanes[lane])
                    continue;
                all_stack = all_stack && addrs_[lane] >= stack_base;
                min_addr = std::min(min_addr, addrs_[lane]);
            }
            if (all_stack) {
                // Compressed-entry key: slot granule (one line's
                // per-thread share) within the frame, qualified by the
                // warp's block of stacks.
                const uint32_t granule =
                    cfg_.stackCacheLineBytes / cfg_.numLanes;
                const uint32_t stride = cfg_.stackBytesPerThread;
                const uint32_t warp_block =
                    (min_addr - stack_base) / (stride * cfg_.numLanes);
                const uint32_t slot =
                    ((min_addr - stack_base) % stride) / granule;
                // Dense key layout: consecutive warps map to consecutive
                // cache entries, so a direct-mapped cache holds one live
                // slot per warp without conflict misses.
                const uint32_t key = slot * cfg_.numWarps + warp_block;
                const uint64_t done = stackCache_.access(
                    now_, key, is_store || is_atomic);
                mem_done = std::max(mem_done, done);
                statStackWarpAccesses_.add();
            } else {
            const auto txns =
                coalescer_.coalesce(addrs_, dram_lanes, bytes);
            statDramTransactions_.add(txns.size());
            for (const auto &t : txns) {
                const uint64_t tag_done = tagController_.access(
                    now_, t.segment, is_store || is_atomic,
                    writes_tagged_cap);
                const uint64_t done = dramTimer_.access(tag_done, t.bytes);
                mem_done = std::max(mem_done, done);
                if (is_store)
                    statDramBytesWritten_.add(t.bytes);
                else if (is_atomic) {
                    statDramBytesRead_.add(t.bytes);
                    statDramBytesWritten_.add(t.bytes);
                } else {
                    statDramBytesRead_.add(t.bytes);
                }
            }
            }
        }

        // Functional access per lane.
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            const uint32_t addr = addrs_[lane];
            const bool in_shared = shared_lanes[lane];
            if (is_atomic) {
                result_[lane] =
                    atomicRmw(op, addr, rs2Data_[lane], in.rd != 0);
            } else if (op == Op::CLC) {
                const cap::CapMem m = in_shared
                                          ? scratchpad_.loadCap(addr)
                                          : mem_.loadCap(addr);
                CapPipe loaded = cap::fromMem(m);
                // Loading via a capability without LOAD_CAP strips tags.
                if (cfg_.purecap &&
                    !(cap1(lane).perms & cap::PERM_LOAD_CAP))
                    loaded.tag = false;
                set_cap_result(lane, loaded);
            } else if (op == Op::CSC) {
                cap::CapMem m;
                m.bits =
                    (static_cast<uint64_t>(rs2Meta_[lane].meta) << 32) |
                    rs2Data_[lane];
                m.tag = rs2Meta_[lane].tag;
                if (in_shared)
                    scratchpad_.storeCap(addr, m);
                else
                    mem_.storeCap(addr, m);
            } else if (is_store) {
                storeValue(addr, log_width, rs2Data_[lane]);
            } else {
                const bool sign = op == Op::LB || op == Op::LH;
                result_[lane] = loadValue(addr, log_width, sign);
            }
        }

        writes_rd = (tr.load || is_atomic) && in.rd != 0;

        if (is_cap_access) {
            // Two-flit (64-bit) transactions occupy the request
            // serialiser for an extra cycle (Section 3.4).
            ++extra_cycles;
        }
        const uint64_t base_done =
            std::max(mem_done, now_ + shared_cycles);
        finish = base_done + cfg_.pipelineDepth;
        }
    } else if (is_sfu_fp || is_sfu_cheri) {
        // ---- Shared function unit: serialised over active lanes ----
        materialiseData(rs1d, rs1Data_);
        if (tr.usesRs2)
            materialiseData(rs2d, rs2Data_);
        materialiseMeta(rs1m, rs1Meta_);

        const auto cap1 = [&](unsigned lane) {
            return capFromParts(rs1Data_[lane], rs1Meta_[lane]);
        };
        const auto set_cap_result = [&](unsigned lane, const CapPipe &c) {
            resultMetaDirty_ = true;
            capToParts(c, result_[lane], resultMeta_[lane]);
        };

        unsigned count = 0;
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane)
            count += active_[lane] ? 1 : 0;
        const uint64_t start = std::max(now_, sfuBusyUntil_);
        sfuBusyUntil_ = start + count * cfg_.sfuCyclesPerElem;
        finish = sfuBusyUntil_ + cfg_.pipelineDepth;
        (is_sfu_cheri ? statSfuCheriOps_ : statSfuFpOps_).add(count);

        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            switch (op) {
              case Op::FDIV_S:
                result_[lane] = asBits(asFloat(rs1Data_[lane]) /
                                       asFloat(rs2Data_[lane]));
                break;
              case Op::FSQRT_S:
                result_[lane] = asBits(std::sqrt(asFloat(rs1Data_[lane])));
                break;
              case Op::CGETBASE:
                result_[lane] = cap::getBase(cap1(lane));
                break;
              case Op::CGETLEN: {
                const uint64_t len = cap::getLength(cap1(lane));
                result_[lane] = static_cast<uint32_t>(
                    std::min<uint64_t>(len, 0xffffffffull));
                break;
              }
              case Op::CSETBOUNDS:
              case Op::CSETBOUNDSEXACT:
              case Op::CSETBOUNDSIMM: {
                const uint32_t len =
                    op == Op::CSETBOUNDSIMM
                        ? static_cast<uint32_t>(imm)
                        : rs2Data_[lane];
                const cap::SetBoundsResult r =
                    cap::setBounds(cap1(lane), len);
                if (op == Op::CSETBOUNDSEXACT && !r.exact) {
                    const CapPipe c = cap1(lane);
                    trap(wid, lane, pc, op, rs1Data_[lane],
                         TrapKind::InexactBounds, &in, &c);
                    active_[lane] = false;
                    break;
                }
                set_cap_result(lane, r.cap);
                break;
              }
              case Op::CRRL:
                result_[lane] = cap::representableLength(rs1Data_[lane]);
                break;
              case Op::CRAM:
                result_[lane] =
                    cap::representableAlignmentMask(rs1Data_[lane]);
                break;
              default:
                panic("unexpected SFU op %s", isa::opName(op).c_str());
            }
        }
    } else if (!is_control) {
        // ---- Per-lane data path (ALU) ----
        switch (op) {
          case Op::DIV:
          case Op::DIVU:
          case Op::REM:
          case Op::REMU:
            finish = now_ + cfg_.pipelineDepth + cfg_.divLatency;
            break;
          default:
            break;
        }

        // Scalarised fast path: closed-form affine results, pointer-op
        // shortcuts through a uniform capability, or a single leader-lane
        // execution when every consumed operand is uniform.
        bool fast_done = false;
        if (fast_enabled && tr.scalarisable) {
            fast_done = [&]() -> bool {
                const auto commit = [&](uint32_t base, int32_t stride) {
                    res_affine = true;
                    res_base = base;
                    res_stride = stride;
                    fast_hit = true;
                };
                const auto leader_exec = [&]() {
                    const unsigned l = static_cast<unsigned>(leader);
                    executeAluLane(w, wid, l, in, pc, rs1d.at(l),
                                   rs2d.at(l), rs1m.at(l));
                    res_affine = true;
                    res_base = result_[l];
                    res_stride = 0;
                    res_meta = resultMeta_[l];
                    fast_hit = true;
                };
                switch (op) {
                  case Op::LUI:
                    commit(static_cast<uint32_t>(imm), 0);
                    return true;
                  case Op::AUIPC:
                    if (!cfg_.purecap) {
                        commit(pc + static_cast<uint32_t>(imm), 0);
                        return true;
                    }
                    if (!pcc_uniform)
                        return false; // lanes derive from distinct PCCs
                    leader_exec();
                    return true;
                  case Op::ADDI:
                    if (!r1)
                        break;
                    commit(rs1d.base + static_cast<uint32_t>(imm),
                           rs1d.stride);
                    return true;
                  case Op::ADD:
                    if (!(r1 && r2))
                        break;
                    commit(rs1d.base + rs2d.base,
                           static_cast<int32_t>(
                               static_cast<uint32_t>(rs1d.stride) +
                               static_cast<uint32_t>(rs2d.stride)));
                    return true;
                  case Op::SUB:
                    if (!(r1 && r2))
                        break;
                    commit(rs1d.base - rs2d.base,
                           static_cast<int32_t>(
                               static_cast<uint32_t>(rs1d.stride) -
                               static_cast<uint32_t>(rs2d.stride)));
                    return true;
                  case Op::SLLI: {
                    if (!r1)
                        break;
                    const unsigned sh = imm & 31;
                    commit(rs1d.base << sh,
                           static_cast<int32_t>(
                               static_cast<uint32_t>(rs1d.stride)
                               << sh));
                    return true;
                  }
                  case Op::MUL:
                    if (r1 && u2) {
                        commit(rs1d.base * rs2d.base,
                               static_cast<int32_t>(
                                   static_cast<uint32_t>(rs1d.stride) *
                                   rs2d.base));
                        return true;
                    }
                    if (u1 && r2) {
                        commit(rs1d.base * rs2d.base,
                               static_cast<int32_t>(
                                   rs1d.base *
                                   static_cast<uint32_t>(rs2d.stride)));
                        return true;
                    }
                    break;
                  case Op::CSRRW:
                  case Op::CSRRS:
                    switch (static_cast<uint16_t>(imm)) {
                      case isa::CSR_HARTID:
                        commit(cfg_.globalThreadBase() +
                                   wid * cfg_.numLanes,
                               1);
                        break;
                      case isa::CSR_NUMTHREADS:
                        commit(cfg_.globalNumThreads(), 0);
                        break;
                      case isa::CSR_WARPID:
                        commit(wid, 0);
                        break;
                      case isa::CSR_LANEID:
                        commit(0, 1);
                        break;
                      default:
                        commit(0, 0);
                        break;
                    }
                    return true;
                  case Op::CGETTAG:
                  case Op::CGETPERM:
                  case Op::CGETTYPE:
                  case Op::CGETSEALED:
                  case Op::CGETFLAGS:
                    // Results depend only on the (uniform) metadata,
                    // never on the per-lane address.
                    if (!m1u)
                        break;
                    leader_exec();
                    return true;
                  case Op::CGETADDR:
                    if (!r1)
                        break;
                    commit(rs1d.base, rs1d.stride);
                    return true;
                  case Op::CMOVE:
                    if (!(r1 && m1u))
                        break;
                    commit(rs1d.base, rs1d.stride);
                    res_meta = rs1m.value;
                    return true;
                  case Op::CCLEARTAG:
                    if (!(r1 && m1u))
                        break;
                    commit(rs1d.base, rs1d.stride);
                    res_meta = rs1m.value;
                    res_meta.tag = false;
                    return true;
                  case Op::CANDPERM: {
                    if (!(r1 && u2 && m1u))
                        break;
                    // The address passes through untouched, so affine
                    // data with one recomputed metadata word covers the
                    // warp (the encoded metadata is address-free).
                    const CapPipe c = cap::andPerms(
                        capFromParts(rs1d.base, rs1m.value),
                        static_cast<uint8_t>(rs2d.base));
                    uint32_t d;
                    CapMeta m;
                    capToParts(c, d, m);
                    commit(rs1d.base, rs1d.stride);
                    res_meta = m;
                    return true;
                  }
                  case Op::CSETFLAGS: {
                    if (!(r1 && u2 && m1u))
                        break;
                    CapPipe c = capFromParts(rs1d.base, rs1m.value);
                    if (c.isSealed())
                        c.tag = false;
                    c.flag = (rs2d.base & 1) != 0;
                    uint32_t d;
                    CapMeta m;
                    capToParts(c, d, m);
                    commit(rs1d.base, rs1d.stride);
                    res_meta = m;
                    return true;
                  }
                  case Op::CSEALENTRY: {
                    if (!(r1 && m1u))
                        break;
                    const CapPipe c = cap::sealEntry(
                        capFromParts(rs1d.base, rs1m.value));
                    uint32_t d;
                    CapMeta m;
                    capToParts(c, d, m);
                    commit(rs1d.base, rs1d.stride);
                    res_meta = m;
                    return true;
                  }
                  case Op::CSETADDR:
                  case Op::CINCOFFSET:
                  case Op::CINCOFFSETIMM: {
                    // Pointer arithmetic through a uniform capability:
                    // the result metadata word is the source's (setAddr
                    // never alters encoded fields), and only the tag can
                    // vary per lane, via the representability check.
                    if (!m1u)
                        break;
                    uint32_t n_base;
                    int32_t n_stride;
                    if (op == Op::CSETADDR) {
                        if (!r2)
                            break;
                        n_base = rs2d.base;
                        n_stride = rs2d.stride;
                    } else if (op == Op::CINCOFFSET) {
                        if (!(r1 && r2))
                            break;
                        n_base = rs1d.base + rs2d.base;
                        n_stride = static_cast<int32_t>(
                            static_cast<uint32_t>(rs1d.stride) +
                            static_cast<uint32_t>(rs2d.stride));
                    } else {
                        if (!r1)
                            break;
                        n_base = rs1d.base + static_cast<uint32_t>(imm);
                        n_stride = rs1d.stride;
                    }
                    const CapMeta m1 = rs1m.value;
                    const CapPipe c0 = capFromParts(rs1d.base, m1);
                    if (!m1.tag || c0.isSealed()) {
                        // Result tag is uniformly false regardless of
                        // representability.
                        commit(n_base, n_stride);
                        res_meta = CapMeta{m1.meta, false};
                        return true;
                    }
                    const unsigned e = c0.exponent > cap::kMaxExponent
                                           ? cap::kMaxExponent
                                           : c0.exponent;
                    if (e >= cap::kMaxExponent - 2) {
                        // Every increment is representable.
                        commit(n_base, n_stride);
                        res_meta = CapMeta{m1.meta, true};
                        return true;
                    }
                    if (!r1)
                        break; // per-lane check needs lane addresses
                    CapPipe ct = c0;
                    resultMetaDirty_ = true;
                    bool tags_uniform = true;
                    bool tag0 = false;
                    bool first = true;
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        const uint32_t ai = rs1d.at(lane);
                        const uint32_t ni =
                            n_base +
                            static_cast<uint32_t>(n_stride) * lane;
                        ct.addr = ai;
                        const bool t =
                            cap::inRepresentableRange(ct, ni - ai);
                        result_[lane] = ni;
                        resultMeta_[lane] = CapMeta{m1.meta, t};
                        if (first) {
                            tag0 = t;
                            first = false;
                        } else {
                            tags_uniform = tags_uniform && t == tag0;
                        }
                    }
                    if (tags_uniform) {
                        commit(n_base, n_stride);
                        res_meta = CapMeta{m1.meta, tag0};
                    } else {
                        fast_hit = true; // per-lane tags, no re-decode
                    }
                    return true;
                  }
                  default:
                    break;
                }
                // Generic scalarisation: every operand the op consumes
                // is uniform, so the leader's result is every lane's.
                if ((!tr.usesRs1 || u1) &&
                    (!tr.usesRs2 || u2) &&
                    (!rs1_is_cap || m1u)) {
                    leader_exec();
                    return true;
                }
                return false;
            }();
        }
        if (!fast_done && fast_enabled) {
            // Threaded-code dispatch: the handler pointer was resolved
            // at decode time for every trap-free pure-data ALU op (the
            // set the former per-opcode vectorAluLoop switch covered),
            // nullptr otherwise: the packed (host-SIMD) handler where
            // the op has one, else the scalar lane loop. Per-lane
            // expressions are bit-identical across both.
            if (const engine::AluLoopFn fn = decoded_->aluLoop[idx]) {
                const engine::AluCtx ctx{&rs1d,          &rs2d,
                                         active_.data(), result_.data(),
                                         imm,            cfg_.numLanes};
                fn(ctx);
                fast_done = true;
            }
        }
        if (!fast_done) {
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!active_[lane])
                    continue;
                executeAluLane(w, wid, lane, in, pc, rs1d.at(lane),
                               rs2d.at(lane), rs1m.at(lane));
            }
        }
    }

    // ---- Control flow / PC update ----
    if (tr.branch) {
        bool branch_fast = false;
        if (fast_enabled && rs1d.isRegular() && rs2d.isRegular()) {
            // Affine operands expand in closed form, so evaluating the
            // predicate per lane here reads the exact values the
            // per-lane loop would; a coherent outcome commits uniformly
            // (a loop branch on an affine induction variable is the
            // common case).
            bool taken = false, coherent = true, first = true;
            for (unsigned lane = 0; lane < cfg_.numLanes && coherent;
                 ++lane) {
                if (!active_[lane])
                    continue;
                const uint32_t a = rs1d.at(lane);
                const uint32_t b = rs2d.at(lane);
                const int32_t sa = static_cast<int32_t>(a);
                const int32_t sb = static_cast<int32_t>(b);
                bool t = false;
                switch (op) {
                  case Op::BEQ: t = a == b; break;
                  case Op::BNE: t = a != b; break;
                  case Op::BLT: t = sa < sb; break;
                  case Op::BGE: t = sa >= sb; break;
                  case Op::BLTU: t = a < b; break;
                  default: t = a >= b; break; // BGEU
                }
                coherent = first || t == taken;
                taken = t;
                first = false;
            }
            if (coherent) {
                const uint32_t tgt =
                    taken ? pc + static_cast<uint32_t>(imm) : pc + 4;
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                    if (active_[lane])
                        w.pc[lane] = tgt;
                }
                fast_hit = true;
                branch_fast = true;
            }
        }
        if (!branch_fast) {
            bool any_taken = false, any_not = false;
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!active_[lane])
                    continue;
                const uint32_t a = rs1d.at(lane);
                const uint32_t b = rs2d.at(lane);
                const int32_t sa = static_cast<int32_t>(a);
                const int32_t sb = static_cast<int32_t>(b);
                bool taken = false;
                switch (op) {
                  case Op::BEQ: taken = a == b; break;
                  case Op::BNE: taken = a != b; break;
                  case Op::BLT: taken = sa < sb; break;
                  case Op::BGE: taken = sa >= sb; break;
                  case Op::BLTU: taken = a < b; break;
                  default: taken = a >= b; break; // BGEU
                }
                w.pc[lane] =
                    taken ? pc + static_cast<uint32_t>(imm) : pc + 4;
                (taken ? any_taken : any_not) = true;
            }
            pc_diverged = any_taken && any_not;
        }
    } else if (op == Op::JAL) {
        const uint32_t tgt = pc + static_cast<uint32_t>(imm);
        if (cfg_.purecap) {
            if (fast_enabled && pcc_uniform) {
                const CapPipe ret = cap::sealEntry(
                    cap::setAddr(w.pcc[leader], pc + 4));
                uint32_t d;
                CapMeta m;
                capToParts(ret, d, m);
                res_affine = true;
                res_base = d;
                res_stride = 0;
                res_meta = m;
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                    if (active_[lane])
                        w.pc[lane] = tgt;
                }
                fast_hit = true;
            } else {
                resultMetaDirty_ = true;
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                    if (!active_[lane])
                        continue;
                    const CapPipe ret = cap::sealEntry(
                        cap::setAddr(w.pcc[lane], pc + 4));
                    capToParts(ret, result_[lane], resultMeta_[lane]);
                    w.pc[lane] = tgt;
                }
            }
        } else if (fast_enabled) {
            res_affine = true;
            res_base = pc + 4;
            res_stride = 0;
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (active_[lane])
                    w.pc[lane] = tgt;
            }
            fast_hit = true;
        } else {
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!active_[lane])
                    continue;
                result_[lane] = pc + 4;
                w.pc[lane] = tgt;
            }
        }
    } else if (op == Op::JALR) {
        const bool jalr_fast =
            fast_enabled && u1 &&
            (!cfg_.purecap || (m1u && pcc_uniform));
        if (jalr_fast) {
            const uint32_t target =
                (rs1d.base + static_cast<uint32_t>(imm)) & ~1u;
            if (cfg_.purecap) {
                CapPipe c = capFromParts(rs1d.base, rs1m.value);
                TrapKind fault = TrapKind::None;
                if (!c.tag)
                    fault = TrapKind::JumpTagViolation;
                else if (c.isSealed() && (!c.isSentry() || imm != 0))
                    fault = TrapKind::JumpSealViolation;
                else if (!(c.perms & cap::PERM_EXECUTE))
                    fault = TrapKind::JumpPermViolation;
                else if (!cap::isRangeInBounds(c, target, 4))
                    fault = TrapKind::JumpBoundsViolation;
                if (fault != TrapKind::None) {
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        trap(wid, lane, pc, op, target, fault, &in, &c);
                        active_[lane] = false;
                    }
                    fast_hit = true;
                } else {
                    c.otype = cap::OTYPE_UNSEALED;
                    const CapPipe ret = cap::sealEntry(
                        cap::setAddr(w.pcc[leader], pc + 4));
                    uint32_t d;
                    CapMeta m;
                    capToParts(ret, d, m);
                    res_affine = true;
                    res_base = d;
                    res_stride = 0;
                    res_meta = m;
                    for (unsigned lane = 0; lane < cfg_.numLanes;
                         ++lane) {
                        if (!active_[lane])
                            continue;
                        w.pcc[lane] = c;
                        w.pc[lane] = target;
                    }
                    // Only a jump covering every live lane keeps the
                    // warp's PCCs provably uniform.
                    w.pccUniform = fully_active;
                    fast_hit = true;
                }
            } else {
                res_affine = true;
                res_base = pc + 4;
                res_stride = 0;
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                    if (active_[lane])
                        w.pc[lane] = target;
                }
                fast_hit = true;
            }
        } else {
            uint32_t tgt0 = 0;
            bool first = true, tgt_uniform = true;
            for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                if (!active_[lane])
                    continue;
                const uint32_t a = rs1d.at(lane);
                const uint32_t target =
                    (a + static_cast<uint32_t>(imm)) & ~1u;
                if (cfg_.purecap) {
                    CapPipe c = capFromParts(a, rs1m.at(lane));
                    TrapKind fault = TrapKind::None;
                    if (!c.tag)
                        fault = TrapKind::JumpTagViolation;
                    else if (c.isSealed() && (!c.isSentry() || imm != 0))
                        fault = TrapKind::JumpSealViolation;
                    else if (!(c.perms & cap::PERM_EXECUTE))
                        fault = TrapKind::JumpPermViolation;
                    else if (!cap::isRangeInBounds(c, target, 4))
                        fault = TrapKind::JumpBoundsViolation;
                    if (fault != TrapKind::None) {
                        trap(wid, lane, pc, op, target, fault, &in, &c);
                        active_[lane] = false;
                        continue;
                    }
                    c.otype = cap::OTYPE_UNSEALED;
                    const CapPipe ret = cap::sealEntry(
                        cap::setAddr(w.pcc[lane], pc + 4));
                    resultMetaDirty_ = true;
                    capToParts(ret, result_[lane], resultMeta_[lane]);
                    w.pcc[lane] = c;
                } else {
                    result_[lane] = pc + 4;
                }
                w.pc[lane] = target;
                if (first) {
                    tgt0 = target;
                    first = false;
                } else {
                    tgt_uniform = tgt_uniform && target == tgt0;
                }
            }
            pc_diverged = !tgt_uniform;
            if (cfg_.purecap)
                w.pccUniform = false;
        }
    } else if (op == Op::SIMT_PUSH) {
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            ++w.nest[lane];
            w.pc[lane] = pc + 4;
        }
    } else if (op == Op::SIMT_POP) {
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            panic_if(w.nest[lane] == 0, "SIMT_POP at nesting level 0");
            --w.nest[lane];
            w.pc[lane] = pc + 4;
        }
    } else if (op == Op::SIMT_HALT) {
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (active_[lane])
                haltThread(wid, lane);
        }
    } else if (op == Op::SIMT_TRAP) {
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (!active_[lane])
                continue;
            statSoftBoundsTraps_.add();
            trap(wid, lane, pc, op, 0, TrapKind::SoftwareBoundsTrap, &in);
        }
    } else {
        // Everything else (including SIMT_BARRIER) falls through to the
        // next instruction.
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
            if (active_[lane])
                w.pc[lane] = pc + 4;
        }
    }

    // ---- Warp-regularity maintenance (host-only state) ----
    // Regular iff the issue covered every live lane and no divergence was
    // introduced; traps only shrink the live set, preserving uniformity.
    w.regular = fully_active && !pc_diverged;

    // ---- Writeback ----
    RfAccess wb_acc;
    if (writes_rd && in.rd != 0) {
        bool full_mask = true;
        for (unsigned lane = 0; lane < cfg_.numLanes; ++lane)
            full_mask = full_mask && active_[lane];
        if (res_affine && full_mask) {
            regfile_.writeDataAffine(wid, in.rd, res_base, res_stride,
                                     wb_acc);
            if (cfg_.purecap)
                regfile_.writeMetaUniform(wid, in.rd, res_meta, wb_acc);
        } else {
            if (res_affine) {
                // Partial mask: expand the closed form for the merge.
                resultMetaDirty_ = true;
                for (unsigned lane = 0; lane < cfg_.numLanes; ++lane) {
                    if (!active_[lane])
                        continue;
                    result_[lane] =
                        res_base +
                        static_cast<uint32_t>(res_stride) * lane;
                    resultMeta_[lane] = res_meta;
                }
            }
            regfile_.writeData(wid, in.rd, result_, active_, wb_acc);
            if (cfg_.purecap) {
                // Writing a plain integer result sets the metadata to
                // the null value with the tag cleared (Figure 4 caption).
                // A clean dirty flag means no lane of resultMeta_ was
                // written this step, so the vector is still all-null and
                // a full-mask write is exactly the uniform null
                // broadcast (same entry state, no RfAccess effects).
                // Engine-tier shortcut: the reference engine keeps the
                // per-lane classify.
                if (fast_enabled && !resultMetaDirty_ && full_mask &&
                    !injector_)
                    regfile_.writeMetaUniform(wid, in.rd, CapMeta{},
                                              wb_acc);
                else
                    regfile_.writeMeta(wid, in.rd, resultMeta_, active_,
                                       wb_acc);
            }
        }
    }

    if (fast_hit)
        ++ctrFastpath_;

    // Register-file spill/reload traffic goes through DRAM.
    const unsigned rf_bytes = fetch_acc.dramBytes + wb_acc.dramBytes;
    if (rf_bytes > 0) {
        const uint64_t done = dramTimer_.access(now_, rf_bytes);
        statRfSpillDramBytes_.add(rf_bytes);
        if (fetch_acc.reloads + wb_acc.reloads > 0)
            finish = std::max(finish, done + cfg_.pipelineDepth);
    }

    // ---- Barrier bookkeeping ----
    if (op == Op::SIMT_BARRIER) {
        w.atBarrier = true;
        releaseBarrierIfReady(wid / warpsPerBlock_);
    }

    w.readyAt = std::max(finish, now_ + extra_cycles + 1);
    schedUpdate(wid);
    ctrIssueSlots_ += 1 + extra_cycles;
    return 1 + extra_cycles;
}

} // namespace simt
