/**
 * @file
 * Multi-SM grid sharding tests.
 *
 *  - DRAM residency: building a 4-SM device must leave its one
 *    demand-zero memory unbacked by host pages.
 *  - MemShard / MemorySystem unit tests: overlay isolation, reset to a
 *    fresh view, commit, conflict detection, and atomic mediation.
 *  - Architectural parity: every benchmark of the suite must produce
 *    identical verification results, trap outcomes and output buffers at
 *    1, 2 and 4 SMs, and be deterministic across repeated multi-SM runs
 *    (the whole point of the epoch-ordered merge).
 *  - Cross-SM atomics: the atomic benchmarks (Histogram, Reduce,
 *    MotionEst) exercise the commit-time mediator; their results must be
 *    exact at every SM count.
 *  - Block placement: every block of any grid size runs exactly once at
 *    every SM count, a small grid spreads over all SMs, and the
 *    generated code is unchanged wherever placement is the identity.
 *  - Conflict fallback: a kernel whose blocks race on one word must be
 *    detected and rerun serially, still deterministically, with every
 *    SM restarted from a zeroed scratchpad on every launch path.
 *  - Barrier deadlock: surfaced as a structured "barrier-deadlock" trap
 *    (forced through a test seam -- the state is unreachable via the
 *    public API because barriers release on both arrival and warp exit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "kc/asm.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/memsys.hpp"
#include "simt/sm.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace simt
{

/** Test seam declared as a friend of Sm (see sm.hpp). */
struct SmTestAccess
{
    static void
    parkAllWarpsAtBarrier(Sm &sm)
    {
        for (unsigned wid = 0; wid < sm.warps_.size(); ++wid) {
            sm.warps_[wid].atBarrier = true;
            sm.schedUpdate(wid);
        }
    }
};

namespace
{

bool
isOrderInsensitive(isa::Op op)
{
    using isa::Op;
    switch (op) {
    case Op::AMOADD_W:
    case Op::AMOAND_W:
    case Op::AMOOR_W:
    case Op::AMOXOR_W:
    case Op::AMOMIN_W:
    case Op::AMOMAX_W:
    case Op::AMOMINU_W:
    case Op::AMOMAXU_W: return true;
    default: return false;
    }
}

} // namespace

/** Test seam declared as a friend of MemShard (see memsys.hpp). */
struct MemShardTestAccess
{
    /**
     * The per-page-index merge that MemorySystem::commitEpoch replaced,
     * kept as its reference: both passes visit every page index of DRAM
     * x every shard, and every word commits through store32 +
     * setWordTag.
     */
    static MemorySystem::MergeReport
    referenceCommit(MemorySystem &ms)
    {
        MemorySystem::MergeReport report;
        const unsigned ns = ms.numShards();
        MainMemory &base = ms.base();
        std::vector<const MemShard::Page *> touchers(ns, nullptr);
        auto gather = [&](uint32_t pi) {
            unsigned n = 0;
            for (unsigned s = 0; s < ns; ++s) {
                const MemShard &sh = ms.shard(s);
                const int32_t slot = sh.map_[pi];
                touchers[s] = slot < 0 ? nullptr : sh.pages_[slot].get();
                n += touchers[s] != nullptr;
            }
            return n;
        };
        auto fail = [&](uint32_t addr, const char *reason) {
            report.conflict = true;
            report.conflictAddr = addr;
            report.reason = reason;
        };
        for (uint32_t pi = 0; pi < MemShard::kNumPages && !report.conflict;
             ++pi) {
            if (gather(pi) < 2)
                continue;
            for (uint32_t wi = 0;
                 wi < MemShard::kPageWords && !report.conflict; ++wi) {
                const uint32_t mw = wi / 64, b = wi % 64;
                const uint32_t addr =
                    kDramBase + pi * MemShard::kPageBytes + wi * 4;
                unsigned sharers = 0, writers = 0, readers = 0, atomics = 0;
                for (const MemShard::Page *p : touchers) {
                    if (!p)
                        continue;
                    const uint64_t w = (p->dirty[mw] >> b) & 1;
                    const uint64_t r = (p->read[mw] >> b) & 1;
                    const uint64_t a = (p->atomic[mw] >> b) & 1;
                    sharers += (w | r | a) != 0;
                    writers += w;
                    readers += r;
                    atomics += a;
                }
                // A word one shard alone touches never conflicts.
                if (sharers < 2)
                    continue;
                if (writers > 0) {
                    fail(addr, "cross-SM write to a shared word");
                } else if (atomics > 0 && readers > 0) {
                    fail(addr, "cross-SM plain read of an atomically "
                               "updated word");
                } else if (atomics > 1) {
                    isa::Op kind = isa::Op::ILLEGAL;
                    for (unsigned s = 0; s < ns && !report.conflict; ++s) {
                        for (const auto &rec : ms.shard(s).amoLog_) {
                            if (rec.addr != addr)
                                continue;
                            if (rec.resultUsed)
                                fail(addr,
                                     "cross-SM atomic consumes its result");
                            else if (!isOrderInsensitive(rec.op))
                                fail(addr, "cross-SM order-sensitive atomic");
                            else if (kind != isa::Op::ILLEGAL &&
                                     kind != rec.op)
                                fail(addr, "cross-SM mixed atomic kinds");
                            kind = rec.op;
                            if (report.conflict)
                                break;
                        }
                    }
                }
            }
        }
        if (report.conflict)
            return report;

        for (uint32_t pi = 0; pi < MemShard::kNumPages; ++pi) {
            if (gather(pi) == 0)
                continue;
            ++report.pagesTouched;
            const uint32_t page_base = kDramBase + pi * MemShard::kPageBytes;
            auto word = [](const MemShard::Page *p, uint32_t wi) {
                uint32_t v;
                std::memcpy(&v, p->data.data() + wi * 4, 4);
                return v;
            };
            for (const MemShard::Page *p : touchers) {
                if (!p)
                    continue;
                for (uint32_t wi = 0; wi < MemShard::kPageWords; ++wi) {
                    if (!((p->dirty[wi / 64] >> (wi % 64)) & 1))
                        continue;
                    base.store32(page_base + wi * 4, word(p, wi));
                    base.setWordTag(page_base + wi * 4,
                                    (p->tag[wi / 64] >> (wi % 64)) & 1);
                    ++report.wordsCommitted;
                }
            }
            for (uint32_t wi = 0; wi < MemShard::kPageWords; ++wi) {
                const uint32_t addr = page_base + wi * 4;
                unsigned num_atomic = 0;
                const MemShard::Page *only = nullptr;
                for (const MemShard::Page *p : touchers) {
                    if (p && ((p->atomic[wi / 64] >> (wi % 64)) & 1)) {
                        ++num_atomic;
                        only = p;
                    }
                }
                if (num_atomic == 0)
                    continue;
                ++report.wordsCommitted;
                if (num_atomic == 1) {
                    base.store32(addr, word(only, wi));
                    base.setWordTag(addr,
                                    (only->tag[wi / 64] >> (wi % 64)) & 1);
                    continue;
                }
                uint32_t v = base.load32(addr);
                for (unsigned s = 0; s < ns; ++s) {
                    for (const auto &rec : ms.shard(s).amoLog_) {
                        if (rec.addr == addr) {
                            v = amoApply(rec.op, v, rec.operand);
                            ++report.amosMediated;
                        }
                    }
                }
                base.store32(addr, v);
                base.setWordTag(addr, false);
            }
        }
        return report;
    }
};

} // namespace simt

namespace
{

using isa::Op;
using kernels::Prepared;
using kernels::Size;
using Mode = kc::CompileOptions::Mode;

// ================================================= DRAM residency

/** Resident set size from /proc/self/statm, or -1 where it is absent. */
long
residentBytes()
{
    std::ifstream in("/proc/self/statm");
    long size = 0;
    long resident = 0;
    if (!(in >> size >> resident))
        return -1;
    return resident * sysconf(_SC_PAGESIZE);
}

TEST(Residency, FourSmDeviceConstructionStaysSmall)
{
    // The device maps one 64 MiB MainMemory that its four SMs borrow,
    // and demand-zero backing makes it cost no resident pages until it
    // is written. An eagerly zeroed store would grow the resident set
    // by ~66 MiB here.
    const long before = residentBytes();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/statm is not available";
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numSms = 4;
    nocl::Device dev(cfg, Mode::Purecap);
    EXPECT_LT(residentBytes() - before, 16l << 20);
}

// ============================================ MemShard / merge units

constexpr uint32_t kA = simt::kDramBase + 0x1000;
constexpr uint32_t kB = simt::kDramBase + 0x2000;

TEST(MemShard, OverlayIsolatesBase)
{
    simt::MainMemory base;
    base.store32(kA, 0x11223344);
    simt::MemShard shard(base);

    EXPECT_EQ(shard.load32(kA), 0x11223344u);
    shard.store32(kA, 0xdeadbeef);
    EXPECT_EQ(shard.load32(kA), 0xdeadbeefu);
    EXPECT_EQ(base.load32(kA), 0x11223344u) << "base must stay frozen";

    EXPECT_EQ(shard.load8(kA + 1), 0xbeu);
    EXPECT_EQ(shard.load16(kA + 2), 0xdeadu);
}

TEST(MemShard, TagsFollowOverlay)
{
    simt::MainMemory base;
    base.setWordTag(kA, true);
    simt::MemShard shard(base);

    EXPECT_TRUE(shard.wordTag(kA));
    shard.store32(kA, 0);
    EXPECT_FALSE(shard.wordTag(kA));
    EXPECT_TRUE(base.wordTag(kA));
}

TEST(MemShard, ResetReadsChangedBaseLikeFresh)
{
    simt::MemorySystem ms(1);
    simt::MainMemory &base = ms.base();
    simt::MemShard &shard = ms.shard(0);
    base.store32(kA, 1);
    EXPECT_EQ(shard.load32(kA), 1u);
    shard.store32(kB, 2);
    shard.amo32(Op::AMOADD_W, kB + 4, 3, false);
    ASSERT_FALSE(ms.commitEpoch().conflict);

    // The base changes behind the epoch's stale private pages; a reset
    // must drop them, the page map and the atomic log.
    base.store32(kA, 5);
    base.setWordTag(kB + 8, true);
    ms.beginEpoch();
    EXPECT_EQ(shard.numTouchedPages(), 0u);
    EXPECT_EQ(ms.commitEpoch().pagesTouched, 0u);

    simt::MemShard fresh(base);
    for (const uint32_t a : {kA, kB, kB + 4, kB + 8}) {
        EXPECT_EQ(shard.load32(a), fresh.load32(a)) << std::hex << a;
        EXPECT_EQ(shard.wordTag(a), fresh.wordTag(a)) << std::hex << a;
    }
    EXPECT_EQ(shard.load32(kA), 5u);
    EXPECT_TRUE(shard.wordTag(kB + 8));
    support::ByteWriter after_reset, from_fresh;
    shard.saveState(after_reset);
    fresh.saveState(from_fresh);
    EXPECT_EQ(after_reset.data(), from_fresh.data());

    // A checkpointed overlay restores into a reset shard.
    ms.beginEpoch();
    support::ByteReader r(after_reset.data().data(), after_reset.size());
    ASSERT_TRUE(shard.loadState(r)) << r.error();
    EXPECT_EQ(shard.numTouchedPages(), fresh.numTouchedPages());
    EXPECT_EQ(shard.load32(kA), 5u);
}

TEST(MemorySystem, SingleShardCommitApplies)
{
    simt::MemorySystem ms(1);
    simt::MainMemory &base = ms.base();
    ms.shard(0).store32(kA, 42);
    ms.shard(0).setWordTag(kB, true);
    const auto rep = ms.commitEpoch();

    EXPECT_FALSE(rep.conflict);
    EXPECT_EQ(base.load32(kA), 42u);
    EXPECT_TRUE(base.wordTag(kB));
}

TEST(MemorySystem, DisjointWritesCommitBoth)
{
    simt::MemorySystem ms(2);
    simt::MainMemory &base = ms.base();
    ms.shard(0).store32(kA, 1);
    ms.shard(1).store32(kA + 4, 2); // same page, different word
    ms.shard(1).store32(kB, 3);
    const auto rep = ms.commitEpoch();

    EXPECT_FALSE(rep.conflict);
    EXPECT_EQ(base.load32(kA), 1u);
    EXPECT_EQ(base.load32(kA + 4), 2u);
    EXPECT_EQ(base.load32(kB), 3u);
}

TEST(MemorySystem, ConflictingWritesCommitNothing)
{
    simt::MemorySystem ms(2);
    simt::MainMemory &base = ms.base();
    base.store32(kA, 7);
    ms.shard(0).store32(kA, 1);
    ms.shard(0).store32(kB, 9);
    ms.shard(1).store32(kA, 2);
    const auto rep = ms.commitEpoch();

    EXPECT_TRUE(rep.conflict);
    EXPECT_EQ(rep.conflictAddr, kA);
    EXPECT_EQ(base.load32(kA), 7u) << "conflicting merge must be atomic";
    EXPECT_EQ(base.load32(kB), 0u) << "conflicting merge must be atomic";
}

TEST(MemorySystem, ReadOfWrittenWordConflicts)
{
    simt::MemorySystem ms(2);
    ms.shard(0).store32(kA, 1);
    (void)ms.shard(1).load32(kA);
    const auto rep = ms.commitEpoch();
    EXPECT_TRUE(rep.conflict);
}

TEST(MemorySystem, SharedReadsAreFine)
{
    simt::MemorySystem ms(2);
    simt::MainMemory &base = ms.base();
    base.store32(kA, 5);
    EXPECT_EQ(ms.shard(0).load32(kA), 5u);
    EXPECT_EQ(ms.shard(1).load32(kA), 5u);
    ms.shard(0).store32(kB, 1);
    const auto rep = ms.commitEpoch();
    EXPECT_FALSE(rep.conflict);
}

TEST(MemorySystem, CommutativeAtomicsAreMediated)
{
    simt::MemorySystem ms(2);
    simt::MainMemory &base = ms.base();
    base.store32(kA, 100);
    ms.shard(0).amo32(Op::AMOADD_W, kA, 10, false);
    ms.shard(0).amo32(Op::AMOADD_W, kA, 1, false);
    ms.shard(1).amo32(Op::AMOADD_W, kA, 200, false);
    const auto rep = ms.commitEpoch();

    EXPECT_FALSE(rep.conflict);
    EXPECT_EQ(rep.amosMediated, 3u);
    EXPECT_EQ(base.load32(kA), 311u);
}

TEST(MemorySystem, ResultUsedAtomicConflicts)
{
    simt::MemorySystem ms(2);
    ms.shard(0).amo32(Op::AMOADD_W, kA, 1, true);
    ms.shard(1).amo32(Op::AMOADD_W, kA, 2, false);
    const auto rep = ms.commitEpoch();
    EXPECT_TRUE(rep.conflict);
}

TEST(MemorySystem, MixedAtomicKindsConflict)
{
    simt::MemorySystem ms(2);
    ms.shard(0).amo32(Op::AMOADD_W, kA, 1, false);
    ms.shard(1).amo32(Op::AMOXOR_W, kA, 2, false);
    const auto rep = ms.commitEpoch();
    EXPECT_TRUE(rep.conflict);
}

TEST(MemorySystem, SwapConflicts)
{
    simt::MemorySystem ms(2);
    ms.shard(0).amo32(Op::AMOSWAP_W, kA, 1, false);
    ms.shard(1).amo32(Op::AMOSWAP_W, kA, 2, false);
    const auto rep = ms.commitEpoch();
    EXPECT_TRUE(rep.conflict);
}

TEST(MemorySystem, SingleSmAtomicCommitsLocalValue)
{
    simt::MemorySystem ms(2);
    simt::MainMemory &base = ms.base();
    base.store32(kA, 10);
    // Only shard 0 touches the word; even an order-sensitive swap with a
    // consumed result is fine (no cross-SM race to mediate).
    EXPECT_EQ(ms.shard(0).amo32(Op::AMOSWAP_W, kA, 77, true), 10u);
    ms.shard(1).store32(kB, 1);
    const auto rep = ms.commitEpoch();
    EXPECT_FALSE(rep.conflict);
    EXPECT_EQ(base.load32(kA), 77u);
}

/** One shard access of a random epoch. */
struct ShardOp
{
    unsigned shard = 0;
    unsigned kind = 0;
    uint32_t addr = 0;
    uint32_t value = 0;
    Op amo = Op::AMOADD_W;
    bool flag = false;
};

void
applyShardOp(simt::MemorySystem &ms, const ShardOp &op)
{
    simt::MemShard &sh = ms.shard(op.shard);
    switch (op.kind) {
    case 0: (void)sh.load8(op.addr); break;
    case 1: (void)sh.load16(op.addr); break;
    case 2: (void)sh.load32(op.addr); break;
    case 3: sh.store8(op.addr, static_cast<uint8_t>(op.value)); break;
    case 4: sh.store16(op.addr, static_cast<uint16_t>(op.value)); break;
    case 5: sh.store32(op.addr, op.value); break;
    case 6: {
        cap::CapMem c;
        c.bits = uint64_t{op.value} * 0x9e3779b97f4a7c15ull;
        c.tag = op.flag;
        sh.storeCap(op.addr & ~7u, c);
        break;
    }
    case 7: sh.setWordTag(op.addr, op.flag); break;
    case 8: (void)sh.wordTag(op.addr); break;
    case 9:
        // A packed access of up to 8 words within the page.
        sh.markWords(op.addr & ~3u,
                     std::min((op.addr & ~3u) + 4 * (op.value % 8),
                              (op.addr | (simt::MemShard::kPageBytes - 1)) &
                                  ~3u),
                     op.flag);
        break;
    default: (void)sh.amo32(op.amo, op.addr & ~3u, op.value, op.flag); break;
    }
}

TEST(MemorySystem, RandomEpochsCommitLikePerPageReference)
{
    // Random 1-, 2- and 4-shard epochs over a few shared pages, replayed
    // on two identical memory systems: one merges with commitEpoch, the
    // other with the per-page-index reference. Base data, tags and every
    // MergeReport field must agree, conflicts included.
    constexpr uint32_t kPages[] = {0, 1, 5, 300,
                                   simt::MemShard::kNumPages - 1};
    constexpr Op kAtomics[] = {Op::AMOADD_W,  Op::AMOAND_W, Op::AMOOR_W,
                               Op::AMOXOR_W,  Op::AMOMIN_W, Op::AMOMAX_W,
                               Op::AMOMINU_W, Op::AMOMAXU_W, Op::AMOSWAP_W};
    support::Rng rng(28);
    unsigned conflicts = 0, mediated = 0, clean = 0;
    for (const unsigned ns : {1u, 2u, 4u}) {
        simt::MemorySystem got(ns), want(ns);
        // Shared base contents: data, capabilities and stray tags.
        for (unsigned k = 0; k < 200; ++k) {
            const uint32_t page = kPages[rng.nextBounded(std::size(kPages))];
            const uint32_t addr = simt::kDramBase +
                                  page * simt::MemShard::kPageBytes +
                                  4 * rng.nextBounded(64);
            const uint32_t v = rng.next();
            const bool tag = rng.nextBounded(3) == 0;
            for (simt::MemorySystem *ms : {&got, &want}) {
                ms->base().store32(addr, v);
                ms->base().setWordTag(addr, tag);
            }
        }
        for (unsigned epoch = 0; epoch < 40; ++epoch) {
            // Mode 0 keeps each shard on its own words (clean merges of
            // shared pages), mode 1 adds atomics of one kind on shared
            // words (mediated), mode 2 lets anything touch anything.
            const unsigned mode = rng.nextBounded(3);
            const Op shared_kind = kAtomics[rng.nextBounded(8)];
            std::vector<ShardOp> ops(1 + rng.nextBounded(120));
            for (ShardOp &op : ops) {
                op.shard = rng.nextBounded(ns);
                const uint32_t page =
                    kPages[rng.nextBounded(std::size(kPages))];
                uint32_t word = rng.nextBounded(64);
                if (mode != 2)
                    word = op.shard * 64 + word; // private words
                op.kind = rng.nextBounded(11);
                op.value = rng.nextBounded(4) == 0 ? 0 : rng.next();
                op.flag = rng.nextBounded(2) != 0;
                op.amo = kAtomics[rng.nextBounded(std::size(kAtomics))];
                if (mode == 1 && op.kind == 10 && rng.nextBounded(2) == 0) {
                    word = 1000 + rng.nextBounded(4); // shared atomic
                    op.amo = shared_kind;
                    op.flag = false;
                }
                op.addr = simt::kDramBase +
                          page * simt::MemShard::kPageBytes + word * 4 +
                          (op.kind < 6 ? rng.nextBounded(4) : 0);
            }
            for (simt::MemorySystem *ms : {&got, &want}) {
                ms->beginEpoch();
                for (const ShardOp &op : ops)
                    applyShardOp(*ms, op);
            }
            const auto g = got.commitEpoch();
            const auto w = simt::MemShardTestAccess::referenceCommit(want);
            SCOPED_TRACE(::testing::Message()
                         << ns << " shards, epoch " << epoch);
            EXPECT_EQ(g.conflict, w.conflict);
            EXPECT_EQ(g.conflictAddr, w.conflictAddr);
            EXPECT_STREQ(g.reason, w.reason);
            EXPECT_EQ(g.wordsCommitted, w.wordsCommitted);
            EXPECT_EQ(g.amosMediated, w.amosMediated);
            EXPECT_EQ(g.pagesTouched, w.pagesTouched);
            EXPECT_EQ(got.base().contentHash(), want.base().contentHash());
            support::ByteWriter gi, wi;
            got.base().saveState(gi);
            want.base().saveState(wi);
            EXPECT_EQ(gi.data(), wi.data());
            conflicts += g.conflict;
            mediated += g.amosMediated != 0;
            clean += !g.conflict && g.wordsCommitted != 0;
        }
    }
    // The draw must reach every kind of outcome.
    EXPECT_GT(conflicts, 0u);
    EXPECT_GT(mediated, 0u);
    EXPECT_GT(clean, 0u);
}

// =========================================== benchmark-suite parity

enum class Config
{
    Baseline,
    CheriOptimised,
};

const char *
configName(Config c)
{
    return c == Config::Baseline ? "Baseline" : "CheriOpt";
}

simt::SmConfig
smConfigOf(Config c, unsigned num_sms)
{
    simt::SmConfig cfg = c == Config::Baseline
                             ? simt::SmConfig::baseline()
                             : simt::SmConfig::cheriOptimised();
    cfg.numWarps = 16; // 512 threads per SM keeps the Small suite quick
    cfg.vrfCapacity = 16 * 32 * 3 / 8;
    cfg.numSms = num_sms;
    return cfg;
}

Mode
modeOf(Config c)
{
    return c == Config::Baseline ? Mode::Baseline : Mode::Purecap;
}

/** Architecturally visible outcome of one benchmark run. */
struct Outcome
{
    bool completed = false;
    bool verified = false;
    bool trapped = false;
    simt::TrapKind trapKind = simt::TrapKind::None;
    bool mergeFallback = false;
    uint64_t cycles = 0;
    std::vector<uint64_t> smCycles;
    std::vector<std::vector<uint8_t>> buffers;
};

Outcome
runOnce(const std::string &bench_name, Config c, unsigned num_sms)
{
    auto bench = kernels::makeBenchmark(bench_name);
    EXPECT_NE(bench, nullptr);
    nocl::Device dev(smConfigOf(c, num_sms), modeOf(c));
    Prepared p = bench->prepare(dev, Size::Small);

    Outcome o;
    const nocl::RunResult res = dev.launch(*p.kernel, p.cfg, p.args);
    o.completed = res.completed;
    o.verified = p.verify(dev);
    o.trapped = res.trapped;
    o.trapKind = res.trapKind;
    o.mergeFallback = res.mergeFallback;
    o.cycles = res.cycles;
    o.smCycles = res.smCycles;
    // Buffer addresses are allocation-order deterministic, so the
    // contents of every buffer argument are directly comparable across
    // SM counts (whole-DRAM hashes are not: the stack region's size
    // depends on the global thread count).
    for (const auto &arg : p.args) {
        if (arg.kind == nocl::Arg::Kind::Buf)
            o.buffers.push_back(dev.read8(arg.buf));
    }
    return o;
}

class MultiSmParity
    : public ::testing::TestWithParam<std::tuple<std::string, Config>>
{
};

TEST_P(MultiSmParity, ArchitecturalOutputsMatchSingleSm)
{
    const auto &[bench_name, config] = GetParam();
    const Outcome one = runOnce(bench_name, config, 1);
    ASSERT_TRUE(one.verified);

    for (unsigned sms : {2u, 4u}) {
        const Outcome multi = runOnce(bench_name, config, sms);
        SCOPED_TRACE(std::to_string(sms) + " SMs");
        EXPECT_EQ(multi.completed, one.completed);
        EXPECT_EQ(multi.verified, one.verified);
        EXPECT_EQ(multi.trapped, one.trapped);
        EXPECT_EQ(multi.trapKind, one.trapKind);
        ASSERT_EQ(multi.buffers.size(), one.buffers.size());
        for (size_t i = 0; i < one.buffers.size(); ++i)
            EXPECT_EQ(multi.buffers[i], one.buffers[i])
                << "buffer " << i << " diverged";
        EXPECT_EQ(multi.smCycles.size(), sms);
    }
}

TEST_P(MultiSmParity, DeterministicAcrossRepeats)
{
    const auto &[bench_name, config] = GetParam();
    const Outcome a = runOnce(bench_name, config, 4);
    const Outcome b = runOnce(bench_name, config, 4);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.trapped, b.trapped);
    EXPECT_EQ(a.mergeFallback, b.mergeFallback);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.smCycles, b.smCycles);
    EXPECT_EQ(a.buffers, b.buffers);
}

std::vector<std::tuple<std::string, Config>>
allCases()
{
    std::vector<std::tuple<std::string, Config>> cases;
    for (const auto &b : kernels::makeSuite())
        for (Config c : {Config::Baseline, Config::CheriOptimised})
            cases.emplace_back(b->name(), c);
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, MultiSmParity, ::testing::ValuesIn(allCases()),
    [](const auto &info) {
        return std::get<0>(info.param) + std::string("_") +
               configName(std::get<1>(info.param));
    });

// ================================== cross-SM atomics determinism

TEST(MultiSmAtomics, MediatedBenchmarksExactAtEverySmCount)
{
    // Histogram (AMOADD), Reduce (AMOADD) and MotionEst (atomic min)
    // drive cross-SM atomics through the commit-time mediator; all are
    // order-insensitive with unused results, so every SM count must give
    // the exact single-SM answer -- no fallback, no tolerance.
    for (const char *name : {"Histogram", "Reduce", "MotionEst"}) {
        SCOPED_TRACE(name);
        const Outcome one = runOnce(name, Config::Baseline, 1);
        ASSERT_TRUE(one.verified);
        for (unsigned sms : {2u, 4u}) {
            const Outcome multi = runOnce(name, Config::Baseline, sms);
            SCOPED_TRACE(std::to_string(sms) + " SMs");
            EXPECT_TRUE(multi.verified);
            EXPECT_EQ(multi.buffers, one.buffers);
        }
        const Outcome r1 = runOnce(name, Config::Baseline, 4);
        const Outcome r2 = runOnce(name, Config::Baseline, 4);
        EXPECT_EQ(r1.buffers, r2.buffers);
        EXPECT_EQ(r1.cycles, r2.cycles);
    }
}

// ================================================ block placement

/**
 * Thread 0 of every block writes the block's index to out[blockIdx]
 * and bumps a counter. The index travels through a shared array written
 * by the block's last thread (another warp), so two resident blocks of
 * one SM that alias on a scratchpad partition would write wrong values.
 */
struct BlockIndexKernel : kc::KernelDef
{
    std::string name() const override { return "BlockIndex"; }

    void
    build(kc::Kb &b) override
    {
        auto out = b.paramPtr("out", kc::Scalar::U32);
        auto count = b.paramPtr("count", kc::Scalar::U32);
        auto slot = b.shared("slot", kc::Scalar::U32, 64);
        b.if_(b.threadIdx() == b.blockDim() - 1,
              [&] { b.store(b.index(slot, b.c(0)), b.blockIdx()); });
        b.barrier();
        b.if_(b.threadIdx() == b.c(0), [&] {
            b.store(b.index(out, b.blockIdx()), b.load(slot));
            b.atomicAdd(b.index(count, b.c(0)), b.c(1));
        });
    }
};

struct PlacementRun
{
    bool completed = false;
    bool mergeFallback = false;
    std::vector<uint64_t> smCycles;
    std::vector<uint32_t> out;
    uint32_t count = 0;
};

/** Run @p kernel over @p grid blocks of 64 threads (8 slots per SM) and
 *  read back out[] (one word per block, preset to all ones) and the
 *  counter. */
PlacementRun
runPlacement(kc::KernelDef &kernel, Config c, unsigned sms, unsigned grid)
{
    nocl::Device dev(smConfigOf(c, sms), modeOf(c));
    nocl::Buffer out = dev.alloc(grid * 4);
    nocl::Buffer count = dev.alloc(4);
    dev.write32(out, std::vector<uint32_t>(grid, ~0u));
    nocl::LaunchConfig cfg;
    cfg.blockDim = 64;
    cfg.gridDim = grid;
    const nocl::RunResult res = dev.launch(
        kernel, cfg, {nocl::Arg::buffer(out), nocl::Arg::buffer(count)});

    PlacementRun r;
    r.completed = res.completed && !res.trapped;
    r.mergeFallback = res.mergeFallback;
    r.smCycles = res.smCycles;
    r.out = dev.read32(out);
    r.count = dev.read32(count).at(0);
    return r;
}

TEST(BlockPlacement, EveryBlockRunsOnceAtEverySmCount)
{
    BlockIndexKernel k;
    for (Config c : {Config::Baseline, Config::CheriOptimised}) {
        for (unsigned grid : {1u, 3u, 8u, 16u, 31u, 32u, 33u, 40u, 96u}) {
            SCOPED_TRACE(std::string(configName(c)) + " grid " +
                         std::to_string(grid));
            const PlacementRun one = runPlacement(k, c, 1, grid);
            ASSERT_TRUE(one.completed);
            EXPECT_EQ(one.count, grid);
            for (unsigned b = 0; b < grid; ++b)
                ASSERT_EQ(one.out[b], b) << "block " << b;

            for (unsigned sms : {2u, 4u}) {
                SCOPED_TRACE(std::to_string(sms) + " SMs");
                const PlacementRun multi = runPlacement(k, c, sms, grid);
                EXPECT_TRUE(multi.completed);
                EXPECT_FALSE(multi.mergeFallback);
                EXPECT_EQ(multi.count, grid) << "a block ran twice";
                EXPECT_EQ(multi.out, one.out);
            }
        }
    }
}

/** Every thread runs the same fixed loop: blocks of equal work. Takes
 *  BlockIndexKernel's parameters so that runPlacement can launch it. */
struct UniformWorkKernel : kc::KernelDef
{
    std::string name() const override { return "UniformWork"; }

    void
    build(kc::Kb &b) override
    {
        auto out = b.paramPtr("out", kc::Scalar::U32);
        b.paramPtr("count", kc::Scalar::U32);
        auto acc = b.var(b.threadIdx());
        auto i = b.var(b.c(0));
        b.forRange(i, b.c(200), b.c(1),
                   [&] { b.assign(acc, acc * 3 + i); });
        b.if_(b.threadIdx() == b.c(0),
              [&] { b.store(b.index(out, b.blockIdx()), acc); });
    }
};

TEST(BlockPlacement, SmallGridSpreadsOverAllSms)
{
    // 8 blocks on 4 SMs of 8 slots: every SM must get a share of the
    // work, not just SM 0.
    UniformWorkKernel k;
    const PlacementRun r = runPlacement(k, Config::Baseline, 4, 8);
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.smCycles.size(), 4u);
    const uint64_t most =
        *std::max_element(r.smCycles.begin(), r.smCycles.end());
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_GE(2 * r.smCycles[k], most) << "SM " << k;
}

/** FNV-1a over the code image's bytes. */
uint64_t
codeHash(const std::vector<uint32_t> &code)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint32_t word : code) {
        for (unsigned i = 0; i < 4; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** Hash of a suite kernel's Small compiled image on the default
 *  configuration of @p c with @p sms SMs; also returns its grid. */
uint64_t
suiteCodeHash(const std::string &name, Config c, unsigned sms,
              unsigned *grid)
{
    simt::SmConfig cfg = c == Config::Baseline
                             ? simt::SmConfig::baseline()
                             : simt::SmConfig::cheriOptimised();
    cfg.numSms = sms;
    nocl::Device dev(cfg, modeOf(c));
    auto bench = kernels::makeBenchmark(name);
    EXPECT_NE(bench, nullptr);
    const Prepared p = bench->prepare(dev, Size::Small);
    *grid = p.cfg.gridDim;
    return codeHash(dev.compileOnly(*p.kernel, p.cfg).code);
}

TEST(BlockPlacement, CodeUnchangedWherePlacementIsIdentity)
{
    // Hashes recorded before chunked placement existed. One SM always
    // uses the identity placement; at 4 SMs (32 block slots of 256
    // threads) so does any grid that is a multiple of 32 blocks.
    struct Golden
    {
        const char *name;
        uint64_t baseline, purecap;
    };
    const Golden one_sm[] = {
        {"VecAdd", 0x6e73026df535a654ull, 0xe3c2dcfb0bee5c4dull},
        {"Histogram", 0xb94ad80de2136327ull, 0x4b582acdd02738dfull},
        {"Reduce", 0xa84393528e759c3full, 0xa3ef9f293f461fcfull},
        {"Scan", 0x79e48aaa43167a19ull, 0x0c5747a02c70f808ull},
        {"Transpose", 0x9dac7ccfe91bfbdfull, 0x4f22a63156e76ca8ull},
        {"MatVecMul", 0xd55e9be588c33158ull, 0x2a2687b599692f92ull},
        {"MatMul", 0x2b56ec61d1ea8668ull, 0x1b3997bbc9d18842ull},
        {"BitonicSm", 0x8269d82ab4485888ull, 0xd3bab8e7fbfa220dull},
        {"BitonicLa", 0xa7e3c17c3aabc758ull, 0x0caed4e94da53b07ull},
        {"SPMV", 0x7cddea0e829e8837ull, 0x96c2c795d3d1e344ull},
        {"BlkStencil", 0x2220f0db66578b6dull, 0x50b8f295df03ef99ull},
        {"StrStencil", 0x9087987056e02c7eull, 0x873c012710d97508ull},
        {"VecGCD", 0xb3df5307bc239697ull, 0x6e2532278524081eull},
        {"MotionEst", 0xec145f727afa59f6ull, 0xd59ce77400ab4408ull},
    };
    const Golden four_sms[] = {
        {"Reduce", 0xbebd1565e0554ce2ull, 0x1915559194b7352aull},
        {"BlkStencil", 0x9234b0a7fa1fa534ull, 0x1844812ed262adb8ull},
    };

    const auto check = [](const auto &table, unsigned sms) {
        for (const Golden &g : table) {
            SCOPED_TRACE(std::string(g.name) + " " + std::to_string(sms) +
                         " SMs");
            unsigned grid = 0;
            EXPECT_EQ(suiteCodeHash(g.name, Config::Baseline, sms, &grid),
                      g.baseline);
            EXPECT_EQ(suiteCodeHash(g.name, Config::CheriOptimised, sms,
                                    &grid),
                      g.purecap);
            if (sms > 1) {
                EXPECT_EQ(grid % 32, 0u) << "not an identity placement";
            }
        }
    };
    check(one_sm, 1);
    check(four_sms, 4);
    EXPECT_EQ(std::size(one_sm), kernels::makeSuite().size());
}

// ===================================== conflicting-write fallback

/** Every thread of every block stores its global id to out[0]: blocks on
 *  different SMs race on one word, which the merge must refuse. */
struct ConflictingStoreKernel : kc::KernelDef
{
    std::string name() const override { return "ConflictingStore"; }

    void
    build(kc::Kb &b) override
    {
        auto out = b.paramPtr("out", kc::Scalar::U32);
        out[0] = b.blockIdx() * b.blockDim() + b.threadIdx();
    }
};

TEST(MultiSmConflict, ConflictingWriteFallsBackDeterministically)
{
    auto run = [](unsigned sms) {
        nocl::Device dev(smConfigOf(Config::Baseline, sms),
                         Mode::Baseline);
        nocl::Buffer out = dev.alloc(4);
        ConflictingStoreKernel k;
        nocl::LaunchConfig cfg;
        cfg.blockDim = 256;
        cfg.gridDim = 8;
        const nocl::RunResult res =
            dev.launch(k, cfg, {nocl::Arg::buffer(out)});
        return std::make_tuple(res.completed, res.mergeFallback,
                               dev.read32(out).at(0));
    };

    const auto [c1, fb1, v1] = run(1);
    EXPECT_TRUE(c1);
    EXPECT_FALSE(fb1) << "single SM never needs the merge";

    const auto [c2, fb2, v2] = run(2);
    EXPECT_TRUE(c2);
    EXPECT_TRUE(fb2) << "cross-SM racing stores must be detected";
    EXPECT_EQ(v2, v1) << "serial fallback must match the single-SM run";

    const auto [c2b, fb2b, v2b] = run(2);
    EXPECT_EQ(fb2b, fb2);
    EXPECT_EQ(v2b, v2);

    const auto [c4, fb4, v4] = run(4);
    EXPECT_TRUE(c4);
    EXPECT_TRUE(fb4);
    EXPECT_EQ(v4, v1);
}

/** Every lane stores the scratchpad word it finds, then overwrites it
 *  with 0xdead; every block plain-stores its index to out[0], so blocks
 *  on different SMs conflict. */
struct ScratchpadProbeKernel : kc::KernelDef
{
    std::string name() const override { return "ScratchpadProbe"; }

    void
    build(kc::Kb &b) override
    {
        auto out = b.paramPtr("out", kc::Scalar::U32);
        auto seen = b.paramPtr("seen", kc::Scalar::U32);
        auto shm = b.shared("shm", kc::Scalar::U32, 32);
        auto tid = b.var(b.threadIdx());
        seen[b.blockIdx() * b.blockDim() + tid] = b.load(b.index(shm, tid));
        b.store(b.index(shm, tid), b.cu(0xdead));
        out[0] = b.blockIdx();
    }
};

/** One ScratchpadProbe block per SM of a 2-SM device. */
struct ScratchpadProbe
{
    nocl::Device dev;
    nocl::Buffer out;
    nocl::Buffer seen;
    nocl::LaunchConfig cfg;
    ScratchpadProbeKernel kernel;

    ScratchpadProbe() : dev(probeConfig(), Mode::Purecap)
    {
        out = dev.alloc(4);
        seen = dev.alloc(64 * 4);
        cfg.blockDim = 32;
        cfg.gridDim = 2;
    }

    static simt::SmConfig
    probeConfig()
    {
        simt::SmConfig sm_cfg = smConfigOf(Config::CheriOptimised, 2);
        sm_cfg.numWarps = 1;
        return sm_cfg;
    }

    std::vector<nocl::Arg>
    args() const
    {
        return {nocl::Arg::buffer(out), nocl::Arg::buffer(seen)};
    }

    /** The serial fallback ran, the last block won, and all 64 lanes
     *  found a zeroed scratchpad. */
    void
    expectExactFallback(const nocl::RunResult &res) const
    {
        EXPECT_TRUE(res.completed);
        EXPECT_TRUE(res.mergeFallback);
        EXPECT_EQ(dev.read32(out).at(0), 1u);
        const std::vector<uint32_t> got = dev.read32(seen);
        EXPECT_EQ(std::count(got.begin(), got.end(), 0u), 64)
            << "lanes read what an earlier epoch left in the scratchpad";
    }
};

TEST(MultiSmConflict, SerialFallbackStartsFromZeroedScratchpad)
{
    {
        SCOPED_TRACE("plain launch");
        ScratchpadProbe p;
        p.expectExactFallback(p.dev.launch(p.kernel, p.cfg, p.args()));
    }
    {
        SCOPED_TRACE("launch bounded by maxCycles");
        ScratchpadProbe p;
        nocl::LaunchPolicy policy;
        policy.maxCycles = 1'000'000;
        p.expectExactFallback(
            p.dev.launch(p.kernel, p.cfg, p.args(), policy));
    }
    {
        SCOPED_TRACE("stepped launch");
        ScratchpadProbe p;
        auto launch = p.dev.beginStepped(
            p.dev.compileCached(p.kernel, p.cfg), p.cfg, p.args());
        p.expectExactFallback(
            launch->finish(nocl::LaunchPolicy{}.maxCycles));
    }
}

TEST(MultiSmConflict, BackToBackLaunchesStartFromZeroedScratchpad)
{
    ScratchpadProbe p;
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE("launch " + std::to_string(i));
        p.expectExactFallback(p.dev.launch(p.kernel, p.cfg, p.args()));
    }
}

// ============================================== barrier deadlock

TEST(BarrierDeadlock, SurfacedAsStructuredTrap)
{
    // A barrier deadlock cannot be provoked through the public API (the
    // release check runs on both barrier arrival and warp exit), so park
    // every warp at a barrier through the test seam and run.
    simt::SmConfig cfg;
    cfg.numWarps = 2;
    cfg.numLanes = 8;
    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(cfg, mem);

    kc::Assembler a;
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    sm.loadProgram(a.finalize());
    sm.launch(0, 1);
    simt::SmTestAccess::parkAllWarpsAtBarrier(sm);

    EXPECT_FALSE(sm.run());
    ASSERT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, simt::TrapKind::BarrierDeadlock);
    EXPECT_EQ(sm.firstTrap().warp, 0u);
    EXPECT_EQ(sm.firstTrap().addr, 0u);

    // And the structured record must flow through the launch result, as
    // harnesses consume it there.
    const uint64_t cheri_traps = sm.stats().get("cheri_traps");
    EXPECT_EQ(cheri_traps, 0u)
        << "a deadlock is not a CHERI trap and must not count as one";
}

} // namespace
