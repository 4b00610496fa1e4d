/**
 * @file
 * Tests for the SIMT simulator: coalescing rules, scratchpad bank
 * conflicts, DRAM timing, the tag controller, the compressed register
 * files (uniform/affine detection, partial writes, NVO, spilling, storage
 * model), and end-to-end execution of hand-assembled programs on the SM
 * (divergence/reconvergence, barriers, atomics, capability accesses and
 * CHERI traps).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "kc/asm.hpp"
#include "simt/mem.hpp"
#include "simt/regfile.hpp"
#include "simt/scratchpad.hpp"
#include "simt/sm.hpp"
#include "support/serialize.hpp"

namespace simt
{

/** Test seam declared as a friend of Sm (see sm.hpp). */
struct SmTestAccess
{
    /** Warp @p wid's lane state, to set up selection states directly. */
    static auto &warp(Sm &sm, unsigned wid) { return sm.warps_[wid]; }

    static int
    selectActive(Sm &sm, unsigned wid, unsigned &num_active,
                 bool &fully_active)
    {
        return sm.selectActive(sm.warps_[wid], num_active, fully_active);
    }

    static LaneMask active(const Sm &sm) { return sm.active_; }

    /** Execute one instruction of warp @p wid, whether or not the
     *  scheduler would issue it now. */
    static void executeWarp(Sm &sm, unsigned wid) { sm.executeWarp(wid); }
};

/** Test seam declared as a friend of RegFileSystem (see regfile.hpp):
 *  entry kinds and lane values, read without the side effects of a
 *  register read. */
struct RegFileTestAccess
{
    enum Kind { Scalar, PartialNull, Vector, Spilled, Flat };

    static Kind
    kind(const RegFileSystem &rf, bool meta, unsigned warp, unsigned reg)
    {
        const auto &entries = meta ? rf.metaEntries_ : rf.dataEntries_;
        return static_cast<Kind>(entries[rf.entryIndex(warp, reg)].kind);
    }

    static LaneArray<uint32_t>
    data(const RegFileSystem &rf, unsigned warp, unsigned reg)
    {
        LaneArray<uint32_t> out;
        rf.expandData(rf.dataEntries_[rf.entryIndex(warp, reg)], out);
        return out;
    }

    static LaneArray<CapMeta>
    meta(const RegFileSystem &rf, unsigned warp, unsigned reg)
    {
        LaneArray<CapMeta> out;
        rf.expandMeta(rf.metaEntries_[rf.entryIndex(warp, reg)], out);
        return out;
    }

    /** Spill vectors in use beyond the Spilled entries (0 unless one
     *  leaked). */
    static long
    leakedSpillVectors(const RegFileSystem &rf)
    {
        long live = static_cast<long>(rf.spillStore_.size()) -
                    static_cast<long>(rf.freeSpillIds_.size());
        for (const auto *es : {&rf.dataEntries_, &rf.metaEntries_}) {
            for (const auto &e : *es)
                live -= e.kind == RegFileSystem::Kind::Spilled;
        }
        return live;
    }

    /** The VRF slot of data register @p reg of @p warp (-1 if none) and
     *  a slot's stored lanes. */
    static int
    dataSlot(const RegFileSystem &rf, unsigned warp, unsigned reg)
    {
        const auto &e = rf.dataEntries_[rf.entryIndex(warp, reg)];
        return e.kind == RegFileSystem::Kind::Vector ? e.index : -1;
    }

    static LaneArray<uint32_t>
    dataSlotLanes(const RegFileSystem &rf, int slot)
    {
        return rf.dataSlots_.at(static_cast<size_t>(slot));
    }

    /** "" when every entry's index follows its kind -- a Vector's VRF
     *  slot is live and maps back to it, a Spilled entry's spill id is
     *  live, every other kind holds -1 -- else what is wrong. */
    static std::string
    indexFault(const RegFileSystem &rf)
    {
        using K = RegFileSystem::Kind;
        const auto listed = [](const std::vector<int> &ids, int id) {
            return std::find(ids.begin(), ids.end(), id) != ids.end();
        };
        for (const bool meta : {false, true}) {
            const auto &es = meta ? rf.metaEntries_ : rf.dataEntries_;
            for (size_t i = 0; i < es.size(); ++i) {
                const auto &e = es[i];
                const std::string at =
                    (meta ? "meta entry " : "data entry ") +
                    std::to_string(i);
                if (e.kind == K::Vector) {
                    if (e.index < 0 ||
                        static_cast<size_t>(e.index) >= rf.slotInfo_.size() ||
                        listed(rf.freeSlots_, e.index))
                        return at + ": slot not live";
                    const auto &si = rf.slotInfo_[e.index];
                    if (si.isMeta != meta ||
                        rf.entryIndex(si.warp, si.reg) != i)
                        return at + ": slot maps to another entry";
                } else if (e.kind == K::Spilled) {
                    if (e.index < 0 ||
                        static_cast<size_t>(e.index) >=
                            rf.spillStore_.size() ||
                        listed(rf.freeSpillIds_, e.index))
                        return at + ": spill id not live";
                } else if (e.index != -1) {
                    return at + ": an index on a kind without one";
                }
            }
        }
        return "";
    }
};

} // namespace simt

namespace
{

using namespace simt;
using isa::Op;
using kc::Assembler;

// ---------------------------------------------------------------- Coalescer

TEST(Coalescer, UnitStrideWarpsCoalesce)
{
    Coalescer c(32);
    LaneArray<uint32_t> addrs{};
    const simt::LaneMask active = lowLanes(32);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kDramBase + 4 * i; // 128 contiguous bytes
    const auto txns = c.coalesce(addrs, active, 4);
    EXPECT_EQ(txns.size(), 4u); // 128 / 32
}

TEST(Coalescer, UniformAddressIsOneTransaction)
{
    Coalescer c(32);
    LaneArray<uint32_t> addrs;
    addrs.fill(kDramBase + 64);
    const simt::LaneMask active = lowLanes(32);
    EXPECT_EQ(c.coalesce(addrs, active, 4).size(), 1u);
}

TEST(Coalescer, ScatteredAddressesDoNotCoalesce)
{
    Coalescer c(32);
    LaneArray<uint32_t> addrs{};
    const simt::LaneMask active = lowLanes(32);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kDramBase + 256 * i;
    EXPECT_EQ(c.coalesce(addrs, active, 4).size(), 32u);
}

TEST(Coalescer, InactiveLanesIgnored)
{
    Coalescer c(32);
    LaneArray<uint32_t> addrs;
    addrs.fill(0xdeadbeef); // garbage in inactive lanes
    addrs[5] = kDramBase;
    const simt::LaneMask active = 1u << 5;
    const auto txns = c.coalesce(addrs, active, 4);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].segment, kDramBase);
}

TEST(Coalescer, StraddlingAccessTouchesTwoSegments)
{
    Coalescer c(32);
    LaneArray<uint32_t> addrs{kDramBase + 28};
    const simt::LaneMask active = lowLanes(1);
    // An 8-byte access at offset 28 crosses the 32-byte boundary.
    EXPECT_EQ(c.coalesce(addrs, active, 8).size(), 2u);
}

// ------------------------------------------------------------- DRAM timing

TEST(DramTimer, LatencyAndBandwidth)
{
    // The timer adds a deterministic per-transaction jitter of
    // (seq * 7) % 37 to break lockstep-warp resonance.
    DramTimer t(100, 32);
    // First access: occupancy (1 cycle for 32B) + latency + jitter 0.
    EXPECT_EQ(t.access(0, 32), 101u);
    // Second access queues behind the first (jitter 7).
    EXPECT_EQ(t.access(0, 32), 102u + 7u);
    // A larger burst occupies multiple cycles (jitter 14).
    EXPECT_EQ(t.access(0, 128), 106u + 14u);
}

TEST(DramTimer, IdleChannelStartsImmediately)
{
    DramTimer t(10, 32);
    EXPECT_EQ(t.access(1000, 32), 1011u);
}

TEST(DramTimer, JitterIsBoundedAndDeterministic)
{
    DramTimer a(100, 32);
    DramTimer b(100, 32);
    uint64_t prev_a = 0;
    for (int i = 0; i < 100; ++i) {
        const uint64_t ta = a.access(10000 + i * 50, 32);
        const uint64_t tb = b.access(10000 + i * 50, 32);
        EXPECT_EQ(ta, tb); // deterministic
        // Bounded: within latency + occupancy + max jitter of the issue.
        EXPECT_GE(ta, 10000u + i * 50 + 101);
        EXPECT_LE(ta, 10000u + i * 50 + 101 + 36);
        EXPECT_GE(ta + 37, prev_a); // near-monotone
        prev_a = ta;
    }
}

// ----------------------------------------------------------- Tag controller

TEST(TagController, RootFilterEliminatesTrafficForCapFreeData)
{
    SmConfig cfg = SmConfig::cheriOptimised();
    support::StatSet stats;
    DramTimer dram(100, 32);
    TagController tc(cfg, dram, stats);

    // Reads and non-capability writes to a capability-free region cost
    // nothing.
    for (int i = 0; i < 100; ++i)
        tc.access(0, kDramBase + 32 * i, i % 2 == 0, false);
    EXPECT_EQ(stats.get("tag_dram_bytes_read"), 0u);
    EXPECT_EQ(stats.get("tag_cache_misses"), 0u);
    EXPECT_EQ(stats.get("tag_root_filtered"), 100u);
}

TEST(TagController, CapabilityWritesCreateTagTraffic)
{
    SmConfig cfg = SmConfig::cheriOptimised();
    support::StatSet stats;
    DramTimer dram(100, 32);
    TagController tc(cfg, dram, stats);

    tc.access(0, kDramBase, true, true); // store a capability: miss
    EXPECT_EQ(stats.get("tag_cache_misses"), 1u);
    // Subsequent accesses to the same region hit in the tag cache.
    tc.access(0, kDramBase + 64, false, false);
    tc.access(0, kDramBase + 128, true, false);
    EXPECT_EQ(stats.get("tag_cache_hits"), 2u);
}

// -------------------------------------------------------------- Scratchpad

TEST(Scratchpad, ConflictFreeUnitStride)
{
    SmConfig cfg;
    Scratchpad sp(cfg);
    LaneArray<uint32_t> addrs{};
    const simt::LaneMask active = lowLanes(32);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kSharedBase + 4 * i; // one word per bank
    EXPECT_EQ(sp.conflictCycles(addrs, active), 1u);
}

TEST(Scratchpad, BroadcastSameWord)
{
    SmConfig cfg;
    Scratchpad sp(cfg);
    LaneArray<uint32_t> addrs;
    addrs.fill(kSharedBase + 8);
    const simt::LaneMask active = lowLanes(32);
    EXPECT_EQ(sp.conflictCycles(addrs, active), 1u);
}

TEST(Scratchpad, StrideTwoConflicts)
{
    SmConfig cfg;
    Scratchpad sp(cfg);
    LaneArray<uint32_t> addrs{};
    const simt::LaneMask active = lowLanes(32);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kSharedBase + 8 * i; // stride 2 words: 2-way conflicts
    EXPECT_EQ(sp.conflictCycles(addrs, active), 2u);
}

TEST(Scratchpad, CapStorageRoundTrip)
{
    SmConfig cfg;
    Scratchpad sp(cfg);
    cap::CapMem c;
    c.bits = 0x123456789abcdef0ull;
    c.tag = true;
    sp.storeCap(kSharedBase + 16, c);
    EXPECT_EQ(sp.loadCap(kSharedBase + 16), c);
    // A non-capability store to either half clears the loaded tag.
    sp.store8(kSharedBase + 20, 0xff);
    sp.clearTagForStore(kSharedBase + 20, 1);
    EXPECT_FALSE(sp.loadCap(kSharedBase + 16).tag);
}

// -------------------------------------------------------- Main memory tags

TEST(MainMemory, CapTagInvariantBothHalves)
{
    MainMemory m;
    cap::CapMem c;
    c.bits = 0xfeedfacecafef00dull;
    c.tag = true;
    m.storeCap(kDramBase + 8, c);
    EXPECT_TRUE(m.loadCap(kDramBase + 8).tag);
    // Overwriting one 32-bit half with plain data clears the tag.
    m.store32(kDramBase + 12, 42);
    m.clearTagForStore(kDramBase + 12, 4);
    EXPECT_FALSE(m.loadCap(kDramBase + 8).tag);
    EXPECT_EQ(m.load32(kDramBase + 12), 42u);
}

// ------------------------------------------------------------ Register file

/** A register write's lane array: @p v in its first lanes. */
template <typename T>
LaneArray<T>
toLanes(const std::vector<T> &v)
{
    LaneArray<T> a{};
    std::copy(v.begin(), v.end(), a.begin());
    return a;
}

/** The 8 lanes of a register of the test configurations. */
std::vector<uint32_t>
readData(RegFileSystem &rf, unsigned warp, unsigned reg, RfAccess &acc)
{
    LaneArray<uint32_t> out;
    rf.readData(warp, reg, out, acc);
    return {out.begin(), out.begin() + 8};
}

std::vector<CapMeta>
readMeta(RegFileSystem &rf, unsigned warp, unsigned reg, RfAccess &acc)
{
    LaneArray<CapMeta> out;
    rf.readMeta(warp, reg, out, acc);
    return {out.begin(), out.begin() + 8};
}

class RegFileTest : public ::testing::Test
{
  protected:
    SmConfig
    smallCfg(bool purecap, bool compressed, bool nvo)
    {
        SmConfig cfg;
        cfg.numWarps = 2;
        cfg.numLanes = 8;
        cfg.vrfCapacity = 8;
        cfg.purecap = purecap;
        cfg.metaCompressed = compressed;
        cfg.sharedVrf = compressed;
        cfg.nvo = nvo;
        return cfg;
    }
};

TEST_F(RegFileTest, UniformAndAffineStayOutOfVrf)
{
    SmConfig cfg = smallCfg(false, false, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;

    const simt::LaneMask mask = lowLanes(8);
    std::vector<uint32_t> uniform(8, 7);
    rf.writeData(0, 1, toLanes(uniform), mask, acc);
    std::vector<uint32_t> affine(8);
    for (unsigned i = 0; i < 8; ++i)
        affine[i] = 100 + 4 * i;
    rf.writeData(0, 2, toLanes(affine), mask, acc);

    EXPECT_EQ(rf.dataVectorsInVrf(), 0u);
    std::vector<uint32_t> out;
    out = readData(rf, 0, 1, acc);
    EXPECT_EQ(out, uniform);
    out = readData(rf, 0, 2, acc);
    EXPECT_EQ(out, affine);
    EXPECT_FALSE(acc.dataFromVrf);
}

TEST_F(RegFileTest, GeneralVectorUsesVrf)
{
    SmConfig cfg = smallCfg(false, false, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask mask = lowLanes(8);
    std::vector<uint32_t> vals = {3, 1, 4, 1, 5, 9, 2, 6};
    rf.writeData(0, 5, toLanes(vals), mask, acc);
    EXPECT_EQ(rf.dataVectorsInVrf(), 1u);

    std::vector<uint32_t> out;
    RfAccess racc;
    out = readData(rf, 0, 5, racc);
    EXPECT_EQ(out, vals);
    EXPECT_TRUE(racc.dataFromVrf);

    // Overwriting with a uniform vector releases the VRF slot.
    std::vector<uint32_t> uniform(8, 0);
    rf.writeData(0, 5, toLanes(uniform), mask, acc);
    EXPECT_EQ(rf.dataVectorsInVrf(), 0u);
}

TEST_F(RegFileTest, PartialWriteMergesWithOldValue)
{
    SmConfig cfg = smallCfg(false, false, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask full = lowLanes(8);
    std::vector<uint32_t> uniform(8, 10);
    rf.writeData(0, 3, toLanes(uniform), full, acc);

    const simt::LaneMask low = lowLanes(4);
    std::vector<uint32_t> twenty(8, 20);
    rf.writeData(0, 3, toLanes(twenty), low, acc);

    std::vector<uint32_t> out;
    out = readData(rf, 0, 3, acc);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i < 4 ? 20u : 10u);
    // {20,20,20,20,10,10,10,10} is not affine: it must be in the VRF.
    EXPECT_EQ(rf.dataVectorsInVrf(), 1u);
}

TEST_F(RegFileTest, SpillAndReloadPreservesValues)
{
    SmConfig cfg = smallCfg(false, false, false);
    cfg.vrfCapacity = 2; // force spills
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    const simt::LaneMask mask = lowLanes(8);

    std::vector<std::vector<uint32_t>> vecs;
    RfAccess acc;
    for (unsigned r = 1; r <= 4; ++r) {
        std::vector<uint32_t> v(8);
        for (unsigned i = 0; i < 8; ++i)
            v[i] = r * 1000 + i * i; // non-affine
        vecs.push_back(v);
        rf.writeData(0, r, toLanes(v), mask, acc);
    }
    EXPECT_GE(acc.spills, 2u);
    EXPECT_GT(acc.dramBytes, 0u);

    // All four vectors read back correctly despite spills.
    for (unsigned r = 1; r <= 4; ++r) {
        std::vector<uint32_t> out;
        RfAccess racc;
        out = readData(rf, 0, r, racc);
        EXPECT_EQ(out, vecs[r - 1]) << "reg " << r;
    }
    EXPECT_GT(stats.get("vrf_data_spills"), 0u);
    EXPECT_GT(stats.get("vrf_data_reloads"), 0u);
}

TEST_F(RegFileTest, MetaUniformCompresses)
{
    SmConfig cfg = smallCfg(true, true, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask mask = lowLanes(8);
    std::vector<CapMeta> metas(8, CapMeta{0xabcd0123, true});
    rf.writeMeta(0, 4, toLanes(metas), mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 0u);

    std::vector<CapMeta> out;
    out = readMeta(rf, 0, 4, acc);
    EXPECT_EQ(out, metas);
}

TEST_F(RegFileTest, MetaNvoHoldsPartialNullInSrf)
{
    SmConfig cfg = smallCfg(true, true, true);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask mask = lowLanes(8);

    // Half the lanes hold a capability, half hold integers (null meta):
    // with NVO this stays out of the VRF.
    std::vector<CapMeta> metas(8);
    for (unsigned i = 0; i < 8; ++i)
        metas[i] = i % 2 ? CapMeta{0x1234, true} : CapMeta{};
    rf.writeMeta(0, 6, toLanes(metas), mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 0u);
    EXPECT_GT(stats.get("meta_nvo_hits"), 0u);

    std::vector<CapMeta> out;
    out = readMeta(rf, 0, 6, acc);
    EXPECT_EQ(out, metas);
}

TEST_F(RegFileTest, MetaWithoutNvoGoesToVrf)
{
    SmConfig cfg = smallCfg(true, true, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask mask = lowLanes(8);
    std::vector<CapMeta> metas(8);
    for (unsigned i = 0; i < 8; ++i)
        metas[i] = i % 2 ? CapMeta{0x1234, true} : CapMeta{};
    rf.writeMeta(0, 6, toLanes(metas), mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 1u);
}

TEST_F(RegFileTest, MetaTwoDistinctCapsDefeatsNvo)
{
    SmConfig cfg = smallCfg(true, true, true);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask mask = lowLanes(8);
    std::vector<CapMeta> metas(8);
    for (unsigned i = 0; i < 8; ++i)
        metas[i] = CapMeta{i % 2 ? 0x1111u : 0x2222u, true};
    rf.writeMeta(0, 7, toLanes(metas), mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 1u);
}

TEST_F(RegFileTest, CapRegMaskTracksCapabilityRegisters)
{
    SmConfig cfg = smallCfg(true, true, true);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    const simt::LaneMask mask = lowLanes(8);
    std::vector<CapMeta> caps(8, CapMeta{0x99, true});
    std::vector<CapMeta> nulls(8);
    rf.writeMeta(0, 3, toLanes(caps), mask, acc);
    rf.writeMeta(0, 9, toLanes(nulls), mask, acc);
    rf.writeMeta(1, 12, toLanes(caps), mask, acc);
    EXPECT_EQ(rf.capRegMask(), (1u << 3) | (1u << 12));
}

// Property check of the partial-write merge: writeData / writeMeta
// against an in-test expand -> merge -> classify reference, over random
// masks and every entry kind. The reference also predicts the VRF
// occupancy and the RfAccess report of the write.

using RfKind = RegFileTestAccess::Kind;

/** A register-file configuration for the property checks: a small
 *  shared VRF, so writes spill and reloads happen. */
SmConfig
propertyCfg(unsigned lanes, bool purecap, bool nvo)
{
    SmConfig cfg;
    cfg.numWarps = 2;
    cfg.numLanes = lanes;
    cfg.vrfCapacity = 4;
    cfg.purecap = purecap;
    cfg.metaCompressed = purecap;
    cfg.sharedVrf = purecap;
    cfg.nvo = nvo;
    return cfg;
}

/** The classification every write ends in, computed from the merged
 *  lanes alone. */
RfKind
referenceDataKind(const LaneArray<uint32_t> &v, unsigned n)
{
    const int32_t stride = n > 1 ? static_cast<int32_t>(v[1] - v[0]) : 0;
    if (stride < -128 || stride > 127)
        return RfKind::Vector;
    for (unsigned i = 0; i < n; ++i) {
        if (v[i] != v[0] + static_cast<uint32_t>(stride) * i)
            return RfKind::Vector;
    }
    return RfKind::Scalar;
}

RfKind
referenceMetaKind(const LaneArray<CapMeta> &v, unsigned n, bool nvo)
{
    bool uniform = true;
    for (unsigned i = 0; i < n; ++i)
        uniform = uniform && v[i] == v[0];
    if (uniform)
        return RfKind::Scalar;
    if (nvo) {
        const CapMeta *value = nullptr;
        bool one_value = true;
        for (unsigned i = 0; i < n; ++i) {
            if (v[i].isNull())
                continue;
            one_value = one_value && (value == nullptr || v[i] == *value);
            value = value ? value : &v[i];
        }
        if (one_value)
            return RfKind::PartialNull;
    }
    return RfKind::Vector;
}

/** What a write must report, from the entry kinds before and after and
 *  the VRF occupancy before. */
struct ExpectedWrite
{
    RfAccess acc;
    unsigned vectors;
};

ExpectedWrite
expectedWrite(RfKind before, RfKind after, bool partial, unsigned vectors,
              unsigned slots_used, const SmConfig &cfg, bool meta)
{
    const unsigned lane_bytes = meta ? 8 : 4;
    const bool reload = before == RfKind::Spilled && partial;
    const bool alloc =
        reload || (after == RfKind::Vector && before != RfKind::Vector);
    ExpectedWrite e;
    e.acc.reloads = reload ? 1 : 0;
    e.acc.spills = alloc && slots_used == cfg.vrfCapacity ? 1 : 0;
    e.acc.dramBytes = (e.acc.reloads + e.acc.spills) * cfg.numLanes *
                      lane_bytes;
    (meta ? e.acc.metaFromVrf : e.acc.dataFromVrf) =
        after == RfKind::Vector;
    e.vectors = vectors + (after == RfKind::Vector ? 1 : 0) -
                (before == RfKind::Vector ? 1 : 0) - e.acc.spills;
    return e;
}

void
expectAccess(const RfAccess &got, const RfAccess &want)
{
    EXPECT_EQ(got.dataFromVrf, want.dataFromVrf);
    EXPECT_EQ(got.metaFromVrf, want.metaFromVrf);
    EXPECT_EQ(got.spills, want.spills);
    EXPECT_EQ(got.reloads, want.reloads);
    EXPECT_EQ(got.dramBytes, want.dramBytes);
}

/** A random write mask over @p n lanes: never empty, full a quarter of
 *  the time. */
LaneMask
randomMask(std::mt19937 &rng, unsigned n)
{
    if (rng() % 4 == 0)
        return lowLanes(n);
    LaneMask m = 0;
    while (m == 0)
        m = static_cast<LaneMask>(rng()) & lowLanes(n);
    return m;
}

constexpr unsigned kTarget = 5; ///< the register every check writes (warp 0)

/** Evict warp 0's kTarget by filling the VRF with warp-1 vectors. */
template <typename WriteVector>
void
spillTarget(const SmConfig &cfg, WriteVector &&write_vector)
{
    for (unsigned r = 1; r <= cfg.vrfCapacity; ++r)
        write_vector(r);
}

/** The full register-file image (entries, slots, LRU clock, free lists
 *  and spill store). */
std::vector<uint8_t>
rfImage(const RegFileSystem &rf)
{
    support::ByteWriter w;
    rf.saveState(w);
    return w.data();
}

TEST(RegFileProperty, WriteDataMatchesExpandMergeClassify)
{
    std::mt19937 rng(2026);
    for (const unsigned n : {8u, 32u}) {
        const SmConfig cfg = propertyCfg(n, false, false);
        const auto random_vector = [&] {
            LaneArray<uint32_t> v{};
            for (unsigned i = 0; i < n; ++i)
                v[i] = static_cast<uint32_t>(rng());
            return v;
        };
        for (unsigned trial = 0; trial < 3000; ++trial) {
            support::StatSet stats;
            RegFileSystem rf(cfg, stats);
            RfAccess setup;
            const LaneMask all = lowLanes(n);
            // The entry kind under test: Scalar, Vector or Spilled.
            const unsigned want = trial % 3;
            const uint32_t base = static_cast<uint32_t>(rng());
            const int32_t stride = static_cast<int32_t>(rng() % 9) - 4;
            LaneArray<uint32_t> init{};
            for (unsigned i = 0; i < n; ++i)
                init[i] = base + static_cast<uint32_t>(stride) * i;
            if (want == 1 && rng() % 2) {
                // One lane off the line: a vector that a write of the
                // line over that lane compresses, freeing the slot.
                init[rng() % n] ^= 1 + rng() % 255;
            } else if (want != 0) {
                init = random_vector();
            }
            rf.writeData(0, kTarget, init, all, setup);
            if (want == 2) {
                spillTarget(cfg, [&](unsigned r) {
                    rf.writeData(1, r, random_vector(), all, setup);
                });
            }
            const RfKind before = RegFileTestAccess::kind(rf, false, 0,
                                                          kTarget);
            ASSERT_EQ(before, want == 0   ? RfKind::Scalar
                              : want == 1 ? RfKind::Vector
                                          : RfKind::Spilled);

            // The written lanes: random, one lane, or all but one.
            LaneMask mask = randomMask(rng, n);
            const LaneMask one = LaneMask{1} << (rng() % n);
            switch (rng() % 4) {
              case 0:
                mask = one;
                break;
              case 1:
                mask = n > 1 ? all & ~one : all;
                break;
              default:
                break;
            }
            // New values: the old sequence continued, a constant, or
            // random lanes; or, for a closed-form (writeDataAffine)
            // result, the old line itself, a small-stride line or a
            // stride past 8 bits.
            const bool closed_form = trial % 2 == 1;
            LaneArray<uint32_t> vals = random_vector();
            uint32_t new_base = 0;
            int32_t new_stride = 0;
            if (closed_form) {
                switch (rng() % 3) {
                  case 0:
                    new_base = base;
                    new_stride = stride;
                    break;
                  case 1:
                    new_base = static_cast<uint32_t>(rng() % 4);
                    new_stride = static_cast<int32_t>(rng() % 9) - 4;
                    break;
                  default:
                    new_base = static_cast<uint32_t>(rng());
                    new_stride = static_cast<int32_t>(rng());
                    break;
                }
                for (unsigned i = 0; i < kMaxLanes; ++i)
                    vals[i] = new_base + static_cast<uint32_t>(new_stride) * i;
            } else if (rng() % 3 == 0) {
                vals = init;
            } else if (rng() % 2 == 0) {
                vals.fill(static_cast<uint32_t>(rng() % 4));
            }

            const LaneArray<uint32_t> old =
                RegFileTestAccess::data(rf, 0, kTarget);
            const int old_slot = RegFileTestAccess::dataSlot(rf, 0, kTarget);
            const LaneArray<uint32_t> old_slot_lanes =
                old_slot >= 0 ? RegFileTestAccess::dataSlotLanes(rf, old_slot)
                              : LaneArray<uint32_t>{};
            LaneArray<uint32_t> merged{};
            for (unsigned i = 0; i < n; ++i)
                merged[i] = (mask >> i) & 1 ? vals[i] : old[i];
            const RfKind after = referenceDataKind(merged, n);
            const ExpectedWrite e =
                expectedWrite(before, after, mask != all,
                              rf.dataVectorsInVrf(), rf.vrfSlotsInUse(), cfg,
                              false);

            // A twin from the same image and counters takes the per-lane
            // write of the expanded values: the closed-form write must
            // leave the identical image (slot contents, LRU order, free
            // lists) and counters.
            support::StatSet twin_stats;
            RegFileSystem twin(cfg, twin_stats);
            const std::vector<uint8_t> image = rfImage(rf);
            support::ByteReader reader(image);
            ASSERT_TRUE(twin.loadState(reader));
            for (const auto &[name, value] : stats.all())
                twin_stats.set(name, value);

            RfAccess acc;
            if (closed_form)
                rf.writeDataAffine(0, kTarget, new_base, new_stride, mask,
                                   acc);
            else
                rf.writeData(0, kTarget, vals, mask, acc);
            SCOPED_TRACE(testing::Message()
                         << "lanes " << n << " trial " << trial << " mask 0x"
                         << std::hex << mask << " closed form "
                         << closed_form);
            EXPECT_EQ(RegFileTestAccess::kind(rf, false, 0, kTarget), after);
            const LaneArray<uint32_t> got =
                RegFileTestAccess::data(rf, 0, kTarget);
            for (unsigned i = 0; i < n; ++i)
                ASSERT_EQ(got[i], merged[i]) << "lane " << i;
            EXPECT_EQ(rf.dataVectorsInVrf(), e.vectors);
            expectAccess(acc, e.acc);
            EXPECT_EQ(RegFileTestAccess::leakedSpillVectors(rf), 0);
            // A vector that compresses frees its slot with the old lanes
            // still in it, as checkpoint images have always recorded.
            if (old_slot >= 0 && after == RfKind::Scalar) {
                EXPECT_EQ(RegFileTestAccess::dataSlotLanes(rf, old_slot),
                          old_slot_lanes);
            }

            if (closed_form) {
                RfAccess twin_acc;
                twin.writeData(0, kTarget, vals, mask, twin_acc);
                EXPECT_EQ(rfImage(rf), rfImage(twin));
                expectAccess(acc, twin_acc);
                EXPECT_EQ(stats.all(), twin_stats.all());
            }
        }
    }
}

TEST(RegFileProperty, DataWritesKeepNarrowStridesAndIndicesByKind)
{
    // Random full and partial writes through every data write path
    // (writeData and its merge, writeDataAffine) with strides at and
    // past the 8-bit edges, reads that reload spilled registers, and
    // metadata vectors competing for a shared VRF. After each step every
    // register holds a host model's lanes -- a stride that does not fit
    // 8 bits must leave a vector, never a wrapped Scalar -- and every
    // index follows its kind.
    std::mt19937 rng(2029);
    const int32_t strides[] = {-129, -128, -127, -1, 0,   1,
                               127,  128,  129,  256, -256, 0x12345};
    constexpr unsigned kRegs = 8;
    for (const unsigned n : {8u, 32u}) {
        for (const bool purecap : {false, true}) {
            const SmConfig cfg = propertyCfg(n, purecap, purecap);
            support::StatSet stats;
            RegFileSystem rf(cfg, stats);
            LaneArray<uint32_t> model[2][kRegs] = {};
            for (unsigned step = 0; step < 3000; ++step) {
                const unsigned warp = rng() % 2;
                const unsigned reg = 1 + rng() % (kRegs - 1);
                const LaneMask mask = randomMask(rng, n);
                const uint32_t base = static_cast<uint32_t>(rng());
                const int32_t stride = strides[rng() % std::size(strides)];
                LaneArray<uint32_t> vals{};
                for (unsigned i = 0; i < kMaxLanes; ++i)
                    vals[i] = base + static_cast<uint32_t>(stride) * i;
                RfAccess acc;
                const unsigned path = rng() % 4;
                SCOPED_TRACE(testing::Message()
                             << "lanes " << n << " purecap " << purecap
                             << " step " << step << " path " << path
                             << " stride " << stride);
                if (path == 0) {
                    rf.writeDataAffine(warp, reg, base, stride, mask, acc);
                } else if (path == 1) {
                    if (rng() % 2)
                        vals[rng() % n] ^= 1 + rng() % 255;
                    rf.writeData(warp, reg, vals, mask, acc);
                } else if (path == 2) {
                    LaneArray<uint32_t> out;
                    rf.readData(warp, reg, out, acc);
                    for (unsigned i = 0; i < n; ++i)
                        ASSERT_EQ(out[i], model[warp][reg][i]) << i;
                } else if (purecap) {
                    LaneArray<CapMeta> m{};
                    for (unsigned i = 0; i < n; ++i)
                        m[i] = CapMeta{static_cast<uint32_t>(rng()), true};
                    rf.writeMeta(warp, reg, m, lowLanes(n), acc);
                }
                if (path < 2) {
                    for (unsigned i = 0; i < n; ++i)
                        if ((mask >> i) & 1)
                            model[warp][reg][i] = vals[i];
                }
                for (unsigned w = 0; w < 2; ++w) {
                    for (unsigned r = 0; r < kRegs; ++r) {
                        const LaneArray<uint32_t> got =
                            RegFileTestAccess::data(rf, w, r);
                        for (unsigned i = 0; i < n; ++i)
                            ASSERT_EQ(got[i], model[w][r][i])
                                << "warp " << w << " reg " << r << " lane "
                                << i;
                    }
                }
                ASSERT_EQ(RegFileTestAccess::indexFault(rf), "");
            }
            EXPECT_GT(stats.get("vrf_data_spills"), 0u);
            EXPECT_GT(stats.get("vrf_data_reloads"), 0u);
        }
    }
}

TEST(RegFileProperty, WriteMetaMatchesExpandMergeClassify)
{
    std::mt19937 rng(2027);
    const CapMeta v{0x1234, true};
    const CapMeta u{0x5678, true};
    for (const unsigned n : {8u, 32u}) {
        for (const bool nvo : {false, true}) {
            const SmConfig cfg = propertyCfg(n, true, nvo);
            // Lane values drawn from {null, v, u} by per-lane weights.
            const auto draw = [&](unsigned null_w, unsigned v_w,
                                  unsigned u_w) {
                LaneArray<CapMeta> m{};
                for (unsigned i = 0; i < n; ++i) {
                    const unsigned r = rng() % (null_w + v_w + u_w);
                    m[i] = r < null_w ? CapMeta{} : (r < null_w + v_w ? v : u);
                }
                return m;
            };
            const auto vector_value = [&] {
                LaneArray<CapMeta> m = draw(0, 1, 1);
                m[0] = v;
                m[1] = u; // two distinct non-null values: never compresses
                return m;
            };
            for (unsigned trial = 0; trial < 2000; ++trial) {
                support::StatSet stats;
                RegFileSystem rf(cfg, stats);
                RfAccess setup;
                const LaneMask all = lowLanes(n);
                // Scalar, PartialNull (NVO only), Vector or Spilled.
                const unsigned want = trial % 4;
                if (want == 1 && !nvo)
                    continue;
                LaneArray<CapMeta> init{};
                if (want == 0) {
                    init.fill(rng() % 2 ? v : CapMeta{});
                } else if (want == 1) {
                    init = draw(1, 1, 0);
                    init[0] = v;
                    init[1] = CapMeta{};
                } else {
                    init = vector_value();
                }
                rf.writeMeta(0, kTarget, init, all, setup);
                if (want == 3) {
                    spillTarget(cfg, [&](unsigned r) {
                        rf.writeMeta(1, r, vector_value(), all, setup);
                    });
                }
                const RfKind before =
                    RegFileTestAccess::kind(rf, true, 0, kTarget);
                ASSERT_EQ(before, static_cast<RfKind>(want));

                const LaneMask mask = randomMask(rng, n);
                LaneArray<CapMeta> vals;
                const unsigned draw_kind = rng() % 4;
                switch (draw_kind) {
                  case 0: vals = draw(1, 0, 0); break;
                  case 1: vals = draw(0, 1, 0); break;
                  case 2: vals = draw(1, 1, 0); break;
                  default: vals = draw(1, 1, 1); break;
                }
                // One value on every lane: half the writes go through
                // the uniform form, which must behave the same.
                const bool uniform_write = draw_kind < 2 && rng() % 2 == 0;

                const LaneArray<CapMeta> old =
                    RegFileTestAccess::meta(rf, 0, kTarget);
                LaneArray<CapMeta> merged{};
                for (unsigned i = 0; i < n; ++i)
                    merged[i] = (mask >> i) & 1 ? vals[i] : old[i];
                const RfKind after = referenceMetaKind(merged, n, nvo);
                // Writing nulls into the null scalar is a no-op.
                bool written_nonnull = false;
                for (unsigned i = 0; i < n; ++i)
                    written_nonnull = written_nonnull ||
                                      ((mask >> i) & 1 && !vals[i].isNull());
                const ExpectedWrite e = expectedWrite(
                    before, after, mask != all, rf.metaVectorsInVrf(),
                    rf.vrfSlotsInUse(), cfg, true);

                const uint64_t nvo_hits = stats.get("meta_nvo_hits");
                RfAccess acc;
                if (uniform_write)
                    rf.writeMetaUniform(0, kTarget, vals[0], mask, acc);
                else
                    rf.writeMeta(0, kTarget, vals, mask, acc);
                SCOPED_TRACE(testing::Message()
                             << "lanes " << n << " nvo " << nvo << " trial "
                             << trial << " mask 0x" << std::hex << mask
                             << " uniform " << uniform_write);
                EXPECT_EQ(RegFileTestAccess::kind(rf, true, 0, kTarget),
                          after);
                EXPECT_EQ(stats.get("meta_nvo_hits") - nvo_hits,
                          after == RfKind::PartialNull ? 1u : 0u);
                const LaneArray<CapMeta> got =
                    RegFileTestAccess::meta(rf, 0, kTarget);
                for (unsigned i = 0; i < n; ++i)
                    ASSERT_EQ(got[i], merged[i]) << "lane " << i;
                EXPECT_EQ(rf.metaVectorsInVrf(), e.vectors);
                expectAccess(acc, e.acc);
                EXPECT_EQ(RegFileTestAccess::leakedSpillVectors(rf), 0);
                EXPECT_EQ((rf.capRegMask() >> kTarget) & 1,
                          written_nonnull || !init[0].isNull() ? 1u : 0u);
            }
        }
    }
}

TEST_F(RegFileTest, StorageModelMatchesPaperBaseline)
{
    // Table 2 of the paper: a 3/8-size VRF (768 regs) yields 937 Kb and a
    // 1/2-size VRF yields 1,202 Kb for the 2,048-thread SM.
    SmConfig cfg; // full-size default: 64 warps x 32 lanes
    support::StatSet stats;
    {
        cfg.vrfCapacity = 768;
        RegFileSystem rf(cfg, stats);
        const double kb = static_cast<double>(rf.dataStorageBits()) / 1024;
        EXPECT_NEAR(kb, 937, 15);
        // Compression ratio ~1:0.46 vs the flat register file.
        const double ratio = static_cast<double>(rf.dataStorageBits()) /
                             static_cast<double>(rf.flatDataStorageBits());
        EXPECT_NEAR(ratio, 0.45, 0.03);
    }
    {
        cfg.vrfCapacity = 1024;
        RegFileSystem rf(cfg, stats);
        EXPECT_NEAR(static_cast<double>(rf.dataStorageBits()) / 1024, 1202,
                    15);
    }
    {
        cfg.vrfCapacity = 512;
        RegFileSystem rf(cfg, stats);
        EXPECT_NEAR(static_cast<double>(rf.dataStorageBits()) / 1024, 672,
                    15);
    }
}

TEST_F(RegFileTest, MetaStorageOverheadMatchesPaper)
{
    // Section 4.3: the uncompressed metadata file costs 103% of the
    // baseline register file; the compressed metadata SRF costs ~14%;
    // halving it (compiler register limiting) would give 7%.
    support::StatSet stats;
    SmConfig base = SmConfig::baseline();
    RegFileSystem base_rf(base, stats);
    const double base_bits = static_cast<double>(base_rf.dataStorageBits());

    SmConfig plain = SmConfig::cheri();
    RegFileSystem plain_rf(plain, stats);
    EXPECT_NEAR(static_cast<double>(plain_rf.metaStorageBits()) /
                    static_cast<double>(plain_rf.flatDataStorageBits()),
                1.03, 0.01);

    SmConfig opt = SmConfig::cheriOptimised();
    RegFileSystem opt_rf(opt, stats);
    EXPECT_NEAR(static_cast<double>(opt_rf.metaStorageBits()) / base_bits,
                0.14, 0.03);
}

// ------------------------------------------------------------ SM execution

std::vector<uint32_t>
storeHartidProgram()
{
    // x1 = hartid; dram[x1*4] = x1; halt
    Assembler a;
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 2, 1, 2);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::ADD, 3, 3, 2);
    a.emit(Op::SW, 0, 3, 1, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    return a.finalize();
}

TEST(SmExec, StoreHartidBaseline)
{
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 8; // keep the test fast
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(storeHartidProgram());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_FALSE(sm.trapped());

    for (unsigned t = 0; t < cfg.numThreads(); ++t)
        EXPECT_EQ(mem.load32(kDramBase + 4 * t), t);

    // Unit-stride stores coalesce: 8 lanes' 4-byte stores per 32-byte
    // segment -> numThreads*4/32 transactions.
    EXPECT_EQ(sm.stats().get("dram_transactions"),
              cfg.numThreads() * 4 / 32);
    EXPECT_EQ(sm.stats().get("op_sw"), cfg.numWarps);
}

TEST(SmExec, DivergenceAndReconvergence)
{
    // Odd lanes write 100+lane, even lanes write 200+lane; after the join
    // every lane writes a common marker. Verifies both paths execute and
    // threads reconverge.
    Assembler a;
    const auto l_even = a.newLabel();
    const auto l_end = a.newLabel();
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_HARTID);
    a.emitI(Op::ANDI, 2, 1, 1);
    a.emit(Op::SIMT_PUSH, 0, 0, 0);
    a.emitBranch(Op::BEQ, 2, 0, l_even);
    a.emitI(Op::ADDI, 4, 1, 100); // odd path
    a.emitJump(0, l_end);
    a.place(l_even);
    a.emitI(Op::ADDI, 4, 1, 200); // even path
    a.place(l_end);
    a.emit(Op::SIMT_POP, 0, 0, 0);
    a.emitI(Op::SLLI, 5, 1, 2);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::ADD, 6, 6, 5);
    a.emit(Op::SW, 0, 6, 4, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 2;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());

    for (unsigned t = 0; t < cfg.numThreads(); ++t) {
        const uint32_t expect = t % 2 ? t + 100 : t + 200;
        EXPECT_EQ(mem.load32(kDramBase + 4 * t), expect) << t;
    }
}

TEST(SmExec, LoopWithVariableTripCount)
{
    // Each thread sums 1..(lane+1) with a data-dependent loop trip count,
    // exercising divergent loop exits.
    Assembler a;
    const auto l_head = a.newLabel();
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_LANEID);
    a.emitI(Op::ADDI, 2, 1, 1); // n = lane+1
    a.emitI(Op::ADDI, 3, 0, 0); // acc = 0
    a.emitI(Op::ADDI, 4, 0, 1); // i = 1
    a.emit(Op::SIMT_PUSH, 0, 0, 0);
    a.place(l_head);
    a.emitR(Op::ADD, 3, 3, 4);
    a.emitI(Op::ADDI, 4, 4, 1);
    a.emitBranch(Op::BGE, 2, 4, l_head); // while (n >= i)
    a.emit(Op::SIMT_POP, 0, 0, 0);
    a.emitI(Op::CSRRS, 5, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 5, 5, 2);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::ADD, 6, 6, 5);
    a.emit(Op::SW, 0, 6, 3, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());

    for (unsigned lane = 0; lane < cfg.numLanes; ++lane) {
        const uint32_t n = lane + 1;
        EXPECT_EQ(mem.load32(kDramBase + 4 * lane), n * (n + 1) / 2);
    }
}

TEST(SmExec, BarrierAndScratchpad)
{
    // Each thread stores lane to shared memory, barriers, then reads its
    // neighbour's slot (rotated by one).
    Assembler a;
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 2, 1, 2);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kSharedBase));
    a.emitR(Op::ADD, 3, 3, 2);
    a.emit(Op::SW, 0, 3, 1, 0); // shared[t] = t
    a.emit(Op::SIMT_BARRIER, 0, 0, 0);
    // neighbour = (t+1) % numThreads
    a.emitI(Op::CSRRS, 4, 0, isa::CSR_NUMTHREADS);
    a.emitI(Op::ADDI, 5, 1, 1);
    a.emitR(Op::REMU, 5, 5, 4);
    a.emitI(Op::SLLI, 5, 5, 2);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(kSharedBase));
    a.emitR(Op::ADD, 6, 6, 5);
    a.emitI(Op::LW, 7, 6, 0);
    // dram[t] = neighbour value
    a.emitI(Op::LUI, 8, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::ADD, 8, 8, 2);
    a.emit(Op::SW, 0, 8, 7, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 4;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.launch(0, cfg.numWarps); // all warps form one block
    ASSERT_TRUE(sm.run());

    const unsigned n = cfg.numThreads();
    for (unsigned t = 0; t < n; ++t)
        EXPECT_EQ(mem.load32(kDramBase + 4 * t), (t + 1) % n);
    EXPECT_GE(sm.stats().get("barriers_released"), 1u);
}

TEST(SmExec, AtomicAddAccumulates)
{
    // All threads atomically add 1 to a single DRAM counter.
    Assembler a;
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitI(Op::ADDI, 4, 0, 1);
    a.emitR(Op::AMOADD_W, 5, 3, 4);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 4;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_EQ(mem.load32(kDramBase), cfg.numThreads());
}

// Pure-capability execution: derive a buffer capability from DDC, store
// through it, and verify a bounds violation traps.
std::vector<uint32_t>
purecapStoreProgram(int32_t bounds_len, int32_t store_offset)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC); // c5 = DDC
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 2, 1, 2);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::ADD, 3, 3, 2);
    a.emitR(Op::CSETADDR, 6, 5, 3);          // c6 = DDC with addr
    a.emitI(Op::CSETBOUNDSIMM, 6, 6, bounds_len);
    a.emitI(Op::CINCOFFSETIMM, 6, 6, store_offset);
    a.emit(Op::SW, 0, 6, 1, 0); // csw hartid via c6
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    return a.finalize();
}

TEST(SmExec, PurecapStoreInBounds)
{
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 2;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(purecapStoreProgram(4, 0));
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_FALSE(sm.trapped());
    for (unsigned t = 0; t < cfg.numThreads(); ++t)
        EXPECT_EQ(mem.load32(kDramBase + 4 * t), t);
    EXPECT_GT(sm.stats().get("op_csetboundsimm"), 0u);
    EXPECT_GT(sm.stats().get("op_csw"), 0u);
}

TEST(SmExec, PurecapOutOfBoundsStoreTraps)
{
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    // Bounds of 4 bytes but store at offset +4: one byte past the end.
    sm.loadProgram(purecapStoreProgram(4, 4));
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, TrapKind::BoundsViolation);
    EXPECT_EQ(sm.stats().get("cheri_traps"), cfg.numThreads());
}

TEST(SmExec, PurecapUntaggedPointerTraps)
{
    // Forge an address with integer instructions and try to store through
    // it: the metadata is null (untagged) so the access must trap.
    Assembler a;
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitI(Op::ADDI, 4, 0, 1);
    a.emit(Op::SW, 0, 3, 4, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, TrapKind::TagViolation);
    // The forged store must not have modified memory.
    EXPECT_EQ(mem.load32(kDramBase), 0u);
}

TEST(SmExec, PurecapCapabilityLoadStoreRoundTrip)
{
    // Store a capability with CSC, load it back with CLC, then use the
    // loaded capability for a data store.
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::CSETADDR, 6, 5, 3);      // c6: addr = dram base
    a.emitI(Op::CINCOFFSETIMM, 7, 6, 64); // c7 = scratch target
    a.emit(Op::CSC, 0, 6, 7, 0)  ;        // mem[c6] = c7
    a.emitI(Op::CLC, 8, 6, 0);            // c8 = mem[c6]
    a.emitI(Op::ADDI, 9, 0, 77);
    a.emit(Op::SW, 0, 8, 9, 0);           // *c8 = 77
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    cfg.numLanes = 1; // uniform addresses; single lane suffices
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_FALSE(sm.trapped()) << sm.firstTrap().kind;
    EXPECT_EQ(mem.load32(kDramBase + 64), 77u);
    // The stored capability in memory carries its tag.
    EXPECT_TRUE(mem.loadCap(kDramBase).tag);
}

TEST(SmExec, CorruptedCapabilityInMemoryLosesTag)
{
    // As above, but corrupt one word of the in-memory capability with a
    // plain data store before reloading it: the CLC must return an
    // untagged value and the final store must trap.
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::CSETADDR, 6, 5, 3);
    a.emitI(Op::CINCOFFSETIMM, 7, 6, 64);
    a.emit(Op::CSC, 0, 6, 7, 0);
    a.emitI(Op::ADDI, 9, 0, 123);
    a.emit(Op::SW, 0, 6, 9, 0); // corrupt the low half
    a.emitI(Op::CLC, 8, 6, 0);
    a.emit(Op::SW, 0, 8, 9, 0); // must trap: tag stripped
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    cfg.numLanes = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, TrapKind::TagViolation);
}

TEST(SmExec, CscPortStallCounted)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::CSETADDR, 6, 5, 3);
    a.emit(Op::CSC, 0, 6, 6, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_EQ(sm.stats().get("csc_port_stalls"), 1u);

    // The plain CHERI configuration (dual-port metadata SRF) pays none.
    SmConfig cfg2 = SmConfig::cheri();
    cfg2.numWarps = 1;
    MainMemory sm2_dram;
    MemShard sm2_mem(sm2_dram);
    Sm sm2(cfg2, sm2_mem);
    sm2.loadProgram(a.finalize());
    sm2.setScr(isa::SCR_DDC, cap::rootCap());
    sm2.launch(0, 1);
    ASSERT_TRUE(sm2.run());
    EXPECT_EQ(sm2.stats().get("csc_port_stalls"), 0u);
}

TEST(SmExec, SfuOffloadServicesBoundsOps)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::CSETADDR, 6, 5, 3);
    a.emitI(Op::CSETBOUNDSIMM, 6, 6, 256);
    a.emitR(Op::CGETLEN, 7, 6, 0);
    a.emitR(Op::CGETBASE, 8, 6, 0);
    // Store len and base for checking.
    a.emit(Op::SW, 0, 6, 7, 0);
    a.emitI(Op::CINCOFFSETIMM, 6, 6, 4);
    a.emit(Op::SW, 0, 6, 8, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_FALSE(sm.trapped()) << sm.firstTrap().kind;
    EXPECT_EQ(mem.load32(kDramBase), 256u);
    EXPECT_EQ(mem.load32(kDramBase + 4), kDramBase);
    EXPECT_GT(sm.stats().get("sfu_cheri_ops"), 0u);
}

// ------------------------------------------------------------- SCR bounds

TEST(SmScrDeath, SetScrRejectsOutOfRangeIndex)
{
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(SmConfig::cheriOptimised(), mem);
    EXPECT_EXIT(sm.setScr(static_cast<isa::Scr>(isa::NUM_SCRS),
                          cap::rootCap()),
                testing::ExitedWithCode(1), "out of range");
}

TEST(SmScrDeath, ScrAccessorRejectsOutOfRangeIndex)
{
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(SmConfig::cheriOptimised(), mem);
    EXPECT_EXIT((void)sm.scr(static_cast<isa::Scr>(31)),
                testing::ExitedWithCode(1), "out of range");
}

// ------------------------------------------------------------ Lane count

TEST(SmLanesDeath, RefusesLaneCountsAMaskCannotHold)
{
    for (const unsigned lanes : {0u, 33u, 64u}) {
        SmConfig cfg;
        cfg.numLanes = lanes;
        EXPECT_EXIT(
            {
                MainMemory dram;
                MemShard mem(dram);
                Sm sm(cfg, mem);
            },
            testing::ExitedWithCode(1),
            "numLanes \\(" + std::to_string(lanes) + "\\) must be 1\\.\\.32")
            << lanes;
    }
}

// ---------------------------------------------------- Active-thread selection

/** A warp as the paper's SM holds it: every lane's (pc, nest), PCC and
 *  halted bit. */
struct LaneModel
{
    LaneArray<uint32_t> pc{}, nest{};
    LaneArray<cap::CapPipe> pcc{};
    LaneMask halted = 0;
};

/** Seed warp @p wid of @p sm from @p m through the restore-time rebuild
 *  of its lane groups. */
void
seedWarp(Sm &sm, unsigned wid, const LaneModel &m, unsigned n)
{
    auto &w = SmTestAccess::warp(sm, wid);
    w.halted = m.halted;
    w.setLaneKeys(m.pc, m.nest, lowLanes(n) & ~m.halted);
    w.pcc = m.pcc;
    w.liveThreads = n - static_cast<unsigned>(std::popcount(m.halted));
}

/** The selection rule of Section 2.3 as a plain scan: the first live
 *  lane of deepest nest then lowest PC leads; every live lane at its
 *  (nest, pc) -- and, with dynamic PC metadata, its PCC -- issues. */
struct NaiveSelection
{
    int leader = -1;
    LaneMask active = 0;
    unsigned numActive = 0;
    bool fullyActive = false;
};

NaiveSelection
naiveSelect(const LaneModel &w, unsigned n, bool check_pcc)
{
    NaiveSelection r;
    unsigned live = 0;
    for (unsigned lane = 0; lane < n; ++lane) {
        if ((w.halted >> lane) & 1)
            continue;
        ++live;
        const int l = r.leader;
        if (l < 0 || w.nest[lane] > w.nest[l] ||
            (w.nest[lane] == w.nest[l] && w.pc[lane] < w.pc[l]))
            r.leader = static_cast<int>(lane);
    }
    if (r.leader < 0)
        return r;
    const unsigned l = static_cast<unsigned>(r.leader);
    for (unsigned lane = 0; lane < n; ++lane) {
        const bool a = !((w.halted >> lane) & 1) &&
                       w.nest[lane] == w.nest[l] && w.pc[lane] == w.pc[l] &&
                       (!check_pcc || w.pcc[lane] == w.pcc[l]);
        r.active |= LaneMask{a} << lane;
        r.numActive += a ? 1 : 0;
    }
    r.fullyActive = r.numActive == live;
    return r;
}

TEST(SelectActiveProperty, MatchesNaiveScan)
{
    std::mt19937 rng(2028);
    const cap::CapPipe pcc_a = cap::setBounds(cap::rootCap(), 4096).cap;
    const cap::CapPipe pcc_b = cap::setBounds(cap::rootCap(), 8192).cap;
    for (const unsigned n : {1u, 8u, 32u}) {
        // Dynamic PC metadata (plain CHERI) compares PCCs; the baseline
        // does not. Both engines select through the same routine.
        for (const bool dynamic_pcc : {false, true}) {
            for (const bool accelerated : {false, true}) {
                SmConfig cfg = dynamic_pcc ? SmConfig::cheri()
                                           : SmConfig::baseline();
                cfg.numWarps = 1;
                cfg.numLanes = n;
                cfg.hostFastPath = accelerated;
                MainMemory dram;
                MemShard mem(dram);
                Sm sm(cfg, mem);
                Assembler a;
                a.emit(Op::SIMT_HALT, 0, 0, 0);
                sm.loadProgram(a.finalize());
                sm.launch(0, 1);
                for (unsigned trial = 0; trial < 1000; ++trial) {
                    // A regular warp shares (nest, pc, pcc) on every
                    // lane; a divergent one draws them per lane.
                    const bool regular = trial % 2 == 0;
                    const uint32_t nest0 = rng() % 3;
                    const uint32_t pc0 = 4 * (rng() % 4);
                    LaneModel w;
                    for (unsigned lane = 0; lane < n; ++lane) {
                        w.nest[lane] = regular ? nest0 : rng() % 3;
                        w.pc[lane] = regular ? pc0 : 4 * (rng() % 4);
                        w.pcc[lane] = regular || rng() % 4 ? pcc_a : pcc_b;
                    }
                    if (rng() % 2)
                        w.halted = static_cast<LaneMask>(rng()) & lowLanes(n);
                    if (w.halted == lowLanes(n))
                        w.halted &= ~LaneMask{1}; // keep a lane live
                    seedWarp(sm, 0, w, n);
                    SmTestAccess::warp(sm, 0).pccUniform = regular;

                    const NaiveSelection want =
                        naiveSelect(w, n, dynamic_pcc);
                    unsigned num_active = 0;
                    bool fully_active = false;
                    const int leader = SmTestAccess::selectActive(
                        sm, 0, num_active, fully_active);
                    SCOPED_TRACE(testing::Message()
                                 << "lanes " << n << " dynamic_pcc "
                                 << dynamic_pcc << " accelerated "
                                 << accelerated << " trial " << trial);
                    ASSERT_EQ(leader, want.leader);
                    ASSERT_EQ(SmTestAccess::active(sm), want.active);
                    ASSERT_EQ(num_active, want.numActive);
                    ASSERT_EQ(fully_active, want.fullyActive);
                }
            }
        }
    }
}

/** The groups of @p w are a canonical form of its live lanes' keys:
 *  non-empty, disjoint, covering exactly the live lanes, and strictly
 *  ordered by (deepest nest, lowest pc), so no two share a key. */
template <typename Warp>
void
expectCanonicalGroups(const Warp &w, unsigned n)
{
    LaneMask seen = 0;
    for (unsigned i = 0; i < w.numGroups; ++i) {
        const auto &g = w.groups[i];
        ASSERT_NE(g.lanes, 0u) << "group " << i;
        ASSERT_EQ(g.lanes & seen, 0u) << "group " << i;
        seen |= g.lanes;
        if (i > 0) {
            const auto &p = w.groups[i - 1];
            ASSERT_TRUE(p.nest > g.nest || (p.nest == g.nest && p.pc < g.pc))
                << "groups " << i - 1 << " and " << i << " out of order";
        }
    }
    ASSERT_EQ(seen, lowLanes(n) & ~w.halted);
}

TEST(LaneGroupsProperty, TransitionsMatchPerLaneModel)
{
    // A random program over 64 slots -- branch splits on per-lane
    // operands, SIMT_PUSH/POP, JAL, JALR to scattered per-lane targets,
    // halts, software traps and barriers -- stepped through the SM while
    // a per-lane (pc, nest) model applies the paper's rules to the lanes
    // naiveSelect issues. Runs start from random divergent states seeded
    // through the restore-time rebuild, deep enough that no POP reaches
    // nest 0; a pc past the program traps the lanes at fetch.
    constexpr unsigned kSlots = 64;
    std::mt19937 rng(2025);
    for (const unsigned n : {1u, 7u, 32u}) {
        for (const bool dynamic_pcc : {false, true}) {
            SmConfig cfg =
                dynamic_pcc ? SmConfig::cheri() : SmConfig::cheriOptimised();
            cfg.numWarps = 1;
            cfg.numLanes = n;
            cfg.stackCacheLineBytes = 64 * n; // a whole number per lane
            MainMemory dram;
            MemShard mem(dram);
            Sm sm(cfg, mem);

            Assembler a;
            std::vector<kc::Label> at(kSlots);
            for (auto &l : at)
                l = a.newLabel();
            std::vector<Op> ops(kSlots);
            std::vector<unsigned> target(kSlots);
            for (unsigned k = 0; k < kSlots; ++k) {
                a.place(at[k]);
                static constexpr Op kPool[] = {
                    Op::BLT,       Op::BNE,      Op::BEQ,      Op::BGEU,
                    Op::BLT,       Op::BNE,      Op::JAL,      Op::JALR,
                    Op::JALR,      Op::SIMT_PUSH, Op::SIMT_PUSH, Op::SIMT_POP,
                    Op::SIMT_POP,  Op::SIMT_POP, Op::ADDI,     Op::ADDI,
                    Op::SIMT_BARRIER, Op::SIMT_HALT, Op::SIMT_TRAP};
                ops[k] = kPool[rng() % std::size(kPool)];
                target[k] = rng() % kSlots;
                switch (ops[k]) {
                  case Op::BLT: case Op::BNE: case Op::BEQ: case Op::BGEU:
                    a.emitBranch(ops[k], 1, 2, at[target[k]]);
                    break;
                  case Op::JAL:
                    a.emitJump(0, at[target[k]]);
                    break;
                  case Op::JALR:
                    a.emitI(Op::JALR, 0, 5, 0);
                    break;
                  case Op::ADDI:
                    a.emitI(Op::ADDI, 10, 10, 1);
                    break;
                  default:
                    a.emit(ops[k], 0, 0, 0);
                    break;
                }
            }
            sm.loadProgram(a.finalize());

            for (unsigned trial = 0; trial < 150; ++trial) {
                sm.launch(0, 1);
                auto &w = SmTestAccess::warp(sm, 0);
                const cap::CapPipe code_cap = w.pcc[0];
                LaneModel m;
                m.pcc = w.pcc;
                const unsigned starts = 1 + rng() % 4;
                for (unsigned lane = 0; lane < n; ++lane) {
                    m.pc[lane] = 4 * (rng() % starts);
                    m.nest[lane] = 1000 + rng() % 2;
                }
                if (rng() % 4 == 0)
                    m.halted = static_cast<LaneMask>(rng()) & lowLanes(n) &
                               ~LaneMask{1};
                seedWarp(sm, 0, m, n);
                ASSERT_NO_FATAL_FAILURE(expectCanonicalGroups(w, n));

                RfAccess acc;
                LaneArray<uint32_t> x1{}, x2{}, x5{};
                for (unsigned step = 0; step < 120 && !w.done(); ++step) {
                    // Fresh operands: per-lane or uniform branch inputs,
                    // and jump targets drawn from a few slots.
                    const bool uniform = rng() % 3 == 0;
                    uint32_t jt[3];
                    for (uint32_t &t : jt)
                        t = 4 * (rng() % kSlots);
                    for (unsigned lane = 0; lane < kMaxLanes; ++lane) {
                        x1[lane] = uniform ? x1[0] : rng() % 4;
                        x2[lane] = rng() % 4;
                        x5[lane] = uniform ? jt[0] : jt[rng() % 3];
                    }
                    sm.regfile().writeData(0, 1, x1, ~LaneMask{0}, acc);
                    sm.regfile().writeData(0, 2, x2, ~LaneMask{0}, acc);
                    sm.regfile().writeData(0, 5, x5, ~LaneMask{0}, acc);
                    LaneArray<CapMeta> x5m;
                    x5m.fill(CapMeta{
                        static_cast<uint32_t>(cap::toMem(code_cap).bits >> 32),
                        true});
                    sm.regfile().writeMeta(0, 5, x5m, ~LaneMask{0}, acc);

                    const NaiveSelection want = naiveSelect(m, n, dynamic_pcc);
                    unsigned num_active = 0;
                    bool fully_active = false;
                    const int leader = SmTestAccess::selectActive(
                        sm, 0, num_active, fully_active);
                    SCOPED_TRACE(testing::Message()
                                 << "lanes " << n << " dynamic_pcc "
                                 << dynamic_pcc << " trial " << trial
                                 << " step " << step);
                    ASSERT_EQ(leader, want.leader);
                    ASSERT_EQ(SmTestAccess::active(sm), want.active);
                    ASSERT_EQ(num_active, want.numActive);
                    ASSERT_EQ(fully_active, want.fullyActive);

                    // The model's step over the issuing lanes.
                    const uint32_t pc = m.pc[static_cast<unsigned>(leader)];
                    const unsigned k = pc / 4;
                    forLanes(want.active, [&](unsigned lane) {
                        const LaneMask bit = LaneMask{1} << lane;
                        if (k >= kSlots) {
                            m.halted |= bit; // fetch past the program
                            return;
                        }
                        const uint32_t taken = 4 * target[k];
                        switch (ops[k]) {
                          case Op::BLT:
                            m.pc[lane] = int32_t(x1[lane]) < int32_t(x2[lane])
                                             ? taken : pc + 4;
                            break;
                          case Op::BNE:
                            m.pc[lane] = x1[lane] != x2[lane] ? taken : pc + 4;
                            break;
                          case Op::BEQ:
                            m.pc[lane] = x1[lane] == x2[lane] ? taken : pc + 4;
                            break;
                          case Op::BGEU:
                            m.pc[lane] = x1[lane] >= x2[lane] ? taken : pc + 4;
                            break;
                          case Op::JAL:
                            m.pc[lane] = taken;
                            break;
                          case Op::JALR:
                            m.pc[lane] = x5[lane] & ~1u;
                            break;
                          case Op::SIMT_PUSH:
                            ++m.nest[lane];
                            m.pc[lane] = pc + 4;
                            break;
                          case Op::SIMT_POP:
                            --m.nest[lane];
                            m.pc[lane] = pc + 4;
                            break;
                          case Op::SIMT_HALT:
                          case Op::SIMT_TRAP:
                            m.halted |= bit;
                            break;
                          default:
                            m.pc[lane] = pc + 4;
                            break;
                        }
                    });
                    SmTestAccess::executeWarp(sm, 0);
                    m.pcc = w.pcc; // JALR's new PCCs: not group state

                    ASSERT_EQ(w.halted, m.halted);
                    ASSERT_EQ(w.liveThreads,
                              n - static_cast<unsigned>(
                                      std::popcount(m.halted)));
                    ASSERT_NO_FATAL_FAILURE(expectCanonicalGroups(w, n));
                    LaneArray<uint32_t> pcs, nests;
                    w.laneKeys(pcs, nests);
                    for (unsigned lane = 0; lane < n; ++lane) {
                        ASSERT_EQ(pcs[lane], m.pc[lane]) << "lane " << lane;
                        ASSERT_EQ(nests[lane], m.nest[lane]) << "lane " << lane;
                    }
                    // Rebuilding from the written-out keys (a checkpoint
                    // restore) gives the same groups.
                    auto rebuilt = w;
                    rebuilt.setLaneKeys(pcs, nests, lowLanes(n) & ~w.halted);
                    ASSERT_EQ(rebuilt.numGroups, w.numGroups);
                    for (unsigned i = 0; i < w.numGroups; ++i) {
                        ASSERT_EQ(rebuilt.groups[i].lanes, w.groups[i].lanes);
                        ASSERT_EQ(rebuilt.groups[i].pc, w.groups[i].pc);
                        ASSERT_EQ(rebuilt.groups[i].nest, w.groups[i].nest);
                    }
                }
            }
        }
    }
}

TEST(SmTrap, CspecialrwBadIndexTrapsInsteadOfCorrupting)
{
    // A guest CSPECIALRW naming a nonexistent special register (the
    // 5-bit immediate space is larger than the implemented file) must
    // trap the lane, not index past the register array.
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, 17); // only 0..NUM_SCRS-1 exist
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    MainMemory dram;
    MemShard mem(dram);
    Sm sm(SmConfig::cheriOptimised(), mem);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    ASSERT_TRUE(sm.run());
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, TrapKind::BadScrIndex);
}

} // namespace
