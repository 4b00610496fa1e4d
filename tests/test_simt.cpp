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

#include <vector>

#include "kc/asm.hpp"
#include "simt/mem.hpp"
#include "simt/regfile.hpp"
#include "simt/scratchpad.hpp"
#include "simt/sm.hpp"

namespace
{

using namespace simt;
using isa::Op;
using kc::Assembler;

// ---------------------------------------------------------------- Coalescer

TEST(Coalescer, UnitStrideWarpsCoalesce)
{
    Coalescer c(32);
    std::vector<uint32_t> addrs(32);
    simt::LaneMask active(32, true);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kDramBase + 4 * i; // 128 contiguous bytes
    const auto txns = c.coalesce(addrs, active, 4);
    EXPECT_EQ(txns.size(), 4u); // 128 / 32
}

TEST(Coalescer, UniformAddressIsOneTransaction)
{
    Coalescer c(32);
    std::vector<uint32_t> addrs(32, kDramBase + 64);
    simt::LaneMask active(32, true);
    EXPECT_EQ(c.coalesce(addrs, active, 4).size(), 1u);
}

TEST(Coalescer, ScatteredAddressesDoNotCoalesce)
{
    Coalescer c(32);
    std::vector<uint32_t> addrs(32);
    simt::LaneMask active(32, true);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kDramBase + 256 * i;
    EXPECT_EQ(c.coalesce(addrs, active, 4).size(), 32u);
}

TEST(Coalescer, InactiveLanesIgnored)
{
    Coalescer c(32);
    std::vector<uint32_t> addrs(32, 0xdeadbeef); // garbage in inactive lanes
    simt::LaneMask active(32, false);
    addrs[5] = kDramBase;
    active[5] = true;
    const auto txns = c.coalesce(addrs, active, 4);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].segment, kDramBase);
}

TEST(Coalescer, StraddlingAccessTouchesTwoSegments)
{
    Coalescer c(32);
    std::vector<uint32_t> addrs(1, kDramBase + 28);
    simt::LaneMask active(1, true);
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
    std::vector<uint32_t> addrs(32);
    simt::LaneMask active(32, true);
    for (unsigned i = 0; i < 32; ++i)
        addrs[i] = kSharedBase + 4 * i; // one word per bank
    EXPECT_EQ(sp.conflictCycles(addrs, active), 1u);
}

TEST(Scratchpad, BroadcastSameWord)
{
    SmConfig cfg;
    Scratchpad sp(cfg);
    std::vector<uint32_t> addrs(32, kSharedBase + 8);
    simt::LaneMask active(32, true);
    EXPECT_EQ(sp.conflictCycles(addrs, active), 1u);
}

TEST(Scratchpad, StrideTwoConflicts)
{
    SmConfig cfg;
    Scratchpad sp(cfg);
    std::vector<uint32_t> addrs(32);
    simt::LaneMask active(32, true);
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

    simt::LaneMask mask(8, true);
    std::vector<uint32_t> uniform(8, 7);
    rf.writeData(0, 1, uniform, mask, acc);
    std::vector<uint32_t> affine(8);
    for (unsigned i = 0; i < 8; ++i)
        affine[i] = 100 + 4 * i;
    rf.writeData(0, 2, affine, mask, acc);

    EXPECT_EQ(rf.dataVectorsInVrf(), 0u);
    std::vector<uint32_t> out;
    rf.readData(0, 1, out, acc);
    EXPECT_EQ(out, uniform);
    rf.readData(0, 2, out, acc);
    EXPECT_EQ(out, affine);
    EXPECT_FALSE(acc.dataFromVrf);
}

TEST_F(RegFileTest, GeneralVectorUsesVrf)
{
    SmConfig cfg = smallCfg(false, false, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    simt::LaneMask mask(8, true);
    std::vector<uint32_t> vals = {3, 1, 4, 1, 5, 9, 2, 6};
    rf.writeData(0, 5, vals, mask, acc);
    EXPECT_EQ(rf.dataVectorsInVrf(), 1u);

    std::vector<uint32_t> out;
    RfAccess racc;
    rf.readData(0, 5, out, racc);
    EXPECT_EQ(out, vals);
    EXPECT_TRUE(racc.dataFromVrf);

    // Overwriting with a uniform vector releases the VRF slot.
    std::vector<uint32_t> uniform(8, 0);
    rf.writeData(0, 5, uniform, mask, acc);
    EXPECT_EQ(rf.dataVectorsInVrf(), 0u);
}

TEST_F(RegFileTest, PartialWriteMergesWithOldValue)
{
    SmConfig cfg = smallCfg(false, false, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    simt::LaneMask full(8, true);
    std::vector<uint32_t> uniform(8, 10);
    rf.writeData(0, 3, uniform, full, acc);

    simt::LaneMask low(8, false);
    for (unsigned i = 0; i < 4; ++i)
        low[i] = true;
    std::vector<uint32_t> twenty(8, 20);
    rf.writeData(0, 3, twenty, low, acc);

    std::vector<uint32_t> out;
    rf.readData(0, 3, out, acc);
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
    simt::LaneMask mask(8, true);

    std::vector<std::vector<uint32_t>> vecs;
    RfAccess acc;
    for (unsigned r = 1; r <= 4; ++r) {
        std::vector<uint32_t> v(8);
        for (unsigned i = 0; i < 8; ++i)
            v[i] = r * 1000 + i * i; // non-affine
        vecs.push_back(v);
        rf.writeData(0, r, v, mask, acc);
    }
    EXPECT_GE(acc.spills, 2u);
    EXPECT_GT(acc.dramBytes, 0u);

    // All four vectors read back correctly despite spills.
    for (unsigned r = 1; r <= 4; ++r) {
        std::vector<uint32_t> out;
        RfAccess racc;
        rf.readData(0, r, out, racc);
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
    simt::LaneMask mask(8, true);
    std::vector<CapMeta> metas(8, CapMeta{0xabcd0123, true});
    rf.writeMeta(0, 4, metas, mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 0u);

    std::vector<CapMeta> out;
    rf.readMeta(0, 4, out, acc);
    EXPECT_EQ(out, metas);
}

TEST_F(RegFileTest, MetaNvoHoldsPartialNullInSrf)
{
    SmConfig cfg = smallCfg(true, true, true);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    simt::LaneMask mask(8, true);

    // Half the lanes hold a capability, half hold integers (null meta):
    // with NVO this stays out of the VRF.
    std::vector<CapMeta> metas(8);
    for (unsigned i = 0; i < 8; ++i)
        metas[i] = i % 2 ? CapMeta{0x1234, true} : CapMeta{};
    rf.writeMeta(0, 6, metas, mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 0u);
    EXPECT_GT(stats.get("meta_nvo_hits"), 0u);

    std::vector<CapMeta> out;
    rf.readMeta(0, 6, out, acc);
    EXPECT_EQ(out, metas);
}

TEST_F(RegFileTest, MetaWithoutNvoGoesToVrf)
{
    SmConfig cfg = smallCfg(true, true, false);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    simt::LaneMask mask(8, true);
    std::vector<CapMeta> metas(8);
    for (unsigned i = 0; i < 8; ++i)
        metas[i] = i % 2 ? CapMeta{0x1234, true} : CapMeta{};
    rf.writeMeta(0, 6, metas, mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 1u);
}

TEST_F(RegFileTest, MetaTwoDistinctCapsDefeatsNvo)
{
    SmConfig cfg = smallCfg(true, true, true);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    simt::LaneMask mask(8, true);
    std::vector<CapMeta> metas(8);
    for (unsigned i = 0; i < 8; ++i)
        metas[i] = CapMeta{i % 2 ? 0x1111u : 0x2222u, true};
    rf.writeMeta(0, 7, metas, mask, acc);
    EXPECT_EQ(rf.metaVectorsInVrf(), 1u);
}

TEST_F(RegFileTest, CapRegMaskTracksCapabilityRegisters)
{
    SmConfig cfg = smallCfg(true, true, true);
    support::StatSet stats;
    RegFileSystem rf(cfg, stats);
    RfAccess acc;
    simt::LaneMask mask(8, true);
    std::vector<CapMeta> caps(8, CapMeta{0x99, true});
    std::vector<CapMeta> nulls(8);
    rf.writeMeta(0, 3, caps, mask, acc);
    rf.writeMeta(0, 9, nulls, mask, acc);
    rf.writeMeta(1, 12, caps, mask, acc);
    EXPECT_EQ(rf.capRegMask(), (1u << 3) | (1u << 12));
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
