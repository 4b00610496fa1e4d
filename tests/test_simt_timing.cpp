/**
 * @file
 * Timing-model properties of the SM: barrel-scheduler throughput, SFU
 * serialisation, divide latency, scratchpad conflict serialisation,
 * two-flit capability access occupancy, stack-cache hit/miss behaviour,
 * and DRAM bandwidth saturation. These pin down the microarchitectural
 * costs that the paper's evaluation is built from.
 */

#include <gtest/gtest.h>

#include "kc/asm.hpp"
#include "simt/sm.hpp"

namespace
{

using namespace simt;
using isa::Op;
using kc::Assembler;

/** Run a program to completion and return elapsed cycles. */
uint64_t
runCycles(Sm &sm, const std::vector<uint32_t> &prog,
          unsigned warps_per_block = 1)
{
    sm.loadProgram(prog);
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, warps_per_block);
    EXPECT_TRUE(sm.run());
    return sm.cycles();
}

/** N back-to-back ALU instructions then halt. */
std::vector<uint32_t>
aluProgram(unsigned n)
{
    Assembler a;
    for (unsigned i = 0; i < n; ++i)
        a.emitI(Op::ADDI, 5, 5, 1);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    return a.finalize();
}

TEST(SmTiming, BarrelSchedulerReachesFullThroughput)
{
    // With many warps, one instruction issues almost every cycle.
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 16;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    const unsigned n = 200;
    const uint64_t cycles = runCycles(sm, aluProgram(n));
    const uint64_t instrs = sm.stats().get("instrs");
    EXPECT_EQ(instrs, (n + 1) * cfg.numWarps);
    // IPC close to 1.
    EXPECT_LT(cycles, instrs + 50);
    EXPECT_GE(cycles, instrs);
}

TEST(SmTiming, SingleWarpPaysPipelineDepth)
{
    // One warp with one instruction in flight issues every
    // pipelineDepth cycles.
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 1;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    const unsigned n = 100;
    const uint64_t cycles = runCycles(sm, aluProgram(n));
    EXPECT_NEAR(static_cast<double>(cycles),
                static_cast<double>(n) * cfg.pipelineDepth,
                2.0 * cfg.pipelineDepth);
}

TEST(SmTiming, DividerLatencyVisible)
{
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 1;

    Assembler div_prog;
    div_prog.emitI(Op::ADDI, 6, 0, 7);
    for (int i = 0; i < 50; ++i)
        div_prog.emitR(Op::DIVU, 5, 5, 6);
    div_prog.emit(Op::SIMT_HALT, 0, 0, 0);

    MainMemory sm1_dram;
    MemShard sm1_mem(sm1_dram);
    Sm sm1(cfg, sm1_mem);
    const uint64_t div_cycles = runCycles(sm1, div_prog.finalize());
    MainMemory sm2_dram;
    MemShard sm2_mem(sm2_dram);
    Sm sm2(cfg, sm2_mem);
    const uint64_t alu_cycles = runCycles(sm2, aluProgram(51));

    // Each divide costs divLatency extra cycles for a lone warp.
    EXPECT_NEAR(static_cast<double>(div_cycles - alu_cycles),
                50.0 * cfg.divLatency, 60.0);
}

TEST(SmTiming, SfuSerialisesOverActiveLanes)
{
    // FDIV with all 32 lanes active vs 1 lane active: the SFU services
    // one lane per cycle, so the full warp takes ~31 cycles longer.
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 1;

    Assembler full;
    for (int i = 0; i < 20; ++i)
        full.emitR(Op::FDIV_S, 5, 5, 6);
    full.emit(Op::SIMT_HALT, 0, 0, 0);

    Assembler lone;
    {
        // Halt every lane except lane 0 first.
        const auto l_work = lone.newLabel();
        lone.emitI(Op::CSRRS, 7, 0, isa::CSR_LANEID);
        lone.emit(Op::SIMT_PUSH, 0, 0, 0);
        lone.emitBranch(Op::BEQ, 7, 0, l_work);
        lone.emit(Op::SIMT_HALT, 0, 0, 0);
        lone.place(l_work);
        lone.emit(Op::SIMT_POP, 0, 0, 0);
        for (int i = 0; i < 20; ++i)
            lone.emitR(Op::FDIV_S, 5, 5, 6);
        lone.emit(Op::SIMT_HALT, 0, 0, 0);
    }

    MainMemory sm1_dram;
    MemShard sm1_mem(sm1_dram);
    Sm sm1(cfg, sm1_mem);
    const uint64_t full_cycles = runCycles(sm1, full.finalize());
    MainMemory sm2_dram;
    MemShard sm2_mem(sm2_dram);
    Sm sm2(cfg, sm2_mem);
    const uint64_t lone_cycles = runCycles(sm2, lone.finalize());

    EXPECT_GT(full_cycles, lone_cycles + 20 * (cfg.numLanes - 1) / 2);
    EXPECT_EQ(sm1.stats().get("sfu_fp_ops"), 20u * cfg.numLanes);
    EXPECT_EQ(sm2.stats().get("sfu_fp_ops"), 20u);
}

TEST(SmTiming, ScratchpadConflictsSerialise)
{
    // Stride-32 word accesses all hit bank 0: 32-way serialisation.
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 1;

    const auto make = [&](unsigned stride_shift) {
        Assembler a;
        a.emitI(Op::CSRRS, 5, 0, isa::CSR_LANEID);
        a.emitI(Op::SLLI, 6, 5, static_cast<int32_t>(stride_shift));
        a.emitI(Op::LUI, 7, 0, static_cast<int32_t>(kSharedBase));
        a.emitR(Op::ADD, 7, 7, 6);
        for (int i = 0; i < 50; ++i)
            a.emitI(Op::LW, 8, 7, 0);
        a.emit(Op::SIMT_HALT, 0, 0, 0);
        return a.finalize();
    };

    MainMemory conflict_free_dram;
    MemShard conflict_free_mem(conflict_free_dram);
    Sm conflict_free(cfg, conflict_free_mem);
    const uint64_t fast = runCycles(conflict_free, make(2)); // stride 1
    MainMemory conflicted_dram;
    MemShard conflicted_mem(conflicted_dram);
    Sm conflicted(cfg, conflicted_mem);
    const uint64_t slow = runCycles(conflicted, make(7)); // stride 32

    // 50 accesses x ~31 extra serialisation cycles.
    EXPECT_GT(slow, fast + 50 * 25);
}

TEST(SmTiming, CapabilityAccessesAreTwoFlit)
{
    // CLC occupies the memory path an extra issue slot relative to LW.
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 1;

    const auto make = [&](bool cap) {
        Assembler a;
        a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
        a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(kDramBase));
        a.emitR(Op::CSETADDR, 7, 5, 6);
        for (int i = 0; i < 40; ++i)
            a.emitI(cap ? Op::CLC : Op::LW, 8, 7, 0);
        a.emit(Op::SIMT_HALT, 0, 0, 0);
        return a.finalize();
    };

    MainMemory sm_lw_dram;
    MemShard sm_lw_mem(sm_lw_dram);
    Sm sm_lw(cfg, sm_lw_mem);
    const uint64_t lw_slots = [&] {
        runCycles(sm_lw, make(false));
        return sm_lw.stats().get("issue_slots");
    }();
    MainMemory sm_clc_dram;
    MemShard sm_clc_mem(sm_clc_dram);
    Sm sm_clc(cfg, sm_clc_mem);
    const uint64_t clc_slots = [&] {
        runCycles(sm_clc, make(true));
        return sm_clc.stats().get("issue_slots");
    }();
    EXPECT_EQ(clc_slots, lw_slots + 40);
}

TEST(SmTiming, StackCacheAbsorbsRepeatedSlotTraffic)
{
    // Repeated stores to the same per-thread stack slot: one cold miss
    // per warp, then hits.
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 4;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);

    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::CSRRS, 6, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 6, 6, 9); // hartid * stackBytes(512)
    const uint32_t stack_base = cfg.stackRegionBase();
    a.emitI(Op::LUI, 7, 0,
            static_cast<int32_t>(stack_base & 0xfffff000u));
    a.emitI(Op::ADDI, 7, 7,
            static_cast<int32_t>(stack_base & 0xfffu));
    a.emitR(Op::ADD, 7, 7, 6);
    a.emitR(Op::CSETADDR, 8, 5, 7);
    for (int i = 0; i < 30; ++i)
        a.emit(Op::SW, 0, 8, 6, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    runCycles(sm, a.finalize());
    EXPECT_EQ(sm.stats().get("stack_cache_misses"), cfg.numWarps);
    EXPECT_EQ(sm.stats().get("stack_cache_hits"),
              (30 - 1) * cfg.numWarps);
}

TEST(SmTiming, DramBandwidthBoundsStreaming)
{
    // A pure streaming store loop cannot beat the DRAM channel rate.
    SmConfig cfg = SmConfig::baseline();
    cfg.numWarps = 16;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);

    Assembler a;
    a.emitI(Op::CSRRS, 5, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 6, 5, 2);
    a.emitI(Op::LUI, 7, 0, static_cast<int32_t>(kDramBase));
    a.emitR(Op::ADD, 7, 7, 6);
    a.emitI(Op::ADDI, 9, 0, 100); // iterations
    const auto l_head = a.newLabel();
    a.emit(Op::SIMT_PUSH, 0, 0, 0);
    a.place(l_head);
    a.emit(Op::SW, 0, 7, 5, 0);
    a.emitI(Op::CINCOFFSETIMM, 7, 7, 0); // harmless nop-like op
    a.emitI(Op::ADDI, 9, 9, -1);
    a.emitBranch(Op::BNE, 9, 0, l_head);
    a.emit(Op::SIMT_POP, 0, 0, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    // Baseline config does not decode CHERI ops? It does: the ISA is
    // shared; CIncOffsetImm with null metadata just produces an
    // untagged result, which is never dereferenced here.
    runCycles(sm, a.finalize());
    const uint64_t bytes = sm.stats().get("dram_bytes_written");
    // Channel moves cfg.dramBytesPerCycle per cycle at most.
    EXPECT_GE(sm.cycles(), bytes / cfg.dramBytesPerCycle);
}

TEST(SmTiming, DeterministicAcrossRuns)
{
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 8;
    uint64_t first = 0;
    for (int run = 0; run < 3; ++run) {
        MainMemory dram;
        MemShard mem(dram);
        Sm sm(cfg, mem);
        const uint64_t cycles = runCycles(sm, aluProgram(300));
        if (run == 0)
            first = cycles;
        else
            EXPECT_EQ(cycles, first);
    }
}

/**
 * Per-thread stack-slot store program: each thread stores to its own
 * stack at byte offsets 0 and 4, @p n times each (2n stores total).
 * Assumes the default 512-byte per-thread stack.
 */
std::vector<uint32_t>
stackSlotProgram(const SmConfig &cfg, unsigned n)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::CSRRS, 6, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 6, 6, 9); // hartid * stackBytesPerThread(512)
    const uint32_t stack_base = cfg.stackRegionBase();
    a.emitI(Op::LUI, 7, 0,
            static_cast<int32_t>(stack_base & 0xfffff000u));
    a.emitI(Op::ADDI, 7, 7,
            static_cast<int32_t>(stack_base & 0xfffu));
    a.emitR(Op::ADD, 7, 7, 6);
    a.emitR(Op::CSETADDR, 8, 5, 7);
    for (unsigned i = 0; i < n; ++i) {
        a.emit(Op::SW, 0, 8, 6, 0);
        a.emit(Op::SW, 0, 8, 6, 4);
    }
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    return a.finalize();
}

TEST(SmTiming, ZeroStackCacheLinesDisablesTheCache)
{
    // stackCacheLines == 0 means no stack cache at all: stack traffic
    // flows through the coalescer and the DRAM channel like any other
    // access, and no stack-cache statistics appear.
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.numWarps = 2;
    cfg.stackCacheLines = 0;
    MainMemory dram;
    MemShard mem(dram);
    Sm sm(cfg, mem);
    runCycles(sm, stackSlotProgram(cfg, 10));
    EXPECT_EQ(sm.stats().get("stack_cache_hits"), 0u);
    EXPECT_EQ(sm.stats().get("stack_cache_misses"), 0u);
    EXPECT_EQ(sm.stats().get("stack_warp_accesses"), 0u);
    EXPECT_EQ(sm.stats().get("stack_dram_bytes_read"), 0u);
    EXPECT_GT(sm.stats().get("dram_transactions"), 0u);
    EXPECT_GT(sm.stats().get("dram_bytes_written"), 0u);
}

TEST(SmTiming, StackCacheLineBytesSetsSlotGranularity)
{
    const unsigned n = 20;

    // Default 512-byte lines: each thread contributes a 16-byte
    // granule, so offsets 0 and 4 share one slot -- a single cold miss
    // per warp, every later store hits.
    SmConfig wide = SmConfig::cheriOptimised();
    wide.numWarps = 4;
    ASSERT_EQ(wide.stackCacheLineBytes, 512u);
    MainMemory sm_wide_dram;
    MemShard sm_wide_mem(sm_wide_dram);
    Sm sm_wide(wide, sm_wide_mem);
    runCycles(sm_wide, stackSlotProgram(wide, n));
    EXPECT_EQ(sm_wide.stats().get("stack_cache_misses"), wide.numWarps);
    EXPECT_EQ(sm_wide.stats().get("stack_cache_hits"),
              (2 * n - 1) * wide.numWarps);
    EXPECT_EQ(sm_wide.stats().get("stack_dram_bytes_read"),
              wide.numWarps * wide.stackCacheLineBytes);

    // 128-byte lines: a 4-byte granule, so offsets 0 and 4 are distinct
    // slots -- two cold misses per warp and smaller line fills.
    SmConfig narrow = wide;
    narrow.stackCacheLineBytes = 128;
    MainMemory sm_narrow_dram;
    MemShard sm_narrow_mem(sm_narrow_dram);
    Sm sm_narrow(narrow, sm_narrow_mem);
    runCycles(sm_narrow, stackSlotProgram(narrow, n));
    EXPECT_EQ(sm_narrow.stats().get("stack_cache_misses"),
              2 * narrow.numWarps);
    EXPECT_EQ(sm_narrow.stats().get("stack_cache_hits"),
              (2 * n - 2) * narrow.numWarps);
    EXPECT_EQ(sm_narrow.stats().get("stack_dram_bytes_read"),
              2 * narrow.numWarps * narrow.stackCacheLineBytes);
}

TEST(SmTimingDeath, UndersizedStackCacheLineIsFatal)
{
    // A line must cover at least one word per lane; 64 bytes across 32
    // lanes does not.
    SmConfig cfg = SmConfig::cheriOptimised();
    cfg.stackCacheLineBytes = 64;
    MainMemory dram;
    MemShard mem(dram);
    EXPECT_EXIT({ Sm sm(cfg, mem); }, testing::ExitedWithCode(1),
                "stackCacheLineBytes");
}

} // namespace
