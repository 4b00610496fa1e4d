/**
 * @file
 * CHERI security-property tests (the paper's threat model, Section 4.2):
 * out-of-bounds accesses on global and shared memory, permission
 * violations after CAndPerm, sealed-capability misuse, sentry-based
 * call/return, and inter-block isolation of scratchpad partitions.
 * Where the baseline configuration silently misbehaves, the test pins
 * that down too (the motivation of Figure 1).
 */

#include <gtest/gtest.h>

#include "kc/asm.hpp"
#include "kc/kernel.hpp"
#include "nocl/nocl.hpp"
#include "simt/sm.hpp"

namespace
{

using isa::Op;
using kc::Assembler;
using kc::Kb;
using kc::Scalar;
using nocl::Arg;
using nocl::Buffer;
using nocl::Device;
using Mode = kc::CompileOptions::Mode;

simt::SmConfig
tinyCheri()
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    cfg.numLanes = 1;
    return cfg;
}

/** Run a hand-assembled purecap program on a 1-thread machine. */
simt::Sm &
runAsm(simt::Sm &sm, Assembler &a)
{
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 1);
    EXPECT_TRUE(sm.run());
    return sm;
}

TEST(Safety, AndPermDroppingStoreMakesStoresTrap)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0,
            cap::PERM_GLOBAL | cap::PERM_LOAD); // read-only mask
    a.emitR(Op::CANDPERM, 7, 7, 8);
    a.emitI(Op::LW, 9, 7, 0);      // load is still allowed
    a.emit(Op::SW, 0, 7, 9, 0);    // store must trap
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(tinyCheri(), mem);
    runAsm(sm, a);
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, simt::TrapKind::StorePermViolation);
}

TEST(Safety, SealedCapabilityCannotBeDereferenced)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitR(Op::CSEALENTRY, 7, 7, 0);
    a.emitI(Op::LW, 9, 7, 0); // dereferencing a sealed cap traps
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(tinyCheri(), mem);
    runAsm(sm, a);
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, simt::TrapKind::SealViolation);
}

TEST(Safety, SealedCapabilityResistsMutation)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitR(Op::CSEALENTRY, 7, 7, 0);
    a.emitI(Op::CINCOFFSETIMM, 8, 7, 4); // mutating a sentry clears tag
    a.emitR(Op::CGETTAG, 9, 8, 0);
    // Store the observed tag via a healthy capability for inspection.
    a.emitR(Op::CSETADDR, 10, 5, 6);
    a.emit(Op::SW, 0, 10, 9, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(tinyCheri(), mem);
    runAsm(sm, a);
    EXPECT_FALSE(sm.trapped()) << sm.firstTrap().kind;
    EXPECT_EQ(mem.load32(simt::kDramBase), 0u); // tag cleared
}

TEST(Safety, SentryCallAndReturn)
{
    // A JALR through a sentry capability unseals it into the PCC and
    // seals the return capability; returning through x1 works and the
    // callee's code runs.
    Assembler a;
    const auto l_func = a.newLabel();
    const auto l_done = a.newLabel();
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6); // c7: data cap for results
    // Build a sentry to l_func from the PCC.
    a.emitI(Op::CSPECIALRW, 8, 0, isa::SCR_PCC);
    a.emitI(Op::ADDI, 9, 0, 9 * 4); // address of l_func (instr index 9)
    a.emitR(Op::CSETADDR, 8, 8, 9);
    a.emitR(Op::CSEALENTRY, 8, 8, 0);
    a.emitI(Op::JALR, 1, 8, 0); // call through the sentry
    a.emitJump(0, l_done);      // (instr 8) continue after return
    a.place(l_func);            // instr 9
    a.emitI(Op::ADDI, 10, 0, 99);
    a.emit(Op::SW, 0, 7, 10, 0); // mark that the callee ran
    a.emitI(Op::JALR, 0, 1, 0);  // return through the sealed ra
    a.place(l_done);
    a.emitI(Op::ADDI, 10, 0, 42);
    a.emitI(Op::CINCOFFSETIMM, 7, 7, 4);
    a.emit(Op::SW, 0, 7, 10, 0); // mark that we returned
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(tinyCheri(), mem);
    runAsm(sm, a);
    EXPECT_FALSE(sm.trapped()) << sm.firstTrap().kind;
    EXPECT_EQ(mem.load32(simt::kDramBase), 99u);
    EXPECT_EQ(mem.load32(simt::kDramBase + 4), 42u);
}

TEST(Safety, JumpThroughDataCapabilityTraps)
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, cap::PERM_GLOBAL | cap::PERM_LOAD |
                                cap::PERM_STORE);
    a.emitR(Op::CANDPERM, 7, 7, 8); // strip EXECUTE
    a.emitI(Op::JALR, 0, 7, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);

    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(tinyCheri(), mem);
    runAsm(sm, a);
    EXPECT_TRUE(sm.trapped());
    EXPECT_EQ(sm.firstTrap().kind, simt::TrapKind::JumpPermViolation);
}

// ---- kernel-level shared-memory safety ----

/** Writes one element past the end of its shared array. */
struct SharedOverflowKernel : kc::KernelDef
{
    std::string name() const override { return "SharedOverflow"; }

    void
    build(Kb &b) override
    {
        auto out = b.paramPtr("out", Scalar::I32);
        auto buf = b.shared("buf", Scalar::I32, 64);
        b.if_(b.threadIdx() == b.c(0), [&] {
            buf[64] = b.c(0x41414141); // one past the end
        });
        b.barrier();
        out[b.threadIdx()] = buf[b.threadIdx()];
    }
};

TEST(Safety, SharedArrayOverflowTrapsUnderCheri)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 2;
    Device dev(cfg, Mode::Purecap);
    Buffer bo = dev.alloc(64 * 4);
    SharedOverflowKernel k;
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    const nocl::RunResult r = dev.launch(k, lc, {Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.trapped);
    EXPECT_EQ(r.trapKind, simt::TrapKind::BoundsViolation);
}

TEST(Safety, SharedArrayOverflowCorruptsNeighbourUnderBaseline)
{
    // With two block slots, block 0's overflow lands in block 1's
    // scratchpad partition: silent cross-block corruption, the kind of
    // bug CHERI's per-slot shared-array capabilities rule out.
    simt::SmConfig cfg = simt::SmConfig::baseline();
    cfg.numWarps = 2; // two 32-thread block slots
    Device dev(cfg, Mode::Baseline);
    Buffer bo = dev.alloc(64 * 4);
    SharedOverflowKernel k;
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    lc.gridDim = 2;
    const nocl::RunResult r = dev.launch(k, lc, {Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped);
    // Block 0 wrote 0x41414141 into the word just past its partition,
    // which is element 0 of block 1's partition.
    EXPECT_EQ(dev.sm().scratchpad().load32(simt::kSharedBase + 64 * 4),
              0x41414141u);
}

TEST(Safety, AtomicOutOfBoundsTrapsUnderCheri)
{
    struct K : kc::KernelDef
    {
        std::string name() const override { return "AtomicOob"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto out = b.paramPtr("out", Scalar::I32);
            b.if_(b.threadIdx() == b.c(0), [&] {
                b.atomicAdd(b.index(out, len), b.c(1)); // out[len]: OOB
            });
        }
    } k;
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    Device dev(cfg, Mode::Purecap);
    Buffer bo = dev.alloc(64 * 4);
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    const nocl::RunResult r =
        dev.launch(k, lc, {Arg::integer(64), Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.trapped);
    EXPECT_EQ(r.trapKind, simt::TrapKind::BoundsViolation);
}

TEST(Safety, NegativeIndexTrapsUnderCheriAndSoftBounds)
{
    struct K : kc::KernelDef
    {
        std::string name() const override { return "NegIdx"; }
        void
        build(Kb &b) override
        {
            auto in = b.paramPtr("in", Scalar::I32);
            auto out = b.paramPtr("out", Scalar::I32);
            b.if_(b.threadIdx() == b.c(0), [&] {
                out[0] = in[b.c(-1)]; // buffer underrun
            });
        }
    };

    for (Mode mode : {Mode::Purecap, Mode::SoftBounds}) {
        simt::SmConfig cfg = mode == Mode::Purecap
                                 ? simt::SmConfig::cheriOptimised()
                                 : simt::SmConfig::baseline();
        cfg.numWarps = 1;
        Device dev(cfg, mode);
        Buffer bi = dev.alloc(64 * 4);
        Buffer bo = dev.alloc(64 * 4);
        K k;
        nocl::LaunchConfig lc;
        lc.blockDim = 32;
        const nocl::RunResult r =
            dev.launch(k, lc, {Arg::buffer(bi), Arg::buffer(bo)});
        ASSERT_TRUE(r.completed);
        EXPECT_TRUE(r.trapped) << static_cast<int>(mode);
    }
}

TEST(Safety, TrapIsolatesOnlyOffendingThreads)
{
    // One lane traps; the rest of the warp completes its work.
    struct K : kc::KernelDef
    {
        std::string name() const override { return "PartialTrap"; }
        void
        build(Kb &b) override
        {
            auto len = b.paramI32("len");
            auto out = b.paramPtr("out", Scalar::I32);
            auto idx = b.var(b.threadIdx());
            b.if_(b.threadIdx() == b.c(5), [&] {
                idx = len; // lane 5 will access out[len]: OOB
            });
            b.store(b.index(out, idx), b.threadIdx() + 1);
        }
    } k;
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    Device dev(cfg, Mode::Purecap);
    Buffer bo = dev.alloc(32 * 4);
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    const nocl::RunResult r =
        dev.launch(k, lc, {Arg::integer(32), Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.trapped);
    EXPECT_EQ(r.stats.get("cheri_traps"), 1u);

    const std::vector<uint32_t> out = dev.read32(bo);
    for (unsigned i = 0; i < 32; ++i) {
        if (i == 5)
            EXPECT_EQ(out[i], 0u); // the trapped lane wrote nothing
        else
            EXPECT_EQ(out[i], i + 1) << i;
    }
}

} // namespace
