/**
 * @file
 * Tests for the NoCL host runtime: device allocation (capability-aligned
 * alignment), data transfer helpers, argument-block marshalling, launch
 * geometry validation, multi-launch state isolation, the special
 * capability registers, and the shared-array capacity check that plain
 * and stepped launches share.
 */

#include <gtest/gtest.h>

#include "kc/kernel.hpp"
#include "nocl/nocl.hpp"

namespace
{

using kc::Kb;
using kc::Scalar;
using nocl::Arg;
using nocl::Buffer;
using nocl::Device;
using Mode = kc::CompileOptions::Mode;

simt::SmConfig
smallCheri()
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 4;
    return cfg;
}

simt::SmConfig
smallBase()
{
    simt::SmConfig cfg = simt::SmConfig::baseline();
    cfg.numWarps = 4;
    return cfg;
}

struct CopyKernel : kc::KernelDef
{
    std::string name() const override { return "Copy"; }

    void
    build(Kb &b) override
    {
        auto len = b.paramI32("len");
        auto in = b.paramPtr("in", Scalar::I32);
        auto out = b.paramPtr("out", Scalar::I32);
        auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        b.forRange(i, len, b.blockDim() * b.gridDim(),
                   [&] { out[i] = in[i]; });
    }
};

TEST(NoclAlloc, BuffersAreDisjointAndZeroed)
{
    Device dev(smallBase(), Mode::Baseline);
    const Buffer a = dev.alloc(1000);
    const Buffer b = dev.alloc(4096);
    const Buffer c = dev.alloc(64);
    EXPECT_GE(b.addr, a.addr + 1000);
    EXPECT_GE(c.addr, b.addr + 4096);
    for (const uint32_t v : dev.read32(b))
        EXPECT_EQ(v, 0u);
}

TEST(NoclAlloc, CapabilityAlignedAndPadded)
{
    // Every allocation base honours CRAM(len), and the rounded-up bounds
    // a capability for the requested size decodes to stay within the
    // allocator's padding (CRRL), so adjacent buffers can never be
    // reached even through bounds rounding.
    Device dev(smallCheri(), Mode::Purecap);
    uint32_t prev_end = 0;
    for (uint32_t bytes : {64u, 100u, 4000u, 65536u, 1000000u, 77777u}) {
        const Buffer b = dev.alloc(bytes);
        const uint32_t mask = cap::representableAlignmentMask(bytes);
        EXPECT_EQ(b.addr & ~mask, 0u) << bytes;

        const cap::CapPipe c =
            cap::setBounds(cap::setAddr(cap::rootCap(), b.addr), bytes)
                .cap;
        const cap::Bounds bounds = cap::getBounds(c);
        EXPECT_EQ(bounds.base, b.addr) << bytes;
        EXPECT_GE(bounds.top, uint64_t{b.addr} + bytes) << bytes;
        EXPECT_LE(bounds.top,
                  uint64_t{b.addr} + cap::representableLength(bytes))
            << bytes;
        // No overlap with the previous allocation's decoded bounds.
        EXPECT_GE(bounds.base, prev_end) << bytes;
        prev_end = static_cast<uint32_t>(bounds.top);
    }
}

TEST(NoclTransfer, WriteReadRoundTrips)
{
    Device dev(smallBase(), Mode::Baseline);
    const Buffer b8 = dev.alloc(16);
    const Buffer b32 = dev.alloc(16);
    const Buffer bf = dev.alloc(16);

    dev.write8(b8, {1, 2, 3, 250});
    const auto r8 = dev.read8(b8);
    EXPECT_EQ(r8[0], 1);
    EXPECT_EQ(r8[3], 250);

    dev.write32(b32, {0xdeadbeef, 42});
    EXPECT_EQ(dev.read32(b32)[0], 0xdeadbeefu);
    EXPECT_EQ(dev.read32(b32)[1], 42u);

    dev.writeF32(bf, {1.5f, -2.25f});
    EXPECT_EQ(dev.readF32(bf)[0], 1.5f);
    EXPECT_EQ(dev.readF32(bf)[1], -2.25f);
}

TEST(NoclLaunch, ArgumentBlockHoldsTaggedCapabilities)
{
    Device dev(smallCheri(), Mode::Purecap);
    const int n = 64;
    Buffer bi = dev.alloc(n * 4);
    Buffer bo = dev.alloc(n * 4);
    std::vector<uint32_t> data(n);
    for (int i = 0; i < n; ++i)
        data[i] = i * 7;
    dev.write32(bi, data);

    CopyKernel k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 64;
    const auto r =
        dev.launch(k, cfg, {Arg::integer(n), Arg::buffer(bi),
                            Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped);
    EXPECT_EQ(dev.read32(bo), data);

    // Pointer slots in the argument block carry valid tags with the
    // buffer's exact bounds.
    const kc::ParamSlot &slot = r.kernel->params[1];
    ASSERT_TRUE(slot.isPtr);
    const cap::CapMem mem =
        dev.dram().loadCap(kc::argBlockAddress() + slot.offset);
    EXPECT_TRUE(mem.tag);
    const cap::CapPipe c = cap::fromMem(mem);
    EXPECT_EQ(cap::getBase(c), bi.addr);
    EXPECT_EQ(cap::getLength(c), n * 4u);
    // Data capabilities never carry execute permission.
    EXPECT_EQ(c.perms & cap::PERM_EXECUTE, 0);
}

TEST(NoclLaunch, BaselineArgumentBlockIsUntagged)
{
    Device dev(smallBase(), Mode::Baseline);
    const int n = 64;
    Buffer bi = dev.alloc(n * 4);
    Buffer bo = dev.alloc(n * 4);
    CopyKernel k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 64;
    const auto r = dev.launch(
        k, cfg, {Arg::integer(n), Arg::buffer(bi), Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    const kc::ParamSlot &slot = r.kernel->params[1];
    EXPECT_EQ(dev.dram().load32(kc::argBlockAddress() + slot.offset),
              bi.addr);
    EXPECT_FALSE(
        dev.dram().wordTag(kc::argBlockAddress() + slot.offset));
}

TEST(NoclLaunch, RepeatedLaunchesAreIsolated)
{
    // Two launches on the same device must not leak microarchitectural
    // state: cycle counts and stats are per launch, buffers persist.
    Device dev(smallCheri(), Mode::Purecap);
    const int n = 128;
    Buffer bi = dev.alloc(n * 4);
    Buffer bo = dev.alloc(n * 4);
    std::vector<uint32_t> data(n, 0xabcd);
    dev.write32(bi, data);

    CopyKernel k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 64;
    cfg.gridDim = 2;
    const auto r1 = dev.launch(
        k, cfg, {Arg::integer(n), Arg::buffer(bi), Arg::buffer(bo)});
    const auto r2 = dev.launch(
        k, cfg, {Arg::integer(n), Arg::buffer(bi), Arg::buffer(bo)});
    ASSERT_TRUE(r1.completed && r2.completed);
    EXPECT_EQ(r1.cycles, r2.cycles); // deterministic and state-free
    EXPECT_EQ(r1.stats.get("instrs"), r2.stats.get("instrs"));
    EXPECT_EQ(dev.read32(bo), data);
}

TEST(NoclLaunch, SpecialRegistersInstalled)
{
    Device dev(smallCheri(), Mode::Purecap);
    const int n = 64;
    Buffer bi = dev.alloc(n * 4);
    Buffer bo = dev.alloc(n * 4);
    CopyKernel k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 64;
    (void)dev.launch(k, cfg, {Arg::integer(n), Arg::buffer(bi),
                              Arg::buffer(bo)});

    // DDC covers the whole address space; STC covers exactly the stack
    // region; ARG covers the argument block and is read-only-ish (no
    // store permission).
    EXPECT_EQ(cap::getLength(dev.sm().scr(isa::SCR_DDC)), uint64_t{1} << 32);
    const cap::CapPipe stc = dev.sm().scr(isa::SCR_STC);
    EXPECT_TRUE(stc.tag);
    EXPECT_EQ(cap::getBase(stc), dev.sm().config().stackRegionBase());
    const cap::CapPipe arg = dev.sm().scr(isa::SCR_ARG);
    EXPECT_TRUE(arg.tag);
    EXPECT_EQ(arg.perms & cap::PERM_STORE, 0);
}

TEST(NoclLaunch, GridLargerThanMachineIsSerialised)
{
    // More blocks than block slots: the dispatch loop iterates.
    Device dev(smallBase(), Mode::Baseline);
    const int n = 4096; // 64 blocks of 64 threads on a 128-thread machine
    Buffer bi = dev.alloc(n * 4);
    Buffer bo = dev.alloc(n * 4);
    std::vector<uint32_t> data(n);
    for (int i = 0; i < n; ++i)
        data[i] = i;
    dev.write32(bi, data);

    CopyKernel k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 64;
    cfg.gridDim = 64;
    const auto r = dev.launch(
        k, cfg, {Arg::integer(n), Arg::buffer(bi), Arg::buffer(bo)});
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(dev.read32(bo), data);
}

/** 2 KiB of shared arrays per block: with 32-thread blocks the 64 block
 *  slots of a 2048-thread SM need 128 KiB, twice the scratchpad. */
struct OversizedSharedKernel : kc::KernelDef
{
    std::string name() const override { return "OversizedShared"; }

    void
    build(Kb &b) override
    {
        auto out = b.paramPtr("out", Scalar::U32);
        auto shm = b.shared("shm", Scalar::U32, 512);
        auto tid = b.var(b.threadIdx());
        b.store(b.index(shm, tid), tid);
        out[tid] = b.load(b.index(shm, tid));
    }
};

TEST(NoclLaunchDeath, OversizedSharedArraysRefusedByEveryLaunch)
{
    // Plain and stepped launches share one validation step, so both
    // refuse the kernel with the same message before touching memory.
    Device dev(simt::SmConfig::cheriOptimised(), Mode::Purecap);
    const Buffer out = dev.alloc(32 * 4);
    OversizedSharedKernel k;
    nocl::LaunchConfig cfg;
    cfg.blockDim = 32;
    const std::vector<Arg> args = {Arg::buffer(out)};
    const char *refusal = "OversizedShared: shared arrays \\(2048 B x 64 "
                          "block slots\\) exceed the scratchpad";
    EXPECT_EXIT(dev.launch(k, cfg, args), testing::ExitedWithCode(1),
                refusal);
    EXPECT_EXIT(dev.beginStepped(dev.compileCached(k, cfg), cfg, args),
                testing::ExitedWithCode(1), refusal);
}

TEST(NoclDeviceDeath, RefusesLaneCountsAMaskCannotHold)
{
    // A warp's lanes are one 32-bit mask in the simulator.
    for (const unsigned lanes : {0u, 33u, 64u}) {
        simt::SmConfig cfg;
        cfg.numLanes = lanes;
        EXPECT_EXIT({ Device dev(cfg, Mode::Baseline); },
                    testing::ExitedWithCode(1),
                    "numLanes \\(" + std::to_string(lanes) + "\\) must be "
                    "1\\.\\.32")
            << lanes;
    }
}

} // namespace
