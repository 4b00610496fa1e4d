/**
 * @file
 * Fault-injection and containment tests: the TrapKind taxonomy
 * round-trips through its JSON spellings, launch-time memory faults
 * apply exactly as specified, runtime structure faults fire
 * deterministically, the watchdog turns an infinite kernel into a
 * structured trap, a conflicting multi-SM launch falls back to serial
 * execution, and the small differential campaign
 * upholds the headline contrast (CHERI: zero silent corruptions for
 * protection-relevant faults; baseline: nonzero).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bench/faultcampaign.hpp"
#include "kc/codegen.hpp"
#include "kc/kernel.hpp"
#include "nocl/nocl.hpp"
#include "simt/faultinject.hpp"
#include "simt/mem.hpp"
#include "simt/trap.hpp"

namespace
{

using kc::Kb;
using kc::Scalar;
using nocl::Arg;
using nocl::Buffer;
using nocl::Device;
using simt::FaultPlan;
using simt::FaultSite;
using simt::TrapKind;
using Mode = kc::CompileOptions::Mode;

// ------------------------------------------------------- trap taxonomy

TEST(TrapTaxonomy, NamesRoundTrip)
{
    for (int i = 0; i <= static_cast<int>(TrapKind::WatchdogTimeout);
         ++i) {
        const TrapKind k = static_cast<TrapKind>(i);
        EXPECT_EQ(simt::trapKindFromName(simt::trapKindName(k)), k)
            << "kind " << i << " ('" << simt::trapKindName(k) << "')";
    }
    EXPECT_EQ(simt::trapKindFromName("no such trap"), TrapKind::None);
    EXPECT_EQ(simt::trapKindFromName(""), TrapKind::None);
}

TEST(TrapTaxonomy, HistoricalJsonSpellingsAreStable)
{
    // The JSON schema keeps the pre-enum strings; pin a few.
    EXPECT_STREQ(simt::trapKindName(TrapKind::TagViolation),
                 "tag violation");
    EXPECT_STREQ(simt::trapKindName(TrapKind::BoundsViolation),
                 "bounds violation");
    EXPECT_STREQ(simt::trapKindName(TrapKind::BarrierDeadlock),
                 "barrier-deadlock");
    EXPECT_STREQ(simt::trapKindName(TrapKind::WatchdogTimeout),
                 "watchdog-timeout");
}

// ----------------------------------------------- memory-site fault units

TEST(FaultInject, MemoryFaultUnits)
{
    simt::MainMemory mem;
    const uint32_t addr = simt::kDramBase + 64;
    mem.store32(addr, 0x12345678u);
    mem.setWordTag(addr, true);

    FaultPlan flip;
    flip.site = FaultSite::DramWordFlip;
    flip.addr = addr;
    flip.bit = 5;
    EXPECT_TRUE(simt::applyMemoryFault(flip, mem));
    EXPECT_EQ(mem.load32(addr), 0x12345678u ^ (1u << 5));
    EXPECT_TRUE(mem.wordTag(addr)) << "a word flip must keep the tag";

    FaultPlan clear;
    clear.site = FaultSite::TagClear;
    clear.addr = addr + 2; // rounded down to the word
    EXPECT_TRUE(simt::applyMemoryFault(clear, mem));
    EXPECT_FALSE(mem.wordTag(addr));
    EXPECT_EQ(mem.load32(addr), 0x12345678u ^ (1u << 5));

    FaultPlan set;
    set.site = FaultSite::TagSet;
    set.addr = addr;
    EXPECT_TRUE(simt::applyMemoryFault(set, mem));
    EXPECT_TRUE(mem.wordTag(addr));

    FaultPlan outside;
    outside.site = FaultSite::DramWordFlip;
    outside.addr = 0x10; // not DRAM
    EXPECT_FALSE(simt::applyMemoryFault(outside, mem));

    FaultPlan runtime;
    runtime.site = FaultSite::StuckLane;
    EXPECT_FALSE(simt::applyMemoryFault(runtime, mem));
}

// ------------------------------------------------------- probe kernels

/** out[tid] = in[tid]: the canonical pointer-dereference victim. */
struct FiCopy : kc::KernelDef
{
    std::string name() const override { return "FiCopy"; }

    void
    build(Kb &b) override
    {
        auto in = b.paramPtr("in", Scalar::I32);
        auto out = b.paramPtr("out", Scalar::I32);
        out[b.threadIdx()] = b.load(b.index(in, b.threadIdx()));
    }
};

/** Stages through shared memory (scratchpad-fault victim). */
struct FiSharedEcho : kc::KernelDef
{
    std::string name() const override { return "FiSharedEcho"; }

    void
    build(Kb &b) override
    {
        auto out = b.paramPtr("out", Scalar::I32);
        auto buf = b.shared("buf", Scalar::I32, 32);
        buf[b.threadIdx()] = b.threadIdx() + b.c(1);
        b.barrier();
        out[b.threadIdx()] = buf[b.threadIdx()];
    }
};

/** Never terminates (watchdog victim). */
struct FiSpin : kc::KernelDef
{
    std::string name() const override { return "FiSpin"; }

    void
    build(Kb &b) override
    {
        auto out = b.paramPtr("out", Scalar::I32);
        auto i = b.var(b.c(0));
        b.while_(b.c(1) == b.c(1), [&] {
            i = i + b.c(1);
            b.store(b.index(out, b.c(0)), i);
        });
    }
};

/** Every block stores its own index to out[0]: a cross-SM conflict. */
struct FiClash : kc::KernelDef
{
    std::string name() const override { return "FiClash"; }

    void
    build(Kb &b) override
    {
        auto out = b.paramPtr("out", Scalar::I32);
        b.store(b.index(out, b.c(0)), b.blockIdx());
    }
};

struct CopyRun
{
    nocl::RunResult run;
    std::vector<uint32_t> out;
};

/** Run FiCopy on a fresh device under @p plan (purecap or baseline) on
 *  the accelerated or the reference engine. */
CopyRun
runCopy(const FaultPlan &plan, bool cheri, bool accelerated = true)
{
    simt::SmConfig cfg = cheri ? simt::SmConfig::cheriOptimised()
                               : simt::SmConfig::baseline();
    cfg.numWarps = 1;
    cfg.hostFastPath = accelerated;
    cfg.faultPlan = plan;
    Device dev(cfg, cheri ? Mode::Purecap : Mode::Baseline);
    Buffer bi = dev.alloc(32 * 4);
    Buffer bo = dev.alloc(32 * 4);
    std::vector<uint32_t> in(32);
    for (unsigned i = 0; i < 32; ++i)
        in[i] = 1000 + i;
    dev.write32(bi, in);

    FiCopy k;
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    CopyRun cr;
    cr.run = dev.launch(k, lc, {Arg::buffer(bi), Arg::buffer(bo)});
    cr.out = dev.read32(bo);
    return cr;
}

/** Address of the first pointer slot in FiCopy's argument block. */
uint32_t
firstPtrSlotAddr()
{
    const CopyRun golden = runCopy(FaultPlan{}, true);
    EXPECT_TRUE(golden.run.completed && !golden.run.trapped);
    EXPECT_NE(golden.run.kernel, nullptr);
    for (const kc::ParamSlot &slot : golden.run.kernel->params)
        if (slot.isPtr)
            return kc::argBlockAddress() + slot.offset;
    ADD_FAILURE() << "FiCopy has no pointer parameter";
    return kc::argBlockAddress();
}

// --------------------------------------------- detection under CHERI

TEST(FaultInject, TagClearOnArgumentCapabilityTrapsUnderCheri)
{
    FaultPlan plan;
    plan.site = FaultSite::TagClear;
    plan.addr = firstPtrSlotAddr();

    const CopyRun cr = runCopy(plan, true);
    EXPECT_TRUE(cr.run.trapped);
    EXPECT_EQ(cr.run.trapKind, TrapKind::TagViolation);
    EXPECT_EQ(cr.run.faultInjections, 1u);
}

TEST(FaultInject, PointerBitFlipCorruptsSilentlyUnderBaseline)
{
    FaultPlan plan;
    plan.site = FaultSite::DramWordFlip;
    plan.addr = firstPtrSlotAddr();
    plan.bit = 13; // the flipped pointer stays aligned and inside DRAM

    const CopyRun cr = runCopy(plan, false);
    EXPECT_TRUE(cr.run.completed);
    EXPECT_FALSE(cr.run.trapped)
        << simt::trapKindName(cr.run.trapKind);
    EXPECT_EQ(cr.run.faultInjections, 1u);
    // The copy read through the wrong pointer: silent corruption.
    bool any_wrong = false;
    for (unsigned i = 0; i < 32; ++i)
        any_wrong |= cr.out[i] != 1000 + i;
    EXPECT_TRUE(any_wrong);
}

TEST(FaultInject, WildPointerLeavesDramButStaysContained)
{
    // Flip a high bit so the corrupted pointer leaves the DRAM window
    // entirely. The baseline machine has no capability to catch it, but
    // the access must fault the lane with a structured trap instead of
    // aborting the host process -- that containment is what keeps a
    // differential campaign alive across arbitrary seeds.
    FaultPlan plan;
    plan.site = FaultSite::DramWordFlip;
    plan.addr = firstPtrSlotAddr();
    plan.bit = 27; // 0x10xxxxxx ^ 0x08000000 -> outside DRAM

    const CopyRun a = runCopy(plan, false);
    ASSERT_TRUE(a.run.trapped);
    EXPECT_EQ(a.run.trapKind, simt::TrapKind::UnmappedAccess);
    // Not a CHERI check: the cheri_traps counter must not move.
    EXPECT_EQ(a.run.stats.get("cheri_traps"), 0u);

    const CopyRun b = runCopy(plan, false);
    EXPECT_EQ(a.run.trapKind, b.run.trapKind);
    EXPECT_EQ(a.run.trapAddr, b.run.trapAddr);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

TEST(FaultInject, MetaRfFlipIsNeverSilentAndReplays)
{
    FaultPlan plan;
    plan.site = FaultSite::MetaRfFlip;
    plan.nthEvent = 2;
    plan.lane = 0;
    plan.bit = 7;

    const CopyRun a = runCopy(plan, true);
    // The capability address lives in the data word, so a metadata flip
    // can only shrink/perturb bounds, perms or the otype: the run either
    // traps or completes with the correct output. Never silent.
    if (!a.run.trapped) {
        ASSERT_TRUE(a.run.completed);
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(a.out[i], 1000 + i) << i;
    }

    const CopyRun b = runCopy(plan, true);
    EXPECT_EQ(a.run.trapped, b.run.trapped);
    EXPECT_EQ(a.run.trapKind, b.run.trapKind);
    EXPECT_EQ(a.run.trapAddr, b.run.trapAddr);
    EXPECT_EQ(a.run.faultInjections, b.run.faultInjections);
    EXPECT_EQ(a.out, b.out);
}

TEST(FaultInject, MetaRfFlipStrikesBothEnginesAlike)
{
    // The flip lands on one lane of the written register whichever
    // write path (per-lane or closed-form) retires the result, so the
    // engines agree on every plan.
    const auto modelled = [](const support::StatSet &st) {
        std::map<std::string, uint64_t> m;
        for (const auto &[name, value] : st.all())
            if (name.rfind("simhost_", 0) != 0)
                m[name] = value;
        return m;
    };
    unsigned differing = 0;
    for (uint64_t nth = 1; nth <= 40; ++nth) {
        for (const uint32_t bit : {0u, 7u, 20u, 27u}) {
            FaultPlan plan;
            plan.site = FaultSite::MetaRfFlip;
            plan.nthEvent = nth;
            plan.bit = bit;
            const CopyRun ref = runCopy(plan, true, false);
            const CopyRun acc = runCopy(plan, true, true);
            const bool same =
                ref.run.trapped == acc.run.trapped &&
                ref.run.trapKind == acc.run.trapKind &&
                ref.run.trapAddr == acc.run.trapAddr &&
                ref.run.cycles == acc.run.cycles &&
                ref.run.faultInjections == acc.run.faultInjections &&
                ref.out == acc.out &&
                modelled(ref.run.stats) == modelled(acc.run.stats);
            EXPECT_TRUE(same) << "nthEvent " << nth << " bit " << bit;
            differing += same ? 0 : 1;
        }
    }
    EXPECT_EQ(differing, 0u);
}

TEST(FaultInject, StuckLaneFiresAndReplays)
{
    FaultPlan plan;
    plan.site = FaultSite::StuckLane;
    plan.lane = 3;
    plan.bit = 0;
    plan.stuckValue = 1;

    const CopyRun a = runCopy(plan, true);
    EXPECT_GT(a.run.faultInjections, 0u);

    const CopyRun b = runCopy(plan, true);
    EXPECT_EQ(a.run.trapped, b.run.trapped);
    EXPECT_EQ(a.run.trapKind, b.run.trapKind);
    EXPECT_EQ(a.run.faultInjections, b.run.faultInjections);
    EXPECT_EQ(a.out, b.out);
}

TEST(FaultInject, ScratchpadDroppedWriteFiresAndReplays)
{
    FaultPlan plan;
    plan.site = FaultSite::ScratchpadDropWrite;
    plan.nthEvent = 5;

    const auto run_once = [&] {
        simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
        cfg.numWarps = 1;
        cfg.faultPlan = plan;
        Device dev(cfg, Mode::Purecap);
        Buffer bo = dev.alloc(32 * 4);
        FiSharedEcho k;
        nocl::LaunchConfig lc;
        lc.blockDim = 32;
        CopyRun cr;
        cr.run = dev.launch(k, lc, {Arg::buffer(bo)});
        cr.out = dev.read32(bo);
        return cr;
    };

    const CopyRun a = run_once();
    EXPECT_TRUE(a.run.completed);
    EXPECT_EQ(a.run.faultInjections, 1u);
    // Exactly one shared-memory cell kept its zero initialisation.
    unsigned wrong = 0;
    for (unsigned i = 0; i < 32; ++i)
        wrong += a.out[i] != i + 1;
    EXPECT_EQ(wrong, 1u);

    const CopyRun b = run_once();
    EXPECT_EQ(a.out, b.out);
}

// --------------------------------------------------- watchdog containment

TEST(Watchdog, InfiniteKernelTerminatesWithStructuredTrap)
{
    for (const unsigned sms : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(sms) + " SMs");
        simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
        cfg.numWarps = 1;
        cfg.numSms = sms;
        Device dev(cfg, Mode::Purecap);
        Buffer bo = dev.alloc(64);

        FiSpin k;
        nocl::LaunchConfig lc;
        lc.blockDim = 32;
        lc.gridDim = sms;
        nocl::LaunchPolicy policy;
        policy.maxCycles = 20'000;
        const nocl::RunResult r =
            dev.launch(k, lc, {Arg::buffer(bo)}, policy);

        EXPECT_FALSE(r.completed);
        EXPECT_TRUE(r.trapped);
        EXPECT_EQ(r.trapKind, TrapKind::WatchdogTimeout);
        EXPECT_EQ(r.watchdogFires, sms); // every SM timed out
    }
}

TEST(Watchdog, GenerousBudgetLeavesHealthyLaunchUntouched)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    Device dev(cfg, Mode::Purecap);
    Buffer bi = dev.alloc(32 * 4);
    Buffer bo = dev.alloc(32 * 4);
    FiCopy k;
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    const nocl::RunResult r =
        dev.launch(k, lc, {Arg::buffer(bi), Arg::buffer(bo)});
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped);
    EXPECT_EQ(r.watchdogFires, 0u);
    EXPECT_EQ(r.faultInjections, 0u);
}

TEST(Containment, ConflictingMultiSmLaunchDegradesToSerial)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 1;
    cfg.numSms = 2;
    Device dev(cfg, Mode::Purecap);
    Buffer bo = dev.alloc(64);

    FiClash k;
    nocl::LaunchConfig lc;
    lc.blockDim = 32;
    lc.gridDim = 2; // both SMs write out[0] with different values
    const nocl::RunResult r = dev.launch(k, lc, {Arg::buffer(bo)});

    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped);
    EXPECT_TRUE(r.mergeFallback);
    // Serial execution commits the SMs in order, so the last block's
    // value wins deterministically.
    EXPECT_EQ(dev.read32(bo)[0], 1u);
}

// --------------------------------------------------- small campaign

TEST(FaultCampaign, CheriDetectsWhatTheBaselineCorrupts)
{
    benchcommon::CampaignOptions opts;
    opts.size = kernels::Size::Small;
    opts.seed = 7;
    opts.filter = "VecAdd|Histogram|Reduce";
    opts.threads = 2;

    opts.cheri = true;
    const benchcommon::CampaignResult cheri =
        benchcommon::runFaultCampaign(opts);
    ASSERT_FALSE(cheri.cases.empty());
    EXPECT_EQ(cheri.protCorrupt, 0u);
    EXPECT_GT(cheri.detected, 0u);
    for (const benchcommon::FaultCase &fc : cheri.cases)
        EXPECT_TRUE(fc.goldenOk) << fc.bench;

    // Bit-identical classification across repeats...
    const benchcommon::CampaignResult again =
        benchcommon::runFaultCampaign(opts);
    EXPECT_EQ(cheri.classificationHash(), again.classificationHash());

    // ...and across SM counts (memory faults strike the shared image).
    benchcommon::CampaignOptions two_sms = opts;
    two_sms.sms = 2;
    const benchcommon::CampaignResult sharded =
        benchcommon::runFaultCampaign(two_sms);
    EXPECT_EQ(cheri.classificationHash(), sharded.classificationHash());

    // A different seed still classifies protection faults as caught.
    benchcommon::CampaignOptions reseeded = opts;
    reseeded.seed = 31;
    const benchcommon::CampaignResult other =
        benchcommon::runFaultCampaign(reseeded);
    EXPECT_EQ(other.protCorrupt, 0u);

    opts.cheri = false;
    const benchcommon::CampaignResult baseline =
        benchcommon::runFaultCampaign(opts);
    EXPECT_GT(baseline.protCorrupt, 0u)
        << "the baseline must corrupt silently under pointer faults";
}

} // namespace
