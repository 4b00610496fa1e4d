/**
 * @file
 * Deterministic checkpoint/restore tests (DESIGN.md section 13).
 *
 * The core contract: a stepped launch advanced in arbitrary runUntil()
 * chunks, checkpointed mid-kernel, restored into a *fresh* device and
 * finished must be bit-identical -- cycles, trap record, verified
 * output, whole-memory content hash -- to the same launch finished
 * uninterrupted, under both execute engines and at 1/2/4 SMs -- also
 * when an image saved on one engine finishes on the other.
 * Because stepped launches always run against copy-on-write MemShard
 * overlays, the mid-kernel snapshots here are taken with dirty per-SM
 * overlay pages in flight (the satellite case of the checkpoint issue):
 * the base DRAM hash is proven unchanged at the snapshot point and the
 * restored run's epoch commit must still land bit-identically.
 *
 * Also covered: structured refusal of corrupt / truncated / mismatched
 * images (no simulator state touched), restoreBase() exactness (the
 * fault campaign's delta-execution foundation), campaign journal
 * recovery including the partial-trailing-line crash signature. So is
 * the main-memory backing store: zero-filled on creation, a loadState
 * that leaves nothing stale, and content hashes and images fixed to
 * recorded values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/faultcampaign.hpp"
#include "kc/asm.hpp"
#include "kc/kernel.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/checkpoint.hpp"
#include "simt/mem.hpp"
#include "simt/sm.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace simt
{

/** Test seam declared as a friend of Sm (see sm.hpp). */
struct SmTestAccess
{
    /** Warps of @p sm whose live lanes sit at more than one (nest, pc). */
    static unsigned
    divergentWarps(const Sm &sm)
    {
        unsigned n = 0;
        for (const auto &w : sm.warps_)
            n += w.numGroups > 1 ? 1 : 0;
        return n;
    }
};

} // namespace simt

namespace
{

using kernels::Prepared;
using kernels::Size;
using nocl::Arg;
using nocl::Device;
using nocl::LaunchPolicy;
using nocl::RunResult;
using nocl::SteppedLaunch;
using Mode = kc::CompileOptions::Mode;

simt::SmConfig
makeCfg(bool host_fast_path, unsigned sms)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 16; // 512 threads keeps the Small suite quick
    cfg.vrfCapacity = 16 * 32 * 3 / 8;
    cfg.hostFastPath = host_fast_path;
    cfg.numSms = sms;
    return cfg;
}

/** A prepared benchmark on its own device, ready to beginStepped. */
struct Leg
{
    std::unique_ptr<kernels::Benchmark> bench;
    std::unique_ptr<Device> dev;
    Prepared prep;
    std::shared_ptr<const kc::CompiledKernel> compiled;
};

Leg
makeLeg(const std::string &bench_name, const simt::SmConfig &cfg)
{
    Leg leg;
    leg.bench = kernels::makeBenchmark(bench_name);
    EXPECT_NE(leg.bench, nullptr);
    leg.dev = std::make_unique<Device>(cfg, Mode::Purecap);
    leg.prep = leg.bench->prepare(*leg.dev, Size::Small);
    leg.compiled = leg.dev->compileCached(*leg.prep.kernel, leg.prep.cfg);
    return leg;
}

/** Uninterrupted stepped run: the reference every restore must match. */
struct Reference
{
    RunResult run;
    bool verified = false;
    uint64_t dramHash = 0;
};

/** Modelled counters only (the simhost_* group depends on the engine). */
std::map<std::string, uint64_t>
modelledStats(const support::StatSet &stats)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : stats.all())
        if (name.rfind("simhost_", 0) != 0)
            out.emplace(name, value);
    return out;
}

Reference
runUninterrupted(const std::string &bench_name, const simt::SmConfig &cfg)
{
    Leg leg = makeLeg(bench_name, cfg);
    auto launch =
        leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
    Reference ref;
    ref.run = launch->finish(LaunchPolicy{}.maxCycles);
    ref.verified = leg.prep.verify(*leg.dev);
    ref.dramHash = leg.dev->dram().contentHash();
    return ref;
}

// ------------------------------------------- restore parity matrix

const char *
engineName(bool host_fast_path)
{
    return host_fast_path ? "accelerated" : "reference";
}

/** (engine that saves, engine that restores and finishes, SMs). The
 *  image carries no engine state and the config hash leaves
 *  hostFastPath out, so the two engines may differ. */
class RestoreParity
    : public ::testing::TestWithParam<std::tuple<bool, bool, unsigned>>
{
};

TEST_P(RestoreParity, MidKernelSnapshotFinishesBitIdentically)
{
    const auto &[save_fast, finish_fast, sms] = GetParam();
    const simt::SmConfig cfg = makeCfg(save_fast, sms);
    const simt::SmConfig finish_cfg = makeCfg(finish_fast, sms);
    // BlkStencil is the adversarial benchmark: divergent control flow,
    // live scratchpad tiles and per-lane capability metadata all have
    // to survive the image round-trip.
    const std::string bench = "BlkStencil";

    const Reference ref = runUninterrupted(bench, cfg);
    ASSERT_TRUE(ref.run.completed);
    ASSERT_TRUE(ref.verified);
    ASSERT_GT(ref.run.cycles, 16u);

    // Advance a second leg in two uneven chunks to a mid-kernel point,
    // snapshot it there, and prove the base DRAM is still untouched
    // (every store so far lives in the COW shard overlays).
    Leg leg = makeLeg(bench, cfg);
    auto launch =
        leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
    const uint64_t base_hash = leg.dev->dram().contentHash();
    const uint64_t snap = ref.run.cycles * 2 / 5;
    launch->runUntil(snap / 3);
    launch->runUntil(snap);
    ASSERT_FALSE(launch->done());
    ASSERT_GT(launch->cycles(), 0u);
    EXPECT_EQ(leg.dev->dram().contentHash(), base_hash)
        << "mid-epoch stores must stay in the shard overlays";
    const std::vector<uint8_t> image = launch->saveCheckpoint();

    // The image must frame Header, BaseMem and one (SmState,
    // ShardState) pair per SM.
    std::vector<simt::ckpt::Section> sections;
    ASSERT_TRUE(simt::ckpt::readImage(image, sections));
    ASSERT_EQ(sections.size(), 2 + 2 * static_cast<size_t>(sms));

    // Restore into a fresh device and finish: everything architectural
    // must match the uninterrupted reference.
    Device fresh(finish_cfg, Mode::Purecap);
    simt::ckpt::Error err;
    auto restored = fresh.restoreStepped(image, &err);
    ASSERT_NE(restored, nullptr) << err.message;
    const RunResult got = restored->finish(LaunchPolicy{}.maxCycles);

    EXPECT_EQ(got.completed, ref.run.completed);
    EXPECT_EQ(got.trapped, ref.run.trapped);
    EXPECT_EQ(got.trapKind, ref.run.trapKind);
    EXPECT_EQ(got.cycles, ref.run.cycles);
    EXPECT_EQ(got.smCycles, ref.run.smCycles);
    EXPECT_EQ(modelledStats(got.stats), modelledStats(ref.run.stats));
    EXPECT_EQ(fresh.dram().contentHash(), ref.dramHash);
    // Buffer layout is deterministic, so the original leg's verifier
    // applies to the restored device verbatim.
    EXPECT_TRUE(leg.prep.verify(fresh));
}

INSTANTIATE_TEST_SUITE_P(
    EnginesBySms, RestoreParity,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(false, true),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto &info) {
        const bool save = std::get<0>(info.param);
        const bool finish = std::get<1>(info.param);
        std::string name = engineName(save);
        if (finish != save)
            name += std::string("_to_") + engineName(finish);
        return name + "_sms" + std::to_string(std::get<2>(info.param));
    });

TEST(DivergentRestore, BitonicLaMidKernelFinishesBitIdentically)
{
    // A snapshot while warps sit split over several (nest, pc) groups:
    // the image holds per-lane keys and the restore rebuilds the groups,
    // so the resumed run -- on either engine -- must match.
    const std::string bench = "BitonicLa";
    const simt::SmConfig cfg = makeCfg(true, 1);
    const Reference ref = runUninterrupted(bench, cfg);
    ASSERT_TRUE(ref.run.completed);
    ASSERT_TRUE(ref.verified);

    for (const bool finish_fast : {true, false}) {
        SCOPED_TRACE(engineName(finish_fast));
        Leg leg = makeLeg(bench, cfg);
        auto launch =
            leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
        // Past a third of the run, step to the first point where at
        // least two warps are divergent.
        uint64_t at = ref.run.cycles / 3;
        launch->runUntil(at);
        while (!launch->done() &&
               simt::SmTestAccess::divergentWarps(leg.dev->sm()) < 2)
            launch->runUntil(at += 7);
        ASSERT_FALSE(launch->done());
        const std::vector<uint8_t> image = launch->saveCheckpoint();

        Device fresh(makeCfg(finish_fast, 1), Mode::Purecap);
        simt::ckpt::Error err;
        auto restored = fresh.restoreStepped(image, &err);
        ASSERT_NE(restored, nullptr) << err.message;
        EXPECT_EQ(fresh.sm().archStateHash(), leg.dev->sm().archStateHash());
        EXPECT_EQ(simt::SmTestAccess::divergentWarps(fresh.sm()),
                  simt::SmTestAccess::divergentWarps(leg.dev->sm()));
        const RunResult got = restored->finish(LaunchPolicy{}.maxCycles);
        EXPECT_EQ(got.completed, ref.run.completed);
        EXPECT_EQ(got.trapped, ref.run.trapped);
        EXPECT_EQ(got.cycles, ref.run.cycles);
        EXPECT_EQ(modelledStats(got.stats), modelledStats(ref.run.stats));
        EXPECT_EQ(fresh.dram().contentHash(), ref.dramHash);
        EXPECT_TRUE(leg.prep.verify(fresh));
    }
}

// ------------------------------------------------ structured refusal

TEST(CheckpointRefusal, CorruptMismatchedImagesAreRejectedUntouched)
{
    const simt::SmConfig cfg = makeCfg(false, 2);
    Leg leg = makeLeg("VecAdd", cfg);
    auto launch =
        leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
    launch->runUntil(64);
    const std::vector<uint8_t> image = launch->saveCheckpoint();

    const auto expect_refused = [&](Device &dev,
                                    const std::vector<uint8_t> &img,
                                    const std::string &key,
                                    const char *what) {
        const uint64_t before = dev.dram().contentHash();
        simt::ckpt::Error err;
        auto restored = dev.restoreStepped(img, &err, key);
        EXPECT_EQ(restored, nullptr) << what;
        EXPECT_FALSE(err.ok) << what;
        EXPECT_FALSE(err.message.empty()) << what;
        EXPECT_EQ(dev.dram().contentHash(), before)
            << what << ": refusal must not touch simulator state";
    };

    Device fresh(cfg, Mode::Purecap);

    std::vector<uint8_t> bad_magic = image;
    bad_magic[0] ^= 0xff;
    expect_refused(fresh, bad_magic, "", "bad magic");

    // A version-1 image (the format that still carried engine-policy
    // state) gets the structured version refusal.
    std::vector<uint8_t> version1 = image;
    version1[simt::ckpt::kMagicLen] = 1;
    {
        simt::ckpt::Error err;
        EXPECT_EQ(fresh.restoreStepped(version1, &err), nullptr);
        EXPECT_NE(err.message.find("unsupported checkpoint version 1"),
                  std::string::npos)
            << err.message;
    }

    std::vector<uint8_t> truncated(image.begin(),
                                   image.begin() + image.size() / 2);
    expect_refused(fresh, truncated, "", "truncated image");

    std::vector<uint8_t> bit_flipped = image;
    bit_flipped[image.size() - 5] ^= 0x01;
    expect_refused(fresh, bit_flipped, "", "section CRC mismatch");

    simt::SmConfig other_cfg = cfg;
    other_cfg.numWarps = 8;
    Device other_dev(other_cfg, Mode::Purecap);
    {
        const uint64_t before = other_dev.dram().contentHash();
        simt::ckpt::Error err;
        auto restored = other_dev.restoreStepped(image, &err);
        EXPECT_EQ(restored, nullptr);
        EXPECT_FALSE(err.ok);
        EXPECT_NE(err.message.find("configuration"), std::string::npos)
            << err.message;
        EXPECT_EQ(other_dev.dram().contentHash(), before);
    }

    expect_refused(fresh, image, "NotThisKernel|0000000000000000",
                   "kernel key mismatch");

    // Control: the untampered image with no key constraint restores
    // fine into the same (still pristine) device and completes.
    simt::ckpt::Error err;
    auto restored = fresh.restoreStepped(image, &err);
    ASSERT_NE(restored, nullptr) << err.message;
    const RunResult got = restored->finish(LaunchPolicy{}.maxCycles);
    EXPECT_TRUE(got.completed);
    EXPECT_TRUE(leg.prep.verify(fresh));
}

// ------------------------------------------------ restoreBase exactness

TEST(SteppedLaunch, RestoreBaseRevertsToPreLaunchMemoryExactly)
{
    const simt::SmConfig cfg = makeCfg(true, 2);
    Leg leg = makeLeg("Reduce", cfg);
    const uint64_t pre_hash = leg.dev->dram().contentHash();

    auto first =
        leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
    const RunResult r1 = first->finish(LaunchPolicy{}.maxCycles);
    ASSERT_TRUE(r1.completed);
    const uint64_t post_hash = leg.dev->dram().contentHash();
    EXPECT_NE(post_hash, pre_hash);

    first->restoreBase();
    first.reset();
    EXPECT_EQ(leg.dev->dram().contentHash(), pre_hash);

    // The next delta off the same device must replay bit-identically --
    // the invariant the scaled fault campaign rests on.
    auto second =
        leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
    const RunResult r2 = second->finish(LaunchPolicy{}.maxCycles);
    EXPECT_TRUE(r2.completed);
    EXPECT_EQ(r2.cycles, r1.cycles);
    EXPECT_EQ(leg.dev->dram().contentHash(), post_hash);
}

// ------------------------------------------------- journal recovery

TEST(CampaignJournal, TruncatedTailIsRecoveredAndResumeIsExact)
{
    const std::string path = "test_checkpoint_journal.jsonl";
    std::remove(path.c_str());

    benchcommon::ScaledCampaignOptions opts;
    opts.sites = 12;
    opts.filter = "VecAdd";
    opts.threads = 1;
    opts.replaySample = 0;
    opts.journalPath = path;
    const benchcommon::ScaledResult res =
        benchcommon::runScaledCampaign(opts);
    ASSERT_EQ(res.sites.size(), 12u);
    EXPECT_EQ(res.resumedSites, 0u);

    uint64_t hash = 0;
    uint64_t count = 0;
    std::string err;
    ASSERT_TRUE(
        benchcommon::scaledJournalHash(path, &hash, &count, &err))
        << err;
    EXPECT_EQ(count, 12u);
    EXPECT_EQ(hash, res.classificationHash());

    // A SIGKILLed writer leaves at most one partial trailing line; the
    // readers must skip it and reconstruct the same classification.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"i\": 999, \"bench\": \"Vec";
    }
    uint64_t hash2 = 0;
    ASSERT_TRUE(
        benchcommon::scaledJournalHash(path, &hash2, &count, &err))
        << err;
    EXPECT_EQ(count, 12u);
    EXPECT_EQ(hash2, hash);

    // Resuming over the recovered journal re-executes nothing and
    // reports identical classifications.
    opts.resume = true;
    const benchcommon::ScaledResult resumed =
        benchcommon::runScaledCampaign(opts);
    EXPECT_EQ(resumed.resumedSites, 12u);
    EXPECT_EQ(resumed.classificationHash(), res.classificationHash());
    EXPECT_EQ(resumed.detected, res.detected);
    EXPECT_EQ(resumed.masked, res.masked);
    EXPECT_EQ(resumed.corrupt, res.corrupt);
    std::remove(path.c_str());

    // A journal with no header line is refused, not misread.
    const std::string headerless = "test_checkpoint_headerless.jsonl";
    {
        std::ofstream out(headerless, std::ios::trunc | std::ios::binary);
        out << "{\"i\": 0, \"bench\": \"VecAdd\", \"class\": \"tag\", "
               "\"outcome\": \"detected\", \"trap_kind\": \"none\", "
               "\"trap_addr\": 0}\n";
    }
    EXPECT_FALSE(benchcommon::scaledJournalHash(headerless, &hash,
                                                &count, &err));
    EXPECT_FALSE(err.empty());
    std::remove(headerless.c_str());
}

// ------------------------------------------ main-memory backing store

constexpr uint32_t kFirstWord = simt::kDramBase;
constexpr uint32_t kLastWord = simt::kDramBase + simt::kDramSize - 4;

/**
 * A fixed memory touching both ends of DRAM: plain data, a tagged
 * capability, a tag-only page with all-zero data, and a tag range
 * partly cleared across bitmap-word boundaries.
 */
simt::MainMemory
handBuiltMemory()
{
    simt::MainMemory m;
    m.store32(kFirstWord, 0xdeadbeef);
    m.store8(simt::kDramBase + 4097, 0x5a);
    m.store16(kLastWord + 2, 0xbeef);
    cap::CapMem c;
    c.bits = 0x0123456789abcdefull;
    c.tag = true;
    m.storeCap(simt::kDramBase + 0x10000, c);
    m.setWordTag(simt::kDramBase + 3 * 4096 + 8, true);
    m.setWordTag(kLastWord, true);
    const uint32_t run = simt::kDramBase + 0x20000 + 4 * 60;
    for (uint32_t a = run; a < run + 4 * 200; a += 4)
        m.setWordTag(a, true);
    for (uint32_t a = run + 4 * 3; a < run + 4 * 133; a += 4)
        m.setWordTag(a, false);
    m.clearTagForStore(run + 4 * 199 + 1, 2);
    return m;
}

TEST(MainMemoryBacking, FreshMemoryReadsZeroAndUntagged)
{
    const simt::MainMemory m;
    for (const uint32_t a : {kFirstWord, kLastWord}) {
        EXPECT_EQ(m.load32(a), 0u) << std::hex << a;
        EXPECT_FALSE(m.wordTag(a)) << std::hex << a;
    }
    EXPECT_FALSE(m.loadCap(kLastWord - 4).tag);
}

TEST(MainMemoryBacking, LoadStateOverDirtyMemoryLeavesNoStaleState)
{
    const simt::MainMemory orig = handBuiltMemory();
    support::ByteWriter w;
    orig.saveState(w);

    // Dirty pages the image does not carry, and one that it does.
    simt::MainMemory target;
    const uint32_t stale = simt::kDramBase + 0x800000;
    target.store32(stale, 0xffffffff);
    target.setWordTag(stale + 4, true);
    target.store32(kFirstWord + 8, 0x12345678);
    target.setWordTag(kFirstWord + 12, true);

    support::ByteReader r(w.data().data(), w.size());
    ASSERT_TRUE(target.loadState(r));
    EXPECT_EQ(target.contentHash(), orig.contentHash());
    EXPECT_EQ(target.load32(stale), 0u);
    EXPECT_FALSE(target.wordTag(stale + 4));
    EXPECT_EQ(target.load32(kFirstWord + 8), 0u);
    EXPECT_FALSE(target.wordTag(kFirstWord + 12));
}

TEST(MainMemoryBacking, HashAndImageMatchRecordedValues)
{
    // Recorded from the std::vector backing store this one replaced: the
    // content hash and the checkpoint image must not change with it.
    const simt::MainMemory m = handBuiltMemory();
    support::ByteWriter w;
    m.saveState(w);
    EXPECT_EQ(m.contentHash(), 0x872a1a9203a8f5c2ull);
    EXPECT_EQ(w.size(), 8u + 6u * (4u + 4096u + 16u * 8u)); // 6 live pages
    EXPECT_EQ(support::crc32(w.data().data(), w.size()), 0x680f0324u);
}

// ---------------------------------------------- the written-page set

constexpr uint32_t kPageBytes = simt::MainMemory::kPageBytes;
constexpr uint32_t kNumPages = simt::MainMemory::kNumPages;
constexpr uint32_t kDramEnd = simt::kDramBase + simt::kDramSize;
using PageTags = std::array<uint64_t, simt::MainMemory::kPageTagWords>;

/** The full-scan serialiser MainMemory::saveState replaced: every page
 *  of DRAM in index order, kept when it is not all-zero and tag-free.
 *  The oracle for the walk over the written pages. */
std::vector<uint8_t>
fullScanImage(const simt::MainMemory &m)
{
    std::vector<uint8_t> data(kPageBytes);
    PageTags tags{};
    support::ByteWriter pages;
    uint32_t live = 0;
    for (uint32_t p = 0; p < kNumPages; ++p) {
        const uint32_t base = simt::kDramBase + p * kPageBytes;
        m.copyOut(base, data.data(), kPageBytes);
        m.copyTagsOut(base, tags.data(), kPageBytes);
        const auto nonzero = [](auto x) { return x != 0; };
        if (std::none_of(tags.begin(), tags.end(), nonzero) &&
            std::none_of(data.begin(), data.end(), nonzero))
            continue;
        ++live;
        pages.u32(p);
        pages.bytes(data.data(), kPageBytes);
        for (const uint64_t t : tags)
            pages.u64(t);
    }
    support::ByteWriter w;
    w.u32(kNumPages);
    w.u32(live);
    w.bytes(pages.data().data(), pages.size());
    return w.take();
}

/** The byte-loop contentHash: FNV-1a over every 8-byte little-endian
 *  chunk of DRAM, then over the index + 1 of every set word tag. */
uint64_t
fullScanContentHash(const simt::MainMemory &m)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 1469598103934665603ull;
    std::vector<uint8_t> data(kPageBytes);
    for (uint32_t p = 0; p < kNumPages; ++p) {
        m.copyOut(simt::kDramBase + p * kPageBytes, data.data(), kPageBytes);
        for (uint32_t c = 0; c < kPageBytes; c += 8) {
            uint64_t chunk = 0;
            for (unsigned b = 0; b < 8; ++b)
                chunk |= static_cast<uint64_t>(data[c + b]) << (8 * b);
            h = (h ^ chunk) * kPrime;
        }
    }
    PageTags tags{};
    for (uint32_t p = 0; p < kNumPages; ++p) {
        m.copyTagsOut(simt::kDramBase + p * kPageBytes, tags.data(),
                      kPageBytes);
        for (uint32_t g = 0; g < tags.size(); ++g) {
            for (uint64_t bits = tags[g]; bits != 0; bits &= bits - 1) {
                const uint64_t w = (uint64_t{p} * tags.size() + g) * 64 +
                                   std::countr_zero(bits);
                h = (h ^ (w + 1)) * kPrime;
            }
        }
    }
    return h;
}

/** dataHash by its definition, one load8 per hashed byte: FNV-1a over
 *  the aligned 64-bit words that hold a hashed byte, in address order,
 *  each little-endian with its bytes that are not hashed read as zero. */
uint64_t
byteLoopDataHash(const simt::MainMemory &m, uint32_t addr, uint32_t bytes,
                 uint32_t exclude_addr, uint32_t exclude_bytes)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 1469598103934665603ull;
    const uint32_t end = addr + bytes;
    const auto hashed = [&](uint32_t a) {
        return a >= addr && a < end &&
               !(exclude_bytes != 0 && a >= exclude_addr &&
                 a < exclude_addr + exclude_bytes) &&
               simt::MainMemory::contains(a);
    };
    if (end <= addr)
        return h;
    for (uint64_t w = addr & ~7u; w < end; w += 8) {
        uint64_t word = 0;
        bool any = false;
        for (unsigned k = 0; k < 8; ++k) {
            const uint64_t a = w + k;
            if (a <= UINT32_MAX && hashed(static_cast<uint32_t>(a))) {
                any = true;
                word |= uint64_t{m.load8(static_cast<uint32_t>(a))} << (8 * k);
            }
        }
        if (any)
            h = (h ^ word) * kPrime;
    }
    return h;
}

/** Pages outside the written set that are not zero or not tag-free. */
unsigned
dirtyUnwrittenPages(const simt::MainMemory &m)
{
    std::vector<uint8_t> data(kPageBytes);
    PageTags tags{};
    unsigned bad = 0;
    for (uint32_t p = 0; p < kNumPages; ++p) {
        if (m.pageWritten(p))
            continue;
        const uint32_t base = simt::kDramBase + p * kPageBytes;
        m.copyOut(base, data.data(), kPageBytes);
        m.copyTagsOut(base, tags.data(), kPageBytes);
        const auto nonzero = [](auto x) { return x != 0; };
        if (std::any_of(data.begin(), data.end(), nonzero) ||
            std::any_of(tags.begin(), tags.end(), nonzero))
            ++bad;
    }
    return bad;
}

/** Pages the random writers aim at: both ends of DRAM, neighbours (so
 *  multi-byte stores straddle a page boundary) and a few lone pages. */
constexpr uint32_t kPagePool[] = {0,    1,    2,    7,    100,
                                  4095, 4096, 9000, kNumPages - 2,
                                  kNumPages - 1};

/** An address in a pool page, biased to the page's ends, with room for
 *  a @p width-byte access before the end of DRAM. */
uint32_t
poolAddr(support::Rng &rng, uint32_t width)
{
    const uint32_t page = kPagePool[rng.nextBounded(std::size(kPagePool))];
    uint32_t off;
    switch (rng.nextBounded(3)) {
    case 0: off = rng.nextBounded(8); break;
    case 1: off = kPageBytes - 1 - rng.nextBounded(4); break;
    default: off = rng.nextBounded(kPageBytes); break;
    }
    return std::min(simt::kDramBase + page * kPageBytes + off,
                    kDramEnd - width);
}

/** A value that is zero one time in three (zero writes must not break
 *  the image: a written page may be all-zero again). */
uint32_t
sparseValue(support::Rng &rng)
{
    return rng.nextBounded(3) == 0 ? 0 : rng.next();
}

/** One random operation through one of MainMemory's write paths. */
void
randomWrite(simt::MainMemory &m, support::Rng &rng)
{
    switch (rng.nextBounded(14)) {
    case 0:
        m.store8(poolAddr(rng, 1), static_cast<uint8_t>(sparseValue(rng)));
        break;
    case 1:
        m.store16(poolAddr(rng, 2), static_cast<uint16_t>(sparseValue(rng)));
        break;
    case 2: m.store32(poolAddr(rng, 4), sparseValue(rng)); break;
    case 3: {
        cap::CapMem c;
        c.bits = uint64_t{sparseValue(rng)} << 32 | sparseValue(rng);
        c.tag = rng.nextBounded(2) != 0;
        m.storeCap(poolAddr(rng, 8) & ~7u, c);
        break;
    }
    case 4: m.setWordTag(poolAddr(rng, 4), true); break;
    case 5: m.setWordTag(poolAddr(rng, 4), false); break;
    case 6: m.clearTagForStore(poolAddr(rng, 4), 1 + rng.nextBounded(4)); break;
    case 7: {
        std::vector<uint8_t> data(kPageBytes, 0);
        PageTags tags{}, mask{};
        for (unsigned k = rng.nextBounded(64); k > 0; --k)
            data[rng.nextBounded(kPageBytes)] =
                static_cast<uint8_t>(sparseValue(rng));
        for (uint64_t &t : tags)
            t = uint64_t{sparseValue(rng)} << 32 | sparseValue(rng);
        for (uint64_t &x : mask)
            x = rng.nextBounded(4) == 0 ? ~uint64_t{0}
                                        : uint64_t{rng.next()} << 32 |
                                              sparseValue(rng);
        const bool whole = rng.nextBounded(3) == 0;
        m.writePage(poolAddr(rng, 1) & ~(kPageBytes - 1), data.data(),
                    tags.data(), whole ? nullptr : mask.data());
        break;
    }
    case 8:
    case 9: {
        const uint32_t addr = poolAddr(rng, 1);
        const uint32_t bytes =
            std::min(1 + rng.nextBounded(3 * kPageBytes), kDramEnd - addr);
        if (rng.nextBounded(2) == 0) {
            m.zeroData(addr, bytes);
        } else {
            std::vector<uint8_t> data(bytes);
            for (uint8_t &b : data)
                b = static_cast<uint8_t>(rng.next() % 4 == 0 ? 0 : rng.next());
            m.writeData(addr, data.data(), bytes);
        }
        break;
    }
    case 10: {
        // Moves swap the set with the mappings.
        simt::MainMemory other(std::move(m));
        m = std::move(other);
        break;
    }
    case 11: {
        simt::MainMemory other;
        other = std::move(m);
        m = std::move(other);
        break;
    }
    case 12: {
        // loadState resets (zeroAll) and marks the image's pages: load a
        // memory's own image back, or that of a small random memory.
        support::ByteWriter w;
        if (rng.nextBounded(2) == 0) {
            m.saveState(w);
        } else {
            simt::MainMemory src;
            for (unsigned k = rng.nextBounded(4); k > 0; --k)
                src.store32(poolAddr(rng, 4), sparseValue(rng));
            src.setWordTag(poolAddr(rng, 4), rng.nextBounded(2) != 0);
            src.saveState(w);
        }
        support::ByteReader r(w.data().data(), w.size());
        ASSERT_TRUE(m.loadState(r)) << r.error();
        break;
    }
    default: {
        // A page written back to zero stays in the set.
        const uint32_t page = poolAddr(rng, 1) & ~(kPageBytes - 1);
        const std::vector<uint8_t> zero(kPageBytes, 0);
        const PageTags no_tags{};
        m.writePage(page, zero.data(), no_tags.data());
        break;
    }
    }
}

/** A dataHash window: random, near the pool pages, or across an end of
 *  DRAM or of the 32-bit address space. */
std::pair<uint32_t, uint32_t>
randomWindow(support::Rng &rng)
{
    switch (rng.nextBounded(5)) {
    case 0: return {kDramEnd - rng.nextBounded(3 * kPageBytes),
                    rng.nextBounded(6 * kPageBytes)};
    case 1: return {simt::kDramBase - rng.nextBounded(2 * kPageBytes),
                    rng.nextBounded(5 * kPageBytes)};
    case 2: return {0xffffffffu - rng.nextBounded(kPageBytes),
                    rng.nextBounded(2 * kPageBytes)};
    default: {
        const uint32_t a = poolAddr(rng, 1) - rng.nextBounded(kPageBytes);
        return {a, rng.nextBounded(4 * kPageBytes)};
    }
    }
}

TEST(MainMemoryWrittenSet, RandomWritesKeepInvariantImageAndHashes)
{
    support::Rng rng(2028);
    for (unsigned seq = 0; seq < 10; ++seq) {
        simt::MainMemory m;
        const unsigned ops = 1 + rng.nextBounded(80);
        for (unsigned k = 0; k < ops; ++k) {
            randomWrite(m, rng);
            ASSERT_FALSE(HasFatalFailure());
        }
        EXPECT_EQ(dirtyUnwrittenPages(m), 0u) << "sequence " << seq;
        support::ByteWriter w;
        m.saveState(w);
        EXPECT_EQ(w.data(), fullScanImage(m)) << "sequence " << seq;
        EXPECT_EQ(m.contentHash(), fullScanContentHash(m))
            << "sequence " << seq;
        for (unsigned k = 0; k < 24; ++k) {
            const auto [addr, bytes] = randomWindow(rng);
            uint32_t ex_addr = 0, ex_bytes = 0;
            if (rng.nextBounded(3) != 0) {
                const auto window = randomWindow(rng);
                ex_addr = rng.nextBounded(2) == 0
                              ? addr + rng.nextBounded(bytes + 1)
                              : window.first;
                ex_bytes = window.second;
            }
            EXPECT_EQ(m.dataHash(addr, bytes, ex_addr, ex_bytes),
                      byteLoopDataHash(m, addr, bytes, ex_addr, ex_bytes))
                << "sequence " << seq << std::hex << " window 0x" << addr
                << "+0x" << bytes << " excluding 0x" << ex_addr << "+0x"
                << ex_bytes;
        }
    }
}

TEST(MainMemoryWrittenSet, StoresAcrossAPageEndMarkBothPages)
{
    simt::MainMemory m;
    const uint32_t page7 = simt::kDramBase + 7 * kPageBytes;
    m.store16(page7 + kPageBytes - 1, 0xabcd);
    m.store32(page7 + 3 * kPageBytes - 2, 0x12345678);
    for (const uint32_t p : {7u, 8u, 9u, 10u})
        EXPECT_TRUE(m.pageWritten(p)) << p;
    EXPECT_FALSE(m.pageWritten(6));
    EXPECT_FALSE(m.pageWritten(11));
    EXPECT_EQ(dirtyUnwrittenPages(m), 0u);
}

TEST(MainMemoryWrittenSet, WholeDramWindowsMatchByteLoop)
{
    // Windows over all of DRAM and past both of its ends, with an
    // exclusion inside and one that wraps (and so excludes nothing).
    simt::MainMemory m = handBuiltMemory();
    EXPECT_EQ(dirtyUnwrittenPages(m), 0u);
    const uint32_t below = simt::kDramBase - 64;
    const uint32_t all = simt::kDramSize + 128;
    for (const auto &[ex_addr, ex_bytes] :
         std::vector<std::pair<uint32_t, uint32_t>>{
             {0, 0}, {kFirstWord + 2, 4099}, {0xfffffff0u, 0x20}}) {
        EXPECT_EQ(m.dataHash(below, all, ex_addr, ex_bytes),
                  byteLoopDataHash(m, below, all, ex_addr, ex_bytes))
            << std::hex << ex_addr;
    }
    EXPECT_EQ(m.dataHash(0xfffff000u, 0x2000), byteLoopDataHash(
                                                   m, 0xfffff000u, 0x2000,
                                                   0, 0));
    const simt::MainMemory fresh;
    EXPECT_EQ(fresh.contentHash(), fullScanContentHash(fresh));
    EXPECT_EQ(fresh.dataHash(below, all), byteLoopDataHash(fresh, below,
                                                           all, 0, 0));
}

TEST(MainMemoryWrittenSet, SuiteSteppedImagesMatchFullScanOracle)
{
    // For every suite kernel: the image of a stepped launch caught
    // mid-kernel equals the one with its base memory serialised by the
    // full scan, and so does the base memory after finish() committed
    // the epoch and after restoreBase() rewound it.
    namespace ckpt = simt::ckpt;
    const simt::SmConfig cfg = makeCfg(true, 1);
    for (const auto &b : kernels::makeSuite()) {
        SCOPED_TRACE(b->name());
        Leg leg = makeLeg(b->name(), cfg);
        const uint64_t before = leg.dev->dram().contentHash();
        EXPECT_EQ(before, fullScanContentHash(leg.dev->dram()));
        auto launch =
            leg.dev->beginStepped(leg.compiled, leg.prep.cfg, leg.prep.args);
        launch->runUntil(200);
        const std::vector<uint8_t> image = launch->saveCheckpoint();
        std::vector<ckpt::Section> sections;
        ASSERT_TRUE(ckpt::readImage(image, sections));
        support::ByteWriter oracle;
        oracle.bytes(reinterpret_cast<const uint8_t *>(ckpt::kMagic),
                     ckpt::kMagicLen);
        oracle.u32(ckpt::kVersion);
        for (const ckpt::Section &sec : sections) {
            ckpt::writeSection(oracle, sec.id,
                               sec.id == ckpt::kSectionBaseMem
                                   ? fullScanImage(leg.dev->dram())
                                   : sec.payload);
        }
        EXPECT_EQ(oracle.data(), image);

        launch->finish(LaunchPolicy{}.maxCycles);
        support::ByteWriter committed;
        leg.dev->dram().saveState(committed);
        EXPECT_EQ(committed.data(), fullScanImage(leg.dev->dram()));
        EXPECT_EQ(dirtyUnwrittenPages(leg.dev->dram()), 0u);
        launch->restoreBase();
        EXPECT_EQ(leg.dev->dram().contentHash(), before);
    }
}

// ------------------------------------------------------------ Sm images

/** A divergent 8-lane kernel for Sm-level images: a per-lane trip-count
 *  loop, then a store through an integer address (which traps, halting
 *  the lane, on a CHERI machine). Entry at 0x10, past four halts. */
std::vector<uint32_t>
divergentLoopProgram()
{
    using isa::Op;
    kc::Assembler a;
    for (int i = 0; i < 4; ++i)
        a.emit(Op::SIMT_HALT, 0, 0, 0);
    const auto head = a.newLabel();
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_LANEID);
    a.emitI(Op::ADDI, 2, 1, 1); // n = lane + 1
    a.emitI(Op::ADDI, 3, 0, 0); // acc = 0
    a.emitI(Op::ADDI, 4, 0, 1); // i = 1
    a.emit(Op::SIMT_PUSH, 0, 0, 0);
    a.place(head);
    a.emitR(Op::MUL, 5, 4, 4);
    a.emitR(Op::ADD, 3, 3, 5); // acc += i * i
    a.emitI(Op::ADDI, 4, 4, 1);
    a.emitBranch(Op::BGE, 2, 4, head);
    a.emit(Op::SIMT_POP, 0, 0, 0);
    a.emitI(Op::CSRRS, 6, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 6, 6, 2);
    a.emitI(Op::LUI, 7, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::ADD, 7, 7, 6);
    a.emit(Op::SW, 0, 7, 3, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    return a.finalize();
}

simt::SmConfig
smImageConfig(simt::SmConfig cfg)
{
    cfg.numWarps = 4;
    cfg.numLanes = 8;
    cfg.vrfCapacity = 3; // small enough to spill
    return cfg;
}

TEST(SmImage, MatchesRecordedVersion2Images)
{
    // CRCs of Sm::saveState images at four points of the divergent loop
    // (mid-loop, partly halted, finished). They pin the version-2 image
    // format, which must not follow the in-memory lane layout. The images
    // also carry the accelerated engine's host-only coverage counters
    // (fast-path and packed-memory steps, the simhost_* stats), so a
    // change to what that engine accelerates moves these CRCs too.
    const std::pair<simt::SmConfig, uint32_t> cases[] = {
        {simt::SmConfig::baseline(), 0x3cd325efu},
        {simt::SmConfig::cheri(), 0xf5bdf6fau},
        {simt::SmConfig::cheriOptimised(), 0x6e86409fu},
    };
    for (const auto &[preset, want] : cases) {
        const simt::SmConfig cfg = smImageConfig(preset);
        simt::MainMemory dram;
        simt::MemShard mem(dram);
        simt::Sm sm(cfg, mem);
        sm.loadProgram(divergentLoopProgram());
        sm.launch(0x10, 1);
        uint32_t crc = 0;
        for (const uint64_t stop : {40u, 120u, 300u, 100000u}) {
            sm.runUntil(stop);
            support::ByteWriter w;
            sm.saveState(w);
            crc = support::crc32(w.data().data(), w.size()) ^ (crc * 31);
        }
        EXPECT_TRUE(sm.finished());
        EXPECT_EQ(crc, want) << std::hex << crc;
    }
}

/** A freshly launched 8-lane Sm's image and the offset of warp 0's
 *  first halted-mask byte in it. */
struct LaunchedImage
{
    std::vector<uint8_t> bytes;
    size_t halted0 = 0;
};

LaunchedImage
launchedImage(const simt::SmConfig &cfg)
{
    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(cfg, mem);
    sm.loadProgram(divergentLoopProgram());
    sm.launch(0x10, 1);
    support::ByteWriter w;
    sm.saveState(w);
    LaunchedImage img;
    img.bytes = w.data();
    // Warp 0's record: lane count, eight PCs of 0x10, eight zero nests,
    // then the halted mask's lane count and one byte per lane.
    std::vector<uint8_t> pattern = {8, 0, 0, 0};
    for (int i = 0; i < 8; ++i)
        pattern.insert(pattern.end(), {0x10, 0, 0, 0});
    pattern.insert(pattern.end(), 8 * 4, 0);
    pattern.insert(pattern.end(), {8, 0, 0, 0});
    const auto at = std::search(img.bytes.begin(), img.bytes.end(),
                                pattern.begin(), pattern.end());
    EXPECT_NE(at, img.bytes.end());
    img.halted0 = static_cast<size_t>(at - img.bytes.begin()) +
                  pattern.size();
    return img;
}

/** Restore @p bytes into a fresh Sm; the loader's error, or "" when it
 *  accepted the image. */
std::string
restoreError(const simt::SmConfig &cfg, const std::vector<uint8_t> &bytes)
{
    simt::MainMemory dram;
    simt::MemShard mem(dram);
    simt::Sm sm(cfg, mem);
    support::ByteReader r(bytes.data(), bytes.size());
    const bool ok = sm.loadState(r);
    EXPECT_EQ(ok, !r.failed());
    return ok ? std::string() : r.error();
}

TEST(SmImage, RefusesMalformedWarpState)
{
    const simt::SmConfig cfg = smImageConfig(simt::SmConfig::cheriOptimised());
    LaunchedImage img = launchedImage(cfg);
    ASSERT_EQ(img.bytes.at(img.halted0 + 3), 0);
    EXPECT_EQ(restoreError(cfg, img.bytes), "");

    // A halted byte must be 0 or 1.
    img.bytes[img.halted0 + 3] = 2;
    EXPECT_EQ(restoreError(cfg, img.bytes),
              "lane mask byte is neither 0 nor 1");

    // Lane 3 halted while the saved count still says all 8 are live: the
    // count would drive the full-warp shortcuts wrongly.
    img.bytes[img.halted0 + 3] = 1;
    EXPECT_EQ(restoreError(cfg, img.bytes),
              "warp live-thread count disagrees with its halted lanes");
}

TEST(RegFileImage, RefusesBadKindsAndOutOfRangeIndices)
{
    // One warp-0 register of each kind in a two-slot VRF, with one id on
    // each free list: r1 is a Vector, r2 Spilled, r3 Scalar (its slot
    // freed) and spill id 0 free (r1's, reloaded).
    simt::SmConfig cfg;
    cfg.numWarps = 2;
    cfg.numLanes = 8;
    cfg.vrfCapacity = 2;
    support::StatSet stats;
    simt::RegFileSystem rf(cfg, stats);
    simt::RfAccess acc;
    const simt::LaneMask all = simt::lowLanes(8);
    simt::LaneArray<uint32_t> v{};
    for (unsigned i = 0; i < 8; ++i)
        v[i] = i * i * 7 + 3; // never affine
    for (const unsigned reg : {1u, 2u, 3u})
        rf.writeData(0, reg, v, all, acc);
    rf.readData(0, 1, v, acc);
    rf.writeData(0, 3, simt::LaneArray<uint32_t>{}, all, acc);
    support::ByteWriter w;
    rf.saveState(w);
    const std::vector<uint8_t> image = w.data();

    // Offsets: 22-byte entries after a u32 count, no metadata entries,
    // then the slot table (u32 lane count + 8 u64 lanes per vector),
    // the 17-byte slot infos, the free slots, three u32 counters, the
    // empty flat file, the spill store and the free spill ids.
    const auto u32_at = [&](size_t off) {
        uint32_t x = 0;
        for (int i = 3; i >= 0; --i)
            x = (x << 8) | image.at(off + i);
        return x;
    };
    const size_t entries = cfg.numVectorRegs();
    const auto entry = [](unsigned reg, size_t field) {
        return 4 + reg * 22 + field;
    };
    size_t off = 4 + entries * 22 + 4;
    const uint32_t slots = u32_at(off);
    ASSERT_EQ(slots, 2u);
    off += 4 + slots * 68;
    off += 4 + slots * 17;
    ASSERT_EQ(u32_at(off), 1u);
    const size_t free_slot = off + 4;
    off = free_slot + 4 + 12 + 4;
    const uint32_t spills = u32_at(off);
    ASSERT_EQ(spills, 2u);
    off += 4 + spills * 68;
    ASSERT_EQ(u32_at(off), 1u);
    const size_t free_spill = off + 4;

    const auto restore_error = [&](size_t at, uint8_t byte) {
        std::vector<uint8_t> bytes = image;
        bytes.at(at) = byte;
        support::StatSet s2;
        simt::RegFileSystem target(cfg, s2);
        support::ByteReader r(bytes.data(), bytes.size());
        const bool ok = target.loadState(r);
        EXPECT_EQ(ok, !r.failed());
        return ok ? std::string() : r.error();
    };
    EXPECT_EQ(restore_error(entry(3, 0), image[entry(3, 0)]), "");
    EXPECT_EQ(restore_error(entry(3, 0), 5), "bad register-file entry kind");
    EXPECT_EQ(restore_error(entry(3, 0), 1), "bad register-file entry kind");
    EXPECT_EQ(restore_error(entry(1, 14), 2),
              "register-file VRF slot out of range");
    EXPECT_EQ(restore_error(entry(2, 18), 2),
              "register-file spill id out of range");
    EXPECT_EQ(restore_error(free_slot, 2), "VRF free-list id out of range");
    EXPECT_EQ(restore_error(free_spill, 2), "VRF free-list id out of range");

    // A data stride must fit the SRF's 8 bits: 128 and 256 are refused,
    // not wrapped to -128 and 0.
    ASSERT_EQ(u32_at(entry(3, 5)), 0u);
    EXPECT_EQ(restore_error(entry(3, 5), 0x80),
              "register-file stride wider than 8 bits");
    EXPECT_EQ(restore_error(entry(3, 6), 0x01),
              "register-file stride wider than 8 bits");
    // A slot or spill id past its table is refused before it is
    // narrowed, also where the excess lies above the low 16 bits; and
    // only a Vector has a slot, only a Spilled entry a spill id.
    ASSERT_LT(u32_at(entry(1, 14)), 2u);
    ASSERT_LT(u32_at(entry(2, 18)), 2u);
    EXPECT_EQ(restore_error(entry(1, 16), 0x01),
              "register-file VRF slot out of range");
    EXPECT_EQ(restore_error(entry(1, 17), 0x80),
              "register-file VRF slot out of range");
    EXPECT_EQ(restore_error(entry(2, 20), 0x01),
              "register-file spill id out of range");
    EXPECT_EQ(restore_error(entry(3, 14), 0x00),
              "register-file VRF slot out of range");
    EXPECT_EQ(restore_error(entry(1, 18), 0x00),
              "register-file spill id out of range");
    // A data VRF lane holds 32 bits.
    const size_t slot0_lane0 = 4 + entries * 22 + 4 + 4 + 4;
    EXPECT_EQ(restore_error(slot0_lane0 + 4, 0x01),
              "VRF data lane wider than 32 bits");
    // A slot's owner is a register of a warp of this configuration.
    const size_t slot0_warp = 4 + entries * 22 + 4 + 4 + slots * 68 + 4 + 1;
    ASSERT_EQ(u32_at(slot0_warp), 0u);
    EXPECT_EQ(restore_error(slot0_warp, 2), "VRF slot owner out of range");
    EXPECT_EQ(restore_error(slot0_warp + 4, 32),
              "VRF slot owner out of range");
}

TEST(SmImage, NarrowedPccFaultsAlikeAfterRestore)
{
    // The odd lanes jump through a 16-byte code capability and run a
    // loop inside it, then fall off its end: a PccViolation at 64. A
    // checkpoint taken after the jump and restored (either engine) must
    // raise the same trap as the uninterrupted run, although the
    // restored warp has forgotten which lanes' PCCs passed a fetch check.
    using isa::Op;
    kc::Assembler a;
    const auto l_even = a.newLabel();
    const auto l_func = a.newLabel();
    a.emitI(Op::CSRRS, 1, 0, isa::CSR_HARTID);
    a.emitI(Op::ANDI, 2, 1, 1);
    a.emitI(Op::ADDI, 10, 0, 40);
    a.emitBranch(Op::BEQ, 2, 0, l_even);
    a.emitI(Op::CSPECIALRW, 8, 0, isa::SCR_PCC);
    a.emitI(Op::ADDI, 9, 0, 12 * 4); // l_func
    a.emitR(Op::CSETADDR, 8, 8, 9);
    a.emitI(Op::CSETBOUNDSIMM, 8, 8, 16);
    a.emitI(Op::JALR, 0, 8, 0);
    a.place(l_even); // 9
    a.emitI(Op::ADDI, 10, 10, -1);
    a.emitBranch(Op::BNE, 10, 0, l_even);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    a.place(l_func); // 12
    ASSERT_EQ(a.size(), 12u);
    a.emitI(Op::ADDI, 10, 10, -1);
    a.emitBranch(Op::BNE, 10, 0, l_func);
    a.emitI(Op::ADDI, 11, 0, 1);
    a.emitI(Op::ADDI, 11, 11, 1);
    a.emit(Op::SIMT_HALT, 0, 0, 0); // 16: past the bounds
    const std::vector<uint32_t> code = a.finalize();

    for (simt::SmConfig preset :
         {simt::SmConfig::cheri(), simt::SmConfig::cheriOptimised()}) {
        preset.numWarps = 2;
        preset.numLanes = 8;
        const auto config = [&](bool fast) {
            simt::SmConfig cfg = preset;
            cfg.hostFastPath = fast;
            return cfg;
        };
        // The uninterrupted run.
        simt::MainMemory dram;
        simt::MemShard mem(dram);
        simt::Sm whole(config(true), mem);
        whole.loadProgram(code);
        whole.launch(0, 1);
        ASSERT_TRUE(whole.run());
        const simt::TrapInfo want = whole.firstTrap();
        ASSERT_TRUE(want.trapped);
        EXPECT_EQ(want.kind, simt::TrapKind::PccViolation);
        EXPECT_EQ(want.pc, 16u * 4);
        EXPECT_EQ(want.lane % 2, 1u);

        for (const bool fast_from : {true, false}) {
            for (const bool fast_to : {true, false}) {
                for (const uint64_t stop : {whole.cycles() / 3,
                                            whole.cycles() / 2,
                                            whole.cycles() * 2 / 3}) {
                    SCOPED_TRACE(testing::Message()
                                 << "from " << fast_from << " to "
                                 << fast_to << " stop " << stop);
                    simt::MainMemory d1, d2;
                    simt::MemShard m1(d1), m2(d2);
                    simt::Sm first(config(fast_from), m1);
                    first.loadProgram(code);
                    first.launch(0, 1);
                    first.runUntil(stop);
                    ASSERT_FALSE(first.trapped());
                    support::ByteWriter w;
                    first.saveState(w);
                    simt::Sm second(config(fast_to), m2);
                    support::ByteReader r(w.data());
                    ASSERT_TRUE(second.loadState(r)) << r.error();
                    ASSERT_TRUE(second.run());
                    const simt::TrapInfo got = second.firstTrap();
                    EXPECT_TRUE(got.trapped);
                    EXPECT_EQ(got.kind, want.kind);
                    EXPECT_EQ(got.warp, want.warp);
                    EXPECT_EQ(got.lane, want.lane);
                    EXPECT_EQ(got.pc, want.pc);
                    EXPECT_EQ(second.cycles(), whole.cycles());
                }
            }
        }
    }
}

} // namespace
