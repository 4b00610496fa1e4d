#include "bench/faultcampaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "bench/bench_common.hpp"
#include "kc/codegen.hpp"
#include "nocl/nocl.hpp"
#include "support/journal.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace benchcommon
{

namespace
{

using simt::FaultPlan;
using simt::FaultSite;

/** Suite indices whose benchmark name matches @p filter (empty = all). */
std::vector<size_t>
selectSuiteIndices(const std::string &filter)
{
    const auto suite = kernels::makeSuite();
    std::vector<size_t> selected;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (matchesAny(filter, suite[i]->name()))
            selected.push_back(i);
    }
    return selected;
}

/**
 * Run @p n_tasks independent tasks over a worker pool ( @p threads,
 * 0 = hardware concurrency, 1 = inline). Each task writes only its own
 * output slot, so completion order cannot affect the result.
 */
template <typename Fn>
void
runTaskPool(size_t n_tasks, unsigned threads, Fn fn)
{
    unsigned n = threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    n = std::min<unsigned>(n, static_cast<unsigned>(n_tasks));
    if (n <= 1) {
        for (size_t i = 0; i < n_tasks; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= n_tasks)
                    return;
                fn(i);
            }
        });
    }
    for (auto &worker : pool)
        worker.join();
}

/** Fault-injection targets derived from a benchmark's golden run. */
struct Targets
{
    uint32_t slotAddr = 0; ///< first pointer slot in the argument block
    uint32_t dataAddr = 0; ///< a word of the first input buffer
    uint32_t dataBit = 0;
    uint32_t capmetaBit = 0;
    uint32_t ptrTagBit = 0;  ///< high pointer bit (CHERI-off "tag")
    uint32_t ptrMetaBit = 0; ///< low pointer bit (CHERI-off "capmeta")
    bool haveSlot = false;
    bool haveData = false;
};

/**
 * Derive the targets for one benchmark, drawing every random choice in
 * a fixed order from a (seed, bench index) RNG so campaigns replay
 * bit-identically. The CHERI-off pointer-flip bits stay within [2, 19]:
 * the flipped address remains 4-byte aligned and inside DRAM. Wild
 * addresses outside DRAM take a structured `unmapped access` trap (so
 * they classify as detected), but this campaign's protection classes
 * measure silent corruption, not crash containment -- a baseline flip
 * that leaves the address space would overstate the baseline machine.
 */
Targets
deriveTargets(const kernels::Prepared &p, const nocl::RunResult &golden,
              uint64_t seed, size_t bench_idx)
{
    Targets t;
    support::Rng rng(0x9e3779b97f4a7c15ull * (seed + 1) +
                     static_cast<uint64_t>(bench_idx));

    if (golden.kernel) {
        for (const kc::ParamSlot &slot : golden.kernel->params) {
            if (slot.isPtr) {
                t.slotAddr = kc::argBlockAddress() + slot.offset;
                t.haveSlot = true;
                break;
            }
        }
    }
    const nocl::Buffer *buf = nullptr;
    for (const nocl::Arg &arg : p.args) {
        if (arg.kind == nocl::Arg::Kind::Buf) {
            buf = &arg.buf;
            break;
        }
    }

    // Fixed draw order regardless of which targets exist.
    const uint32_t buf_words = buf ? std::max(1u, buf->bytes / 4) : 1;
    const uint32_t word_idx = rng.nextBounded(buf_words);
    t.dataBit = rng.nextBounded(32);
    t.capmetaBit = rng.nextBounded(32);
    t.ptrTagBit = 12 + rng.nextBounded(8);
    t.ptrMetaBit = 2 + rng.nextBounded(10);
    if (buf) {
        t.dataAddr = buf->addr + 4 * word_idx;
        t.haveData = true;
    }
    return t;
}

/** The three per-benchmark fault plans for one protection mode. */
std::vector<std::pair<std::string, FaultPlan>>
plansFor(const Targets &t, bool cheri)
{
    std::vector<std::pair<std::string, FaultPlan>> plans;
    if (t.haveSlot) {
        FaultPlan tag;
        FaultPlan capmeta;
        if (cheri) {
            tag.site = FaultSite::TagClear;
            tag.addr = t.slotAddr;
            capmeta.site = FaultSite::DramWordFlip;
            capmeta.addr = t.slotAddr + 4;
            capmeta.bit = t.capmetaBit;
        } else {
            // Without tags or metadata the nearest physical analogue is
            // a bit error in the stored pointer word itself.
            tag.site = FaultSite::DramWordFlip;
            tag.addr = t.slotAddr;
            tag.bit = t.ptrTagBit;
            capmeta.site = FaultSite::DramWordFlip;
            capmeta.addr = t.slotAddr;
            capmeta.bit = t.ptrMetaBit;
        }
        plans.emplace_back("tag", tag);
        plans.emplace_back("capmeta", capmeta);
    }
    if (t.haveData) {
        FaultPlan data;
        data.site = FaultSite::DramWordFlip;
        data.addr = t.dataAddr;
        data.bit = t.dataBit;
        plans.emplace_back("data", data);
    }
    return plans;
}

/** Run the campaign cases of one benchmark (one worker-pool task). */
std::vector<FaultCase>
runBenchCases(size_t bench_idx, const CampaignOptions &opts)
{
    const simt::SmConfig base_cfg = [&] {
        simt::SmConfig cfg = opts.cheri ? simt::SmConfig::cheriOptimised()
                                        : simt::SmConfig::baseline();
        cfg.numSms = opts.sms;
        return cfg;
    }();
    const kc::CompileOptions::Mode mode =
        opts.cheri ? kc::CompileOptions::Mode::Purecap
                   : kc::CompileOptions::Mode::Baseline;

    // ---- Golden (fault-free) reference run ----
    std::string name;
    bool golden_ok = false;
    uint64_t golden_cycles = 0;
    Targets targets;
    uint32_t heap_lo = 0, heap_hi = 0;
    std::vector<std::pair<std::string, FaultPlan>> plans;
    std::vector<uint64_t> golden_hashes;
    {
        auto suite = kernels::makeSuite();
        kernels::Benchmark &bench = *suite.at(bench_idx);
        name = bench.name();

        nocl::Device dev(base_cfg, mode);
        kernels::Prepared p = bench.prepare(dev, opts.size);
        const nocl::RunResult golden =
            dev.launch(*p.kernel, p.cfg, p.args);
        golden_ok =
            golden.completed && !golden.trapped && p.verify(dev);
        golden_cycles = golden.cycles;
        heap_lo = dev.heapStart();
        heap_hi = dev.heapEnd();

        targets = deriveTargets(p, golden, opts.seed, bench_idx);
        plans = plansFor(targets, opts.cheri);

        // One golden hash per case, each excluding that case's injected
        // word (faults in the argument block sit below the heap and
        // need no exclusion; the window is simply empty there).
        for (const auto &[cls, plan] : plans) {
            const uint32_t excl = plan.addr & ~3u;
            golden_hashes.push_back(dev.dram().dataHash(
                heap_lo, heap_hi - heap_lo, excl, 4));
        }
    }

    // ---- One faulty re-run per class ----
    std::vector<FaultCase> cases;
    for (size_t c = 0; c < plans.size(); ++c) {
        FaultCase fc;
        fc.bench = name;
        fc.cls = plans[c].first;
        fc.plan = plans[c].second;
        fc.goldenOk = golden_ok;

        simt::SmConfig cfg = base_cfg;
        cfg.faultPlan = fc.plan;
        auto suite = kernels::makeSuite();
        kernels::Benchmark &bench = *suite.at(bench_idx);
        nocl::Device dev(cfg, mode);
        if (opts.trace != nullptr) {
            opts.trace->beginTrack(
                std::string(opts.cheri ? "cheri/" : "baseline/") + name +
                "/" + fc.cls);
            dev.attachTraceSession(opts.trace);
        }
        kernels::Prepared p = bench.prepare(dev, opts.size);

        nocl::LaunchPolicy policy;
        policy.maxCycles = std::max<uint64_t>(golden_cycles * 4, 100'000);
        const nocl::RunResult run =
            dev.launch(*p.kernel, p.cfg, p.args, policy);

        fc.trapKind = run.trapKind;
        fc.trapAddr = run.trapAddr;
        fc.trapInfo = run.trapInfo;
        fc.trapSm = run.trapSm;
        fc.kernelName = run.kernel ? run.kernel->name : name;
        fc.purecap = opts.cheri;
        fc.faultInjections = run.faultInjections;
        fc.cycles = run.cycles;
        fc.watchdog = run.watchdogFires;

        if (run.trapped) {
            fc.outcome = FaultOutcome::Detected;
        } else {
            const uint32_t excl = fc.plan.addr & ~3u;
            const uint64_t hash = dev.dram().dataHash(
                heap_lo, heap_hi - heap_lo, excl, 4);
            const bool clean = run.completed && p.verify(dev) &&
                               hash == golden_hashes[c];
            fc.outcome =
                clean ? FaultOutcome::Masked : FaultOutcome::Corrupt;
        }
        cases.push_back(std::move(fc));
    }
    return cases;
}

} // namespace

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::Detected:
        return "detected";
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Corrupt:
        return "corrupt";
    }
    return "corrupt";
}

uint64_t
CampaignResult::classificationHash() const
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&](uint64_t v) { h = (h ^ v) * kPrime; };
    for (const FaultCase &fc : cases) {
        for (char ch : fc.bench)
            mix(static_cast<uint64_t>(ch));
        for (char ch : fc.cls)
            mix(static_cast<uint64_t>(ch));
        mix(static_cast<uint64_t>(fc.outcome));
        mix(static_cast<uint64_t>(fc.trapKind));
        mix(fc.trapAddr);
    }
    return h;
}

CampaignResult
runFaultCampaign(const CampaignOptions &opts)
{
    const std::vector<size_t> selected = selectSuiteIndices(opts.filter);

    // Benchmarks are independent tasks; each slot is written by exactly
    // one worker, so completion order cannot affect the result.
    std::vector<std::vector<FaultCase>> rows(selected.size());
    runTaskPool(selected.size(),
                opts.trace != nullptr ? 1 : opts.threads,
                [&](size_t i) { rows[i] = runBenchCases(selected[i], opts); });

    CampaignResult res;
    for (auto &row : rows) {
        for (FaultCase &fc : row) {
            switch (fc.outcome) {
              case FaultOutcome::Detected:
                ++res.detected;
                break;
              case FaultOutcome::Masked:
                ++res.masked;
                break;
              case FaultOutcome::Corrupt:
                ++res.corrupt;
                if (fc.cls != "data")
                    ++res.protCorrupt;
                break;
            }
            res.cases.push_back(std::move(fc));
        }
    }
    return res;
}

// ---------------------------------------------------------------------
// Fork-from-state delta execution (DESIGN.md section 13): one prepared
// device per benchmark runs every fault site as a short delta off the
// pre-launch state instead of rebuilding a 64 MiB device per site.
// ---------------------------------------------------------------------

namespace
{

using Clock = std::chrono::steady_clock;

uint64_t
elapsedNs(Clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
}

/** The per-benchmark delta executor: device, prepared run, compiled
 *  kernel and golden reference, reused across all of its fault sites. */
struct DeltaBench
{
    std::string name;
    std::unique_ptr<kernels::Benchmark> bench;
    std::unique_ptr<nocl::Device> dev;
    kernels::Prepared prep;
    std::shared_ptr<const kc::CompiledKernel> compiled;
    nocl::RunResult golden;
    bool goldenOk = false;
    uint64_t maxCycles = 0; ///< faulty-run watchdog (as runBenchCases)
    uint32_t heapLo = 0;
    uint32_t heapHi = 0;
};

/**
 * Build the delta executor for one benchmark and run the golden
 * reference as a stepped launch. The golden output is left committed in
 * the base DRAM and the stepped launch (holding the page-undo log) is
 * returned: the caller hashes whatever it needs from the golden image,
 * then calls restoreBase() on it to rewind to the pre-launch state.
 * When @p ckpt_image is non-null the pre-run checkpoint ("fork point")
 * is serialized into it and its save time into @p ckpt_save_ns.
 */
std::unique_ptr<nocl::SteppedLaunch>
setupDeltaBench(size_t bench_idx, kernels::Size size, bool cheri,
                unsigned sms, DeltaBench &db,
                std::vector<uint8_t> *ckpt_image = nullptr,
                uint64_t *ckpt_save_ns = nullptr)
{
    simt::SmConfig cfg = cheri ? simt::SmConfig::cheriOptimised()
                               : simt::SmConfig::baseline();
    cfg.numSms = sms;
    const kc::CompileOptions::Mode mode =
        cheri ? kc::CompileOptions::Mode::Purecap
              : kc::CompileOptions::Mode::Baseline;

    auto suite = kernels::makeSuite();
    db.bench = std::move(suite.at(bench_idx));
    db.name = db.bench->name();
    db.dev = std::make_unique<nocl::Device>(cfg, mode);
    db.prep = db.bench->prepare(*db.dev, size);
    db.compiled = db.dev->compileCached(*db.prep.kernel, db.prep.cfg);

    auto g = db.dev->beginStepped(db.compiled, db.prep.cfg, db.prep.args);
    if (ckpt_image != nullptr) {
        const Clock::time_point t0 = Clock::now();
        *ckpt_image = g->saveCheckpoint();
        if (ckpt_save_ns != nullptr)
            *ckpt_save_ns = elapsedNs(t0);
    }
    db.golden = g->finish(nocl::LaunchPolicy{}.maxCycles);
    db.goldenOk =
        db.golden.completed && !db.golden.trapped && db.prep.verify(*db.dev);
    db.heapLo = db.dev->heapStart();
    db.heapHi = db.dev->heapEnd();
    db.maxCycles = std::max<uint64_t>(db.golden.cycles * 4, 100'000);
    return g;
}

/** The case's golden hash, from the committed golden memory image
 *  (excluding the word the plan will corrupt, as runBenchCases). */
uint64_t
goldenHashFor(const DeltaBench &db, const FaultPlan &plan)
{
    return db.dev->dram().dataHash(db.heapLo, db.heapHi - db.heapLo,
                                   plan.addr & ~3u, 4);
}

/** Outcome of one delta-executed fault site. */
struct SiteRun
{
    FaultOutcome outcome = FaultOutcome::Corrupt;
    nocl::RunResult run;
};

/**
 * Run one fault site as a delta: begin a stepped launch with the plan's
 * memory-site fault, finish it under the campaign watchdog, classify
 * with the exact runBenchCases rules, and rewind the base memory.
 */
SiteRun
runDeltaSite(DeltaBench &db, const FaultPlan &plan, uint64_t golden_hash)
{
    SiteRun sr;
    auto sl =
        db.dev->beginStepped(db.compiled, db.prep.cfg, db.prep.args, &plan);
    sr.run = sl->finish(db.maxCycles);
    if (sr.run.trapped) {
        sr.outcome = FaultOutcome::Detected;
    } else {
        const uint64_t hash = goldenHashFor(db, plan);
        const bool clean = sr.run.completed && db.prep.verify(*db.dev) &&
                           hash == golden_hash;
        sr.outcome = clean ? FaultOutcome::Masked : FaultOutcome::Corrupt;
    }
    sl->restoreBase();
    return sr;
}

/**
 * Derive @p count scaled fault-site plans for one benchmark. Classes
 * cycle tag -> capmeta -> data; every random choice is drawn in a fixed
 * order from a (seed, bench index) RNG, so the same options always
 * enumerate the same site list (the resume-journal contract). TagSet is
 * deliberately excluded: forging a tag could silently corrupt under
 * CHERI, which would break the campaign's zero-silent-corruption gate
 * for reasons outside the protection model being evaluated.
 */
std::vector<std::pair<std::string, FaultPlan>>
deriveScaledPlans(const kc::CompiledKernel &compiled,
                  const std::vector<nocl::Arg> &args, bool cheri,
                  uint64_t seed, size_t bench_idx, uint64_t count)
{
    std::vector<uint32_t> slots;
    for (const kc::ParamSlot &s : compiled.params)
        if (s.isPtr)
            slots.push_back(kc::argBlockAddress() + s.offset);
    std::vector<nocl::Buffer> bufs;
    for (const nocl::Arg &a : args)
        if (a.kind == nocl::Arg::Kind::Buf && a.buf.bytes >= 4)
            bufs.push_back(a.buf);

    support::Rng rng(0x2545f4914f6cdd1dull * (seed + 1) ^
                     0x9e3779b97f4a7c15ull *
                         (static_cast<uint64_t>(bench_idx) + 1));
    static const char *const kClasses[3] = {"tag", "capmeta", "data"};

    std::vector<std::pair<std::string, FaultPlan>> plans;
    plans.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
        // Fixed draw order regardless of class and available targets.
        const uint32_t slot_pick = rng.nextBounded(
            std::max<uint32_t>(1, static_cast<uint32_t>(slots.size())));
        const uint32_t buf_pick = rng.nextBounded(
            std::max<uint32_t>(1, static_cast<uint32_t>(bufs.size())));
        const uint32_t word_max =
            bufs.empty() ? 1 : std::max(1u, bufs[buf_pick].bytes / 4);
        const uint32_t word_pick = rng.nextBounded(word_max);
        const uint32_t bit = rng.nextBounded(32);
        const uint32_t hi_bit = 12 + rng.nextBounded(8);
        const uint32_t lo_bit = 2 + rng.nextBounded(10);

        std::string cls = kClasses[j % 3];
        if (slots.empty() && cls != "data")
            cls = "data";
        if (bufs.empty() && cls == "data")
            cls = "capmeta";

        FaultPlan plan;
        if (cls == "tag") {
            if (cheri) {
                plan.site = FaultSite::TagClear;
                plan.addr = slots[slot_pick];
            } else {
                plan.site = FaultSite::DramWordFlip;
                plan.addr = slots[slot_pick];
                plan.bit = hi_bit;
            }
        } else if (cls == "capmeta") {
            plan.site = FaultSite::DramWordFlip;
            if (cheri) {
                plan.addr = slots[slot_pick] + 4;
                plan.bit = bit;
            } else {
                plan.addr = slots[slot_pick];
                plan.bit = lo_bit;
            }
        } else {
            plan.site = FaultSite::DramWordFlip;
            plan.addr = bufs[buf_pick].addr + 4 * word_pick;
            plan.bit = bit;
        }
        plans.emplace_back(cls, plan);
    }
    return plans;
}

// ---- Resume journal ----

constexpr const char *kJournalSchema = "cheri-simt-campaign-journal-v1";

const char *
sizeName(kernels::Size size)
{
    return size == kernels::Size::Small ? "small" : "full";
}

bool
faultOutcomeFromName(const std::string &name, FaultOutcome &out)
{
    if (name == "detected")
        out = FaultOutcome::Detected;
    else if (name == "masked")
        out = FaultOutcome::Masked;
    else if (name == "corrupt")
        out = FaultOutcome::Corrupt;
    else
        return false;
    return true;
}

support::json::Value
journalHeader(const ScaledCampaignOptions &opts)
{
    using support::json::Value;
    Value hdr = Value::object();
    hdr.set("schema", Value::str(kJournalSchema));
    hdr.set("seed", Value::integer(opts.seed));
    hdr.set("sites", Value::integer(opts.sites));
    hdr.set("sms", Value::integer(opts.sms));
    hdr.set("cheri", Value::boolean(opts.cheri));
    hdr.set("size", Value::str(sizeName(opts.size)));
    hdr.set("filter", Value::str(opts.filter));
    return hdr;
}

support::json::Value
journalRecord(const ScaledSite &s)
{
    using support::json::Value;
    Value rec = Value::object();
    rec.set("i", Value::integer(s.index));
    rec.set("bench", Value::str(s.bench));
    rec.set("class", Value::str(s.cls));
    rec.set("fault_site", Value::str(simt::faultSiteName(s.plan.site)));
    rec.set("addr", Value::integer(s.plan.addr));
    rec.set("bit", Value::integer(s.plan.bit));
    rec.set("outcome", Value::str(faultOutcomeName(s.outcome)));
    rec.set("trap_kind", Value::str(simt::trapKindName(s.trapKind)));
    rec.set("trap_addr", Value::integer(s.trapAddr));
    rec.set("cycles", Value::integer(s.cycles));
    rec.set("golden_ok", Value::boolean(s.goldenOk));
    return rec;
}

bool
parseJournalSite(const support::json::Value &v, ScaledSite &out)
{
    if (!v.isObject() || !v.has("i") || !v.has("bench") ||
        !v.has("class") || !v.has("outcome") || !v.has("trap_kind") ||
        !v.has("trap_addr"))
        return false;
    out.index = v.get("i").asUint();
    out.bench = v.get("bench").asString();
    out.cls = v.get("class").asString();
    if (!faultOutcomeFromName(v.get("outcome").asString(), out.outcome))
        return false;
    out.trapKind = simt::trapKindFromName(v.get("trap_kind").asString());
    out.trapAddr = static_cast<uint32_t>(v.get("trap_addr").asUint());
    out.cycles = v.has("cycles") ? v.get("cycles").asUint() : 0;
    out.goldenOk = v.has("golden_ok") && v.get("golden_ok").asBool();
    out.plan.addr =
        v.has("addr") ? static_cast<uint32_t>(v.get("addr").asUint()) : 0;
    out.plan.bit =
        v.has("bit") ? static_cast<uint32_t>(v.get("bit").asUint()) : 0;
    out.fromJournal = true;
    return true;
}

void
checkJournalHeader(const support::json::Value &hdr,
                   const ScaledCampaignOptions &opts, const char *path)
{
    fatal_if(!hdr.isObject() || !hdr.has("schema") ||
                 hdr.get("schema").asString() != kJournalSchema,
             "campaign journal '%s' has no %s header line", path,
             kJournalSchema);
    const auto wantInt = [&](const char *key, uint64_t want) {
        fatal_if(hdr.get(key).asUint() != want,
                 "campaign journal '%s' was written with %s=%llu but this "
                 "run uses %llu: refusing to merge mismatched campaigns",
                 path, key,
                 static_cast<unsigned long long>(hdr.get(key).asUint()),
                 static_cast<unsigned long long>(want));
    };
    wantInt("seed", opts.seed);
    wantInt("sites", opts.sites);
    wantInt("sms", opts.sms);
    fatal_if(hdr.get("cheri").asBool() != opts.cheri,
             "campaign journal '%s' was written for cheri=%d: refusing to "
             "merge mismatched campaigns",
             path, hdr.get("cheri").asBool() ? 1 : 0);
    fatal_if(hdr.get("size").asString() != sizeName(opts.size),
             "campaign journal '%s' was written for --size %s: refusing "
             "to merge mismatched campaigns",
             path, hdr.get("size").asString().c_str());
    fatal_if(hdr.get("filter").asString() != opts.filter,
             "campaign journal '%s' was written with filter '%s': refusing "
             "to merge mismatched campaigns",
             path, hdr.get("filter").asString().c_str());
}

/** The journal's completed sites (empty when not resuming), plus
 *  whether a valid header line is already on disk. */
struct ResumeState
{
    std::map<uint64_t, ScaledSite> sites;
    bool haveHeader = false;
};

ResumeState
loadResumeJournal(const ScaledCampaignOptions &opts)
{
    ResumeState rs;
    if (opts.journalPath.empty() || !opts.resume)
        return rs;
    std::vector<support::json::Value> lines;
    std::string warning, err;
    if (!support::readJsonLines(opts.journalPath, lines, &warning, &err))
        fatal("campaign journal '%s' is corrupt: %s",
              opts.journalPath.c_str(), err.c_str());
    if (!warning.empty())
        warn("%s", warning.c_str());
    if (lines.empty())
        return rs; // missing or empty journal: fresh start
    checkJournalHeader(lines[0], opts, opts.journalPath.c_str());
    rs.haveHeader = true;
    for (size_t i = 1; i < lines.size(); ++i) {
        ScaledSite s;
        fatal_if(!parseJournalSite(lines[i], s),
                 "campaign journal '%s' line %zu is not a site record",
                 opts.journalPath.c_str(), i + 1);
        rs.sites[s.index] = std::move(s);
    }
    return rs;
}

/** FNV-1a mix of one site's classification (the shared recipe of
 *  CampaignResult/ScaledResult::classificationHash and the journal). */
void
mixSiteClassification(uint64_t &h, const std::string &bench,
                      const std::string &cls, FaultOutcome outcome,
                      simt::TrapKind kind, uint32_t trap_addr)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    const auto mix = [&](uint64_t v) { h = (h ^ v) * kPrime; };
    for (char ch : bench)
        mix(static_cast<uint64_t>(ch));
    for (char ch : cls)
        mix(static_cast<uint64_t>(ch));
    mix(static_cast<uint64_t>(outcome));
    mix(static_cast<uint64_t>(kind));
    mix(trap_addr);
}

/** Per-bench-task measurement slots of the scaled campaign. */
struct ScaledTaskMetrics
{
    uint64_t liveSites = 0;
    uint64_t liveNs = 0;
    uint64_t resumed = 0;

    // Checkpoint round-trip probe (first bench task only):
    uint64_t ckptBytes = 0;
    uint64_t ckptSaveNs = 0;
    uint64_t ckptRestoreNs = 0;
    bool ckptReplayOk = true;

    // Full-replay baseline sample (every bench task; each sampled site
    // is also re-executed as a fork delta, so the speedup is a paired
    // same-site comparison, independent of the benchmark mix):
    uint64_t replaySites = 0;
    uint64_t replayNs = 0;
    uint64_t forkSampleNs = 0;
    bool replayParityOk = true;
};

/** Full-replay classification of one scaled site (fresh device and
 *  launch, as runBenchCases does) -- the speedup baseline. */
FaultOutcome
replaySiteClassification(size_t bench_idx, const ScaledCampaignOptions &opts,
                         const FaultPlan &plan, uint64_t golden_hash,
                         uint64_t max_cycles, uint32_t heap_lo,
                         uint32_t heap_hi, simt::TrapKind *kind,
                         uint32_t *trap_addr)
{
    simt::SmConfig cfg = opts.cheri ? simt::SmConfig::cheriOptimised()
                                    : simt::SmConfig::baseline();
    cfg.numSms = opts.sms;
    cfg.faultPlan = plan;
    const kc::CompileOptions::Mode mode =
        opts.cheri ? kc::CompileOptions::Mode::Purecap
                   : kc::CompileOptions::Mode::Baseline;
    auto suite = kernels::makeSuite();
    kernels::Benchmark &bench = *suite.at(bench_idx);
    nocl::Device dev(cfg, mode);
    kernels::Prepared p = bench.prepare(dev, opts.size);

    nocl::LaunchPolicy policy;
    policy.maxCycles = max_cycles;
    const nocl::RunResult run =
        dev.launch(*p.kernel, p.cfg, p.args, policy);
    *kind = run.trapKind;
    *trap_addr = run.trapAddr;
    if (run.trapped)
        return FaultOutcome::Detected;
    const uint64_t hash =
        dev.dram().dataHash(heap_lo, heap_hi - heap_lo, plan.addr & ~3u, 4);
    const bool clean =
        run.completed && p.verify(dev) && hash == golden_hash;
    return clean ? FaultOutcome::Masked : FaultOutcome::Corrupt;
}

/** Run one benchmark's slice of the scaled campaign. */
std::vector<ScaledSite>
runScaledBench(size_t order, size_t bench_idx, uint64_t offset,
               uint64_t count, const ScaledCampaignOptions &opts,
               const std::map<uint64_t, ScaledSite> &journaled,
               support::JournalWriter *journal, ScaledTaskMetrics &tm)
{
    std::vector<ScaledSite> sites;
    sites.reserve(count);

    bool all_journaled = count > 0;
    for (uint64_t j = 0; j < count; ++j) {
        if (journaled.find(offset + j) == journaled.end()) {
            all_journaled = false;
            break;
        }
    }
    if (all_journaled) {
        // --resume skips the whole bench: no device, no golden run.
        for (uint64_t j = 0; j < count; ++j)
            sites.push_back(journaled.at(offset + j));
        tm.resumed += count;
        return sites;
    }

    const Clock::time_point t_start = Clock::now();
    DeltaBench db;
    std::vector<uint8_t> ckpt_image;
    uint64_t ckpt_save_ns = 0;
    auto g = setupDeltaBench(bench_idx, opts.size, opts.cheri, opts.sms, db,
                             order == 0 ? &ckpt_image : nullptr,
                             &ckpt_save_ns);
    const auto plans = deriveScaledPlans(*db.compiled, db.prep.args,
                                         opts.cheri, opts.seed, bench_idx,
                                         count);
    std::vector<uint64_t> golden_hashes(plans.size());
    for (size_t c = 0; c < plans.size(); ++c)
        golden_hashes[c] = goldenHashFor(db, plans[c].second);
    const uint64_t golden_mem_hash = db.dev->dram().contentHash();
    g->restoreBase();
    g.reset();

    if (order == 0 && !ckpt_image.empty()) {
        // Checkpoint round-trip probe: restore the pre-run image into
        // the device and replay; the restored run must reproduce the
        // golden run bit-exactly (cycles and full memory hash).
        tm.ckptBytes = ckpt_image.size();
        tm.ckptSaveNs = ckpt_save_ns;
        simt::ckpt::Error cerr;
        const Clock::time_point t0 = Clock::now();
        auto restored = db.dev->restoreStepped(ckpt_image, &cerr);
        tm.ckptRestoreNs = elapsedNs(t0);
        if (restored == nullptr) {
            warn("campaign checkpoint replay failed to restore: %s",
                 cerr.message.c_str());
            tm.ckptReplayOk = false;
        } else {
            const nocl::RunResult rr =
                restored->finish(nocl::LaunchPolicy{}.maxCycles);
            tm.ckptReplayOk = rr.completed == db.golden.completed &&
                              rr.trapped == db.golden.trapped &&
                              rr.cycles == db.golden.cycles &&
                              db.dev->dram().contentHash() ==
                                  golden_mem_hash;
            restored->restoreBase();
        }
    }

    for (uint64_t j = 0; j < count; ++j) {
        const uint64_t index = offset + j;
        const auto it = journaled.find(index);
        if (it != journaled.end()) {
            sites.push_back(it->second);
            ++tm.resumed;
            continue;
        }
        ScaledSite s;
        s.index = index;
        s.bench = db.name;
        s.cls = plans[j].first;
        s.plan = plans[j].second;
        s.goldenOk = db.goldenOk;
        const SiteRun sr = runDeltaSite(db, s.plan, golden_hashes[j]);
        s.outcome = sr.outcome;
        s.trapKind = sr.run.trapKind;
        s.trapAddr = sr.run.trapAddr;
        s.cycles = sr.run.cycles;
        ++tm.liveSites;
        if (journal != nullptr && journal->isOpen())
            journal->append(journalRecord(s));
        sites.push_back(std::move(s));
    }
    tm.liveNs = elapsedNs(t_start);

    if (opts.replaySample > 0 && tm.liveSites > 0) {
        // Speedup baseline: re-run a sample of this bench's sites the
        // pre-fork way (fresh device + full launch per site) and check
        // the classifications agree with the delta executor's. Each
        // sampled site is also re-executed as a fork delta under the
        // same timer, so the reported speedup compares the two
        // executors on identical sites -- no mix bias from cheap
        // early-trapping sites versus full-length runs.
        const uint64_t sample =
            std::min<uint64_t>(opts.replaySample, count);
        for (uint64_t k = 0; k < sample; ++k) {
            // Consecutive mid-range sites: the class menu cycles with
            // period three, so a sample of three or more covers every
            // fault class (fast-trapping and full-length sites alike).
            const uint64_t j = (count / 2 + k) % count;
            simt::TrapKind kind = simt::TrapKind::None;
            uint32_t trap_addr = 0;
            const Clock::time_point t0 = Clock::now();
            const FaultOutcome outcome = replaySiteClassification(
                bench_idx, opts, plans[j].second, golden_hashes[j],
                db.maxCycles, db.heapLo, db.heapHi, &kind, &trap_addr);
            tm.replayNs += elapsedNs(t0);
            if (outcome != sites[j].outcome ||
                kind != sites[j].trapKind ||
                trap_addr != sites[j].trapAddr) {
                warn("scaled site %llu (%s/%s) classified %s by replay "
                     "but %s by fork",
                     static_cast<unsigned long long>(sites[j].index),
                     db.name.c_str(), sites[j].cls.c_str(),
                     faultOutcomeName(outcome),
                     faultOutcomeName(sites[j].outcome));
                tm.replayParityOk = false;
            }
            const Clock::time_point t1 = Clock::now();
            const SiteRun again =
                runDeltaSite(db, plans[j].second, golden_hashes[j]);
            tm.forkSampleNs += elapsedNs(t1);
            if (again.outcome != sites[j].outcome) {
                warn("scaled site %llu re-executed as a different "
                     "outcome -- delta execution is not deterministic",
                     static_cast<unsigned long long>(sites[j].index));
                tm.replayParityOk = false;
            }
            ++tm.replaySites;
        }
    }
    return sites;
}

} // namespace

CampaignResult
runOriginalCampaignDelta(const CampaignOptions &opts)
{
    const std::vector<size_t> selected = selectSuiteIndices(opts.filter);
    std::vector<std::vector<FaultCase>> rows(selected.size());

    runTaskPool(selected.size(), opts.threads, [&](size_t i) {
        const size_t bench_idx = selected[i];
        DeltaBench db;
        auto g =
            setupDeltaBench(bench_idx, opts.size, opts.cheri, opts.sms, db);
        const Targets targets =
            deriveTargets(db.prep, db.golden, opts.seed, bench_idx);
        const auto plans = plansFor(targets, opts.cheri);
        std::vector<uint64_t> golden_hashes(plans.size());
        for (size_t c = 0; c < plans.size(); ++c)
            golden_hashes[c] = goldenHashFor(db, plans[c].second);
        g->restoreBase();
        g.reset();

        std::vector<FaultCase> cases;
        for (size_t c = 0; c < plans.size(); ++c) {
            FaultCase fc;
            fc.bench = db.name;
            fc.cls = plans[c].first;
            fc.plan = plans[c].second;
            fc.goldenOk = db.goldenOk;

            const SiteRun sr = runDeltaSite(db, fc.plan, golden_hashes[c]);
            fc.outcome = sr.outcome;
            fc.trapKind = sr.run.trapKind;
            fc.trapAddr = sr.run.trapAddr;
            fc.trapInfo = sr.run.trapInfo;
            fc.trapSm = sr.run.trapSm;
            fc.kernelName =
                sr.run.kernel ? sr.run.kernel->name : db.name;
            fc.purecap = opts.cheri;
            fc.faultInjections = sr.run.faultInjections;
            fc.cycles = sr.run.cycles;
            fc.watchdog = sr.run.watchdogFires;
            cases.push_back(std::move(fc));
        }
        rows[i] = std::move(cases);
    });

    CampaignResult res;
    for (auto &row : rows) {
        for (FaultCase &fc : row) {
            switch (fc.outcome) {
              case FaultOutcome::Detected:
                ++res.detected;
                break;
              case FaultOutcome::Masked:
                ++res.masked;
                break;
              case FaultOutcome::Corrupt:
                ++res.corrupt;
                if (fc.cls != "data")
                    ++res.protCorrupt;
                break;
            }
            res.cases.push_back(std::move(fc));
        }
    }
    return res;
}

uint64_t
ScaledResult::classificationHash() const
{
    uint64_t h = 1469598103934665603ull;
    for (const ScaledSite &s : sites)
        mixSiteClassification(h, s.bench, s.cls, s.outcome, s.trapKind,
                              s.trapAddr);
    return h;
}

ScaledResult
runScaledCampaign(const ScaledCampaignOptions &opts)
{
    ScaledResult res;
    const std::vector<size_t> selected = selectSuiteIndices(opts.filter);
    if (selected.empty() || opts.sites == 0)
        return res;

    // Deterministic site partition: sites are distributed over the
    // selected benchmarks, global index order = benchmark order.
    const uint64_t nsel = selected.size();
    std::vector<uint64_t> counts(nsel), offsets(nsel);
    uint64_t off = 0;
    for (uint64_t i = 0; i < nsel; ++i) {
        counts[i] = opts.sites / nsel + (i < opts.sites % nsel ? 1 : 0);
        offsets[i] = off;
        off += counts[i];
    }

    const ResumeState resume = loadResumeJournal(opts);

    support::JournalWriter journal;
    if (!opts.journalPath.empty()) {
        if (!opts.resume)
            std::remove(opts.journalPath.c_str());
        std::string jerr;
        if (!journal.open(opts.journalPath, &jerr))
            fatal("cannot open campaign journal '%s': %s",
                  opts.journalPath.c_str(), jerr.c_str());
        journal.setFsyncBatch(opts.fsyncBatch);
        if (!resume.haveHeader)
            journal.append(journalHeader(opts));
    }

    std::vector<std::vector<ScaledSite>> rows(nsel);
    std::vector<ScaledTaskMetrics> metrics(nsel);
    runTaskPool(nsel, opts.threads, [&](size_t i) {
        rows[i] = runScaledBench(i, selected[i], offsets[i], counts[i],
                                 opts, resume.sites,
                                 journal.isOpen() ? &journal : nullptr,
                                 metrics[i]);
    });
    journal.close();

    uint64_t live_sites = 0, live_ns = 0;
    uint64_t replay_sites = 0, replay_ns = 0, fork_sample_ns = 0;
    for (size_t i = 0; i < nsel; ++i) {
        const ScaledTaskMetrics &tm = metrics[i];
        live_sites += tm.liveSites;
        live_ns += tm.liveNs;
        replay_sites += tm.replaySites;
        replay_ns += tm.replayNs;
        fork_sample_ns += tm.forkSampleNs;
        res.resumedSites += tm.resumed;
        res.replayParityOk = res.replayParityOk && tm.replayParityOk;
        if (i == 0) {
            res.ckptBytes = tm.ckptBytes;
            res.ckptSaveNs = tm.ckptSaveNs;
            res.ckptRestoreNs = tm.ckptRestoreNs;
            res.ckptReplayOk = tm.ckptReplayOk;
        }
        for (ScaledSite &s : rows[i]) {
            switch (s.outcome) {
              case FaultOutcome::Detected:
                ++res.detected;
                break;
              case FaultOutcome::Masked:
                ++res.masked;
                break;
              case FaultOutcome::Corrupt:
                ++res.corrupt;
                if (s.cls != "data")
                    ++res.protCorrupt;
                break;
            }
            res.sites.push_back(std::move(s));
        }
    }
    if (live_sites > 0 && live_ns > 0)
        res.forkSitesPerSec = static_cast<double>(live_sites) * 1e9 /
                              static_cast<double>(live_ns);
    if (replay_sites > 0 && replay_ns > 0)
        res.replaySitesPerSec = static_cast<double>(replay_sites) * 1e9 /
                                static_cast<double>(replay_ns);
    // Paired same-site speedup: total replay time over total fork time
    // for the identical sampled sites.
    if (replay_ns > 0 && fork_sample_ns > 0)
        res.forkSpeedup = static_cast<double>(replay_ns) /
                          static_cast<double>(fork_sample_ns);
    return res;
}

bool
scaledJournalHash(const std::string &path, uint64_t *hash, uint64_t *count,
                  std::string *err)
{
    std::vector<support::json::Value> lines;
    std::string warning, rerr;
    if (!support::readJsonLines(path, lines, &warning, &rerr)) {
        if (err != nullptr)
            *err = rerr;
        return false;
    }
    if (lines.empty() || !lines[0].isObject() || !lines[0].has("schema") ||
        lines[0].get("schema").asString() != kJournalSchema) {
        if (err != nullptr)
            *err = "journal has no " + std::string(kJournalSchema) +
                   " header line";
        return false;
    }
    std::map<uint64_t, ScaledSite> sites;
    for (size_t i = 1; i < lines.size(); ++i) {
        ScaledSite s;
        if (!parseJournalSite(lines[i], s)) {
            if (err != nullptr)
                *err = "journal line " + std::to_string(i + 1) +
                       " is not a site record";
            return false;
        }
        sites[s.index] = std::move(s);
    }
    uint64_t h = 1469598103934665603ull;
    for (const auto &[index, s] : sites) {
        (void)index;
        mixSiteClassification(h, s.bench, s.cls, s.outcome, s.trapKind,
                              s.trapAddr);
    }
    if (hash != nullptr)
        *hash = h;
    if (count != nullptr)
        *count = sites.size();
    return true;
}

} // namespace benchcommon
