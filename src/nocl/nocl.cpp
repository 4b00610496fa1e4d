#include "nocl/nocl.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "isa/encoding.hpp"
#include "support/bits.hpp"
#include "support/logging.hpp"
#include "support/serialize.hpp"
#include "support/trace.hpp"

namespace nocl
{

namespace
{

/** First heap address: the argument block occupies the page before it. */
constexpr uint32_t kHeapBase = simt::kDramBase + 0x2000;

/** Data permissions granted to buffer capabilities. */
constexpr uint8_t kDataPerms =
    cap::PERM_GLOBAL | cap::PERM_LOAD | cap::PERM_STORE |
    cap::PERM_LOAD_CAP | cap::PERM_STORE_CAP;

/** Cache key: IR fingerprint plus every codegen-relevant option. */
std::string
cacheKey(const kc::KernelIr &ir, const kc::CompileOptions &opts)
{
    return support::strprintf(
        "%s|%016llx|m%u|b%u|g%u|t%u|s%u|c%u|n%u", ir.name.c_str(),
        static_cast<unsigned long long>(kc::irFingerprint(ir)),
        static_cast<unsigned>(opts.mode), opts.blockDim, opts.gridDim,
        opts.numThreads, opts.stackBytes, opts.capRegLimit, opts.numSms);
}

/** Disassembly of a compiled image, one line per code word (for the
 *  profiler's per-PC report). */
std::vector<std::string>
disasmOf(const kc::CompiledKernel &compiled, bool purecap)
{
    std::vector<std::string> out;
    out.reserve(compiled.code.size());
    for (uint32_t word : compiled.code)
        out.push_back(isa::toString(isa::decode(word), purecap));
    return out;
}

} // namespace

KernelCache &
KernelCache::instance()
{
    static KernelCache cache;
    return cache;
}

std::shared_ptr<const kc::CompiledKernel>
KernelCache::getOrCompile(const kc::KernelIr &ir,
                          const kc::CompileOptions &opts)
{
    const std::string key = cacheKey(ir, opts);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
    }
    // Compile outside the lock: compilation is deterministic, so two
    // threads racing on the same key produce identical kernels and
    // first-insert-wins is safe.
    auto compiled =
        std::make_shared<const kc::CompiledKernel>(kc::compile(ir, opts));
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.emplace(key, std::move(compiled));
    (void)inserted;
    return it->second;
}

uint64_t
KernelCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
KernelCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

size_t
KernelCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
KernelCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
}

Device::Device(const simt::SmConfig &sm_cfg, kc::CompileOptions::Mode mode)
    : smCfg_(sm_cfg), mode_(mode)
{
    fatal_if(mode == kc::CompileOptions::Mode::Purecap && !sm_cfg.purecap,
             "pure-capability code requires a CHERI-enabled SM");
    fatal_if(mode != kc::CompileOptions::Mode::Purecap && sm_cfg.purecap,
             "a CHERI SM runs pure-capability code");
    fatal_if(sm_cfg.numSms == 0, "a device needs at least one SM");
    fatal_if(sm_cfg.smId != 0, "Device assigns SM ids itself");
    for (unsigned k = 0; k < sm_cfg.numSms; ++k) {
        simt::SmConfig cfg = smCfg_;
        cfg.smId = k;
        sms_.push_back(std::make_unique<simt::Sm>(cfg));
    }
    // SM 0's memory is the device's authoritative DRAM. The other SMs
    // reach DRAM only through their epoch shards over it, so their own
    // memories are never written and, being demand-zero mappings, hold
    // no resident host pages.
    memsys_ = std::make_unique<simt::MemorySystem>(sms_[0]->dram());

    kc::CompileOptions opts = compileOptions(LaunchConfig{});
    heapNext_ = kHeapBase;
    heapLimit_ = kc::stackRegionBase(opts);
}

kc::CompileOptions
Device::compileOptions(const LaunchConfig &cfg) const
{
    kc::CompileOptions opts;
    opts.mode = mode_;
    opts.blockDim = cfg.blockDim;
    opts.gridDim = cfg.gridDim;
    opts.numThreads = smCfg_.globalNumThreads();
    opts.numSms = smCfg_.numSms;
    opts.capRegLimit = cfg.capRegLimit;
    return opts;
}

Buffer
Device::alloc(uint32_t bytes)
{
    fatal_if(bytes == 0, "zero-sized allocation");
    // Align the base so the buffer's capability bounds are exactly
    // representable (what a CHERI-aware allocator does).
    const uint32_t len = cap::representableLength(bytes);
    const uint32_t mask = cap::representableAlignmentMask(bytes);
    uint32_t base = heapNext_;
    base = (base + ~mask) & mask;
    fatal_if(base + len > heapLimit_, "device heap exhausted");
    heapNext_ = base + len;

    Buffer b;
    b.addr = base;
    b.bytes = bytes;
    for (uint32_t a = base; a < base + len; a += 4)
        dram().store32(a, 0);
    return b;
}

void
Device::write8(const Buffer &b, const std::vector<uint8_t> &data)
{
    panic_if(data.size() > b.bytes, "write exceeds buffer");
    for (size_t i = 0; i < data.size(); ++i)
        dram().store8(b.addr + static_cast<uint32_t>(i), data[i]);
}

void
Device::write32(const Buffer &b, const std::vector<uint32_t> &data)
{
    panic_if(data.size() * 4 > b.bytes, "write exceeds buffer");
    for (size_t i = 0; i < data.size(); ++i)
        dram().store32(b.addr + static_cast<uint32_t>(i) * 4, data[i]);
}

void
Device::writeF32(const Buffer &b, const std::vector<float> &data)
{
    std::vector<uint32_t> words(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
        uint32_t w;
        static_assert(sizeof(float) == 4);
        __builtin_memcpy(&w, &data[i], 4);
        words[i] = w;
    }
    write32(b, words);
}

std::vector<uint8_t>
Device::read8(const Buffer &b) const
{
    std::vector<uint8_t> out(b.bytes);
    for (uint32_t i = 0; i < b.bytes; ++i)
        out[i] = dram().load8(b.addr + i);
    return out;
}

std::vector<uint32_t>
Device::read32(const Buffer &b) const
{
    std::vector<uint32_t> out(b.bytes / 4);
    for (uint32_t i = 0; i < out.size(); ++i)
        out[i] = dram().load32(b.addr + i * 4);
    return out;
}

std::vector<float>
Device::readF32(const Buffer &b) const
{
    const std::vector<uint32_t> words = read32(b);
    std::vector<float> out(words.size());
    for (size_t i = 0; i < words.size(); ++i)
        __builtin_memcpy(&out[i], &words[i], 4);
    return out;
}

kc::CompiledKernel
Device::compileOnly(kc::KernelDef &def, const LaunchConfig &cfg) const
{
    const kc::KernelIr ir = kc::buildIr(def);
    return kc::compile(ir, compileOptions(cfg));
}

std::shared_ptr<const kc::CompiledKernel>
Device::compileCached(kc::KernelDef &def, const LaunchConfig &cfg) const
{
    const kc::KernelIr ir = kc::buildIr(def);
    return KernelCache::instance().getOrCompile(ir, compileOptions(cfg));
}

RunResult
Device::launch(kc::KernelDef &def, const LaunchConfig &cfg,
               const std::vector<Arg> &args)
{
    return launchCompiled(compileCached(def, cfg), cfg, args);
}

uint32_t
Device::heapStart() const
{
    return kHeapBase;
}

void
Device::writeArgBlock(const kc::CompiledKernel &compiled,
                      const std::vector<Arg> &args)
{
    const uint32_t arg_base = kc::argBlockAddress();
    const bool purecap = mode_ == kc::CompileOptions::Mode::Purecap;
    const bool soft = mode_ == kc::CompileOptions::Mode::SoftBounds;

    for (size_t p = 0; p < args.size(); ++p) {
        const kc::ParamSlot &slot = compiled.params[p];
        const Arg &arg = args[p];
        const uint32_t at = arg_base + slot.offset;
        if (slot.isPtr) {
            fatal_if(arg.kind != Arg::Kind::Buf,
                     "argument %zu of %s must be a buffer", p,
                     compiled.name.c_str());
            if (purecap) {
                // The host narrows a root-derived capability to the
                // buffer and stores it, tagged, into the block.
                cap::CapPipe c = cap::setAddr(cap::rootCap(), arg.buf.addr);
                c = cap::setBounds(c, arg.buf.bytes).cap;
                c = cap::andPerms(c, kDataPerms);
                dram().storeCap(at, cap::toMem(c));
            } else if (soft) {
                dram().store32(at, arg.buf.addr);
                dram().store32(at + 4, arg.buf.bytes / slot.elemBytes);
                dram().clearTagForStore(at, 8);
            } else {
                dram().store32(at, arg.buf.addr);
                dram().clearTagForStore(at, 4);
            }
        } else {
            uint32_t word;
            if (arg.kind == Arg::Kind::Float) {
                __builtin_memcpy(&word, &arg.f, 4);
            } else {
                word = static_cast<uint32_t>(arg.i);
            }
            dram().store32(at, word);
            dram().clearTagForStore(at, 4);
        }
    }
}

void
Device::installScrs(const kc::CompiledKernel &compiled,
                    const kc::CompileOptions &opts)
{
    if (mode_ != kc::CompileOptions::Mode::Purecap)
        return;
    cap::CapPipe stc =
        cap::setAddr(cap::rootCap(), kc::stackRegionBase(opts));
    stc = cap::setBounds(stc, opts.numThreads * opts.stackBytes).cap;
    stc = cap::andPerms(stc, kDataPerms);

    cap::CapPipe argc = cap::setAddr(cap::rootCap(), kc::argBlockAddress());
    argc = cap::setBounds(argc, compiled.paramBlockBytes).cap;
    argc = cap::andPerms(argc, cap::PERM_GLOBAL | cap::PERM_LOAD |
                                   cap::PERM_LOAD_CAP);

    for (auto &sm : sms_) {
        sm->setScr(isa::SCR_DDC, cap::rootCap());
        sm->setScr(isa::SCR_STC, stc);
        sm->setScr(isa::SCR_ARG, argc);
    }
}

// ---------------------------------------------------------------------
// Stepped (pausable / checkpointable) launches
// ---------------------------------------------------------------------

std::unique_ptr<SteppedLaunch>
Device::beginStepped(
    const std::shared_ptr<const kc::CompiledKernel> &compiled_ptr,
    const LaunchConfig &cfg, const std::vector<Arg> &args,
    const simt::FaultPlan *memory_fault)
{
    fatal_if(compiled_ptr == nullptr, "beginStepped without a kernel");
    const kc::CompiledKernel &compiled = *compiled_ptr;
    const kc::CompileOptions opts = compileOptions(cfg);

    fatal_if(cfg.blockDim < smCfg_.numLanes ||
                 cfg.blockDim % smCfg_.numLanes != 0,
             "blockDim must be a multiple of the warp size");
    fatal_if(cfg.blockDim > smCfg_.numThreads(),
             "blockDim exceeds the SM thread count");
    fatal_if(args.size() != compiled.params.size(),
             "kernel %s expects %zu arguments, got %zu",
             compiled.name.c_str(), compiled.params.size(), args.size());

    auto launch = std::unique_ptr<SteppedLaunch>(new SteppedLaunch(*this));
    launch->kernel_ = compiled_ptr;
    launch->kernelKey_ = support::strprintf(
        "%s|%016llx", compiled.name.c_str(),
        static_cast<unsigned long long>(compiled.fingerprint));
    launch->warpsPerBlock_ = cfg.blockDim / smCfg_.numLanes;

    // Undo snapshots must precede the writes they cover: the argument
    // block, then the fault word.
    for (uint32_t at = kc::argBlockAddress();
         at < kc::argBlockAddress() + compiled.paramBlockBytes; at += 4)
        launch->snapshotPageAt(at);
    writeArgBlock(compiled, args);

    const simt::FaultPlan &plan =
        memory_fault != nullptr ? *memory_fault : smCfg_.faultPlan;
    if (plan.memorySite()) {
        launch->snapshotPageAt(plan.addr & ~3u);
        if (simt::applyMemoryFault(plan, dram()))
            ++launch->memoryFaults_;
    }

    installScrs(compiled, opts);

    for (auto &sm : sms_) {
        sm->loadProgram(compiled.code);
        // Stepped launches start from a zeroed scratchpad, like a fresh
        // device: plain launches inherit whatever the previous kernel
        // left there, which would make delta-replayed fault sites
        // classify differently from fresh-device runs.
        sm->scratchpad().reset();
        sm->launch(0, launch->warpsPerBlock_);
    }

    memsys_->beginEpoch(numSms());
    for (unsigned k = 0; k < numSms(); ++k)
        sms_[k]->attachShard(&memsys_->shard(k));
    launch->epochOpen_ = true;
    launch->status_.assign(numSms(), simt::Sm::RunStatus::CycleLimit);
    return launch;
}

std::unique_ptr<SteppedLaunch>
Device::restoreStepped(const std::vector<uint8_t> &image,
                       simt::ckpt::Error *err,
                       const std::string &expect_kernel_key)
{
    namespace ckpt = simt::ckpt;
    const auto fail = [&](std::string why) -> std::unique_ptr<SteppedLaunch> {
        if (err != nullptr)
            *err = ckpt::Error::failure(std::move(why));
        return nullptr;
    };

    std::vector<ckpt::Section> sections;
    if (ckpt::Error e = ckpt::readImage(image, sections); !e)
        return fail(e.message);

    support::ByteReader hr(sections[0].payload.data(),
                           sections[0].payload.size());
    ckpt::Header header;
    if (!ckpt::readHeader(hr, header))
        return fail("checkpoint header is malformed");
    if (header.configHash != ckpt::configHash(smCfg_))
        return fail(support::strprintf(
            "checkpoint was taken under a different device configuration "
            "(config hash %016llx, this device %016llx)",
            static_cast<unsigned long long>(header.configHash),
            static_cast<unsigned long long>(ckpt::configHash(smCfg_))));
    if (header.numSms != numSms())
        return fail("checkpoint SM count mismatch");
    if (!expect_kernel_key.empty() && header.kernelKey != expect_kernel_key)
        return fail("checkpoint was taken for kernel '" + header.kernelKey +
                    "', expected '" + expect_kernel_key + "'");

    // Layout: Header, BaseMem, then (SmState, ShardState) per SM.
    const unsigned ns = numSms();
    if (sections.size() != 2 + 2 * static_cast<size_t>(ns) ||
        sections[1].id != ckpt::kSectionBaseMem)
        return fail("checkpoint image section layout mismatch");
    for (unsigned k = 0; k < ns; ++k) {
        if (sections[2 + 2 * k].id != ckpt::kSectionSmState ||
            sections[3 + 2 * k].id != ckpt::kSectionShardState)
            return fail("checkpoint image section layout mismatch");
    }

    support::ByteReader base_r(sections[1].payload.data(),
                               sections[1].payload.size());
    if (!dram().loadState(base_r))
        return fail("base memory restore failed: " + base_r.error());
    heapNext_ = header.heapNext;

    auto launch = std::unique_ptr<SteppedLaunch>(new SteppedLaunch(*this));
    launch->kernelKey_ = header.kernelKey;
    launch->warpsPerBlock_ = header.warpsPerBlock;
    launch->memoryFaults_ = header.memoryFaults;

    memsys_->beginEpoch(ns);
    launch->epochOpen_ = true;
    launch->status_.assign(ns, simt::Sm::RunStatus::CycleLimit);
    for (unsigned k = 0; k < ns; ++k) {
        simt::Sm &sm = *sms_[k];
        support::ByteReader sm_r(sections[2 + 2 * k].payload.data(),
                                 sections[2 + 2 * k].payload.size());
        if (!sm.loadState(sm_r)) {
            launch->detachShards();
            memsys_->endEpoch();
            return fail(support::strprintf("SM %u restore failed: ", k) +
                        sm_r.error());
        }
        support::ByteReader sh_r(sections[3 + 2 * k].payload.data(),
                                 sections[3 + 2 * k].payload.size());
        if (!memsys_->shard(k).loadState(sh_r)) {
            launch->detachShards();
            memsys_->endEpoch();
            return fail(support::strprintf("shard %u restore failed: ", k) +
                        sh_r.error());
        }
        sm.attachShard(&memsys_->shard(k));
        launch->status_[k] = sm.finished()
                                 ? simt::Sm::RunStatus::Completed
                                 : simt::Sm::RunStatus::CycleLimit;
    }
    if (err != nullptr)
        *err = ckpt::Error{};
    return launch;
}

SteppedLaunch::~SteppedLaunch()
{
    if (epochOpen_) {
        detachShards();
        dev_.memsys_->endEpoch();
        epochOpen_ = false;
    }
}

void
SteppedLaunch::detachShards()
{
    for (auto &sm : dev_.sms_)
        sm->attachShard(nullptr);
}

void
SteppedLaunch::snapshotPageAt(uint32_t addr)
{
    if (!simt::MainMemory::contains(addr))
        return;
    const uint32_t page =
        (addr - simt::kDramBase) >> simt::MemShard::kPageShift;
    if (undo_.count(page))
        return;
    const uint32_t base =
        simt::kDramBase + page * simt::MemShard::kPageBytes;
    UndoPage up;
    up.data.resize(simt::MemShard::kPageBytes);
    dev_.dram().copyOut(base, up.data.data(), simt::MemShard::kPageBytes);
    up.tags.resize(simt::MemShard::kPageWords);
    for (uint32_t wi = 0; wi < simt::MemShard::kPageWords; ++wi)
        up.tags[wi] = dev_.dram().wordTag(base + wi * 4) ? 1 : 0;
    undo_.emplace(page, std::move(up));
}

void
SteppedLaunch::snapshotTouchedPages()
{
    for (unsigned k = 0; k < dev_.memsys_->numShards(); ++k) {
        simt::MemShard &shard = dev_.memsys_->shard(k);
        for (size_t i = 0; i < shard.numTouchedPages(); ++i) {
            snapshotPageAt(simt::kDramBase +
                           shard.touchedPage(i) *
                               simt::MemShard::kPageBytes);
        }
    }
}

void
SteppedLaunch::runUntil(uint64_t stop_cycle)
{
    panic_if(finished_ || !epochOpen_,
             "runUntil on a finished stepped launch");
    for (unsigned k = 0; k < dev_.numSms(); ++k) {
        if (status_[k] == simt::Sm::RunStatus::CycleLimit)
            status_[k] = dev_.sms_[k]->runUntil(stop_cycle);
    }
}

bool
SteppedLaunch::done() const
{
    for (const simt::Sm::RunStatus st : status_) {
        if (st == simt::Sm::RunStatus::CycleLimit)
            return false;
    }
    return true;
}

uint64_t
SteppedLaunch::cycles() const
{
    uint64_t c = 0;
    for (const auto &sm : dev_.sms_)
        c = std::max(c, sm->cycles());
    return c;
}

std::vector<uint8_t>
SteppedLaunch::saveCheckpoint()
{
    namespace ckpt = simt::ckpt;
    panic_if(finished_ || !epochOpen_,
             "saveCheckpoint on a finished stepped launch");

    support::ByteWriter image;
    image.bytes(reinterpret_cast<const uint8_t *>(ckpt::kMagic),
                ckpt::kMagicLen);
    image.u32(ckpt::kVersion);

    {
        ckpt::Header header;
        header.configHash = ckpt::configHash(dev_.smCfg_);
        header.kernelKey = kernelKey_;
        header.numSms = dev_.numSms();
        header.warpsPerBlock = warpsPerBlock_;
        header.memoryFaults = memoryFaults_;
        header.heapNext = dev_.heapNext_;
        support::ByteWriter w;
        ckpt::writeHeader(w, header);
        ckpt::writeSection(image, ckpt::kSectionHeader, w.data());
    }
    {
        support::ByteWriter w;
        dev_.dram().saveState(w);
        ckpt::writeSection(image, ckpt::kSectionBaseMem, w.data());
    }
    for (unsigned k = 0; k < dev_.numSms(); ++k) {
        {
            support::ByteWriter w;
            dev_.sms_[k]->saveState(w);
            ckpt::writeSection(image, ckpt::kSectionSmState, w.data());
        }
        {
            support::ByteWriter w;
            dev_.memsys_->shard(k).saveState(w);
            ckpt::writeSection(image, ckpt::kSectionShardState, w.data());
        }
    }
    return image.take();
}

RunResult
SteppedLaunch::finish(uint64_t max_cycles)
{
    panic_if(finished_ || !epochOpen_,
             "finish on a finished stepped launch");
    finished_ = true;
    const unsigned ns = dev_.numSms();
    const auto t0 = std::chrono::steady_clock::now();

    // Run the unfinished SMs to the watchdog bound. SMs that already
    // completed or deadlocked during stepping are skipped: re-entering
    // run() on them would re-log their terminal condition.
    std::vector<uint8_t> completed(ns, 0);
    for (unsigned k = 0; k < ns; ++k) {
        switch (status_[k]) {
          case simt::Sm::RunStatus::Completed:
            completed[k] = 1;
            break;
          case simt::Sm::RunStatus::Deadlock:
            completed[k] = 0;
            break;
          case simt::Sm::RunStatus::CycleLimit:
            completed[k] = dev_.sms_[k]->run(max_cycles) ? 1 : 0;
            break;
        }
    }

    // Commit the epoch. Every base page about to be overwritten is
    // undo-snapshotted first, so restoreBase() stays an exact revert.
    snapshotTouchedPages();
    detachShards();
    const simt::MemorySystem::MergeReport merge =
        dev_.memsys_->commitEpoch();
    dev_.memsys_->endEpoch();
    epochOpen_ = false;

    RunResult res;
    res.numSms = ns;
    res.kernel = kernel_;

    if (merge.conflict) {
        res.mergeFallback = true;
        res.mergeFallbackReason = support::strprintf(
            "%s at 0x%08x", merge.reason, merge.conflictAddr);
        // The conflicting epoch committed nothing, so the base still
        // holds the argument block and the applied fault -- rerun the
        // SMs one at a time from it for exact sequential semantics.
        // Scratchpads revert to the launch's starting state (zeroed).
        for (unsigned k = 0; k < ns; ++k) {
            simt::Sm &sm = *dev_.sms_[k];
            dev_.memsys_->beginEpoch(1);
            sm.attachShard(&dev_.memsys_->shard(0));
            sm.scratchpad().reset();
            sm.launch(0, warpsPerBlock_);
            completed[k] = sm.run(max_cycles) ? 1 : 0;
            sm.attachShard(nullptr);
            snapshotTouchedPages();
            const auto rep = dev_.memsys_->commitEpoch();
            panic_if(rep.conflict, "single-shard epoch conflicted");
            dev_.memsys_->endEpoch();
        }
    }

    // ---- Aggregate per-SM results (mirrors Device::launchAttempt) ----
    if (ns == 1) {
        simt::Sm &sm = *dev_.sms_[0];
        res.completed = completed[0] != 0;
        res.trapped = sm.trapped();
        if (res.trapped) {
            res.trapKind = sm.firstTrap().kind;
            res.trapAddr = sm.firstTrap().addr;
            res.trapInfo = sm.firstTrap();
            res.trapSm = 0;
            if (res.trapKind == simt::TrapKind::WatchdogTimeout)
                res.watchdogFires = 1;
        }
        res.cycles = sm.cycles();
        res.stats = sm.stats();
        res.avgDataVrf = sm.avgDataVectorsInVrf();
        res.avgMetaVrf = sm.avgMetaVectorsInVrf();
        res.rfCapRegMask = sm.regfile().capRegMask();
        res.hostNs = sm.hostNanos();
        res.smCycles = {res.cycles};
        res.faultInjections = memoryFaults_ + sm.faultFires();
        return res;
    }

    res.completed = true;
    uint64_t cycles_sum = 0;
    double data_vrf_weighted = 0.0, meta_vrf_weighted = 0.0;
    for (unsigned k = 0; k < ns; ++k) {
        simt::Sm &sm = *dev_.sms_[k];
        res.completed = res.completed && completed[k];
        if (sm.trapped() && !res.trapped) {
            res.trapped = true;
            res.trapKind = sm.firstTrap().kind;
            res.trapAddr = sm.firstTrap().addr;
            res.trapInfo = sm.firstTrap();
            res.trapSm = k;
        }
        if (sm.trapped() &&
            sm.firstTrap().kind == simt::TrapKind::WatchdogTimeout)
            ++res.watchdogFires;
        res.faultInjections += sm.faultFires();
        res.smCycles.push_back(sm.cycles());
        res.cycles = std::max(res.cycles, sm.cycles());
        cycles_sum += sm.cycles();
        res.stats.merge(sm.stats());
        data_vrf_weighted +=
            sm.avgDataVectorsInVrf() * static_cast<double>(sm.cycles());
        meta_vrf_weighted +=
            sm.avgMetaVectorsInVrf() * static_cast<double>(sm.cycles());
        res.rfCapRegMask |= sm.regfile().capRegMask();
    }
    if (res.stats.has("cycles"))
        res.stats.set("cycles", res.cycles);
    res.stats.set("cycles_sum", cycles_sum);
    res.stats.set("merge_fallbacks", res.mergeFallback ? 1 : 0);
    if (cycles_sum > 0) {
        res.avgDataVrf =
            data_vrf_weighted / static_cast<double>(cycles_sum);
        res.avgMetaVrf =
            meta_vrf_weighted / static_cast<double>(cycles_sum);
    }
    res.hostNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    res.faultInjections += memoryFaults_;
    return res;
}

void
SteppedLaunch::restoreBase()
{
    if (epochOpen_) {
        // Abandoning an unfinished launch: the epoch committed nothing,
        // so only the pages written at begin (argument block, fault
        // word) need reverting.
        detachShards();
        dev_.memsys_->endEpoch();
        epochOpen_ = false;
        finished_ = true;
    }
    for (const auto &[page, up] : undo_) {
        const uint32_t base =
            simt::kDramBase + page * simt::MemShard::kPageBytes;
        std::memcpy(dev_.dram().rawData(base), up.data.data(),
                    simt::MemShard::kPageBytes);
        for (uint32_t wi = 0; wi < simt::MemShard::kPageWords; ++wi)
            dev_.dram().setWordTag(base + wi * 4, up.tags[wi] != 0);
    }
    undo_.clear();
}

RunResult
Device::launchCompiled(
    const std::shared_ptr<const kc::CompiledKernel> &compiled,
    const LaunchConfig &cfg, const std::vector<Arg> &args)
{
    return launchAttempt(compiled, cfg, args, 2'000'000'000ull,
                         /*defer_serial_fallback=*/false,
                         /*force_serial=*/false);
}

RunResult
Device::launchWithPolicy(kc::KernelDef &def, const LaunchConfig &cfg,
                         const std::vector<Arg> &args,
                         const LaunchPolicy &policy)
{
    return launchWithPolicy(compileCached(def, cfg), cfg, args, policy);
}

RunResult
Device::launchWithPolicy(
    const std::shared_ptr<const kc::CompiledKernel> &compiled,
    const LaunchConfig &cfg, const std::vector<Arg> &args,
    const LaunchPolicy &policy)
{
    // Snapshot the launch-visible DRAM (buffers + argument block) AND
    // every SM's scratchpad so a failed attempt can be replayed from
    // identical state. The scratchpad snapshot matters: Sm::launch()
    // deliberately preserves scratchpad contents (host-visible memory),
    // so a retry after a partial attempt would otherwise start from
    // whatever the failed attempt wrote there -- state silently
    // different from the first attempt's, and from what a replay of the
    // same fault site observes. MainMemory is a value type with a deep
    // copy, so that part is a straight copy.
    const simt::MainMemory snapshot = dram();
    support::ByteWriter spad_snapshot;
    for (auto &sm : sms_)
        sm->scratchpad().saveState(spad_snapshot);
    const auto restore_snapshot = [&] {
        dram() = snapshot;
        support::ByteReader r(spad_snapshot.data().data(),
                              spad_snapshot.size());
        for (auto &sm : sms_) {
            const bool ok = sm->scratchpad().loadState(r);
            panic_if(!ok, "scratchpad snapshot restore failed");
        }
    };

    const auto attempt = [&](bool force_serial) {
        return launchAttempt(compiled, cfg, args, policy.maxCycles,
                             /*defer_serial_fallback=*/!force_serial,
                             force_serial);
    };
    const auto needs_retry = [](const RunResult &r) {
        return (r.mergeFallback && !r.completed) ||
               (r.trapped &&
                r.trapKind == simt::TrapKind::WatchdogTimeout);
    };

    RunResult res = attempt(false);
    unsigned retries = 0;
    unsigned watchdog_total = res.watchdogFires;
    while (needs_retry(res) && retries < policy.maxRetries) {
        ++retries;
        if (trace_ != nullptr) {
            using namespace support::trace;
            support::trace::Buffer *buf = trace_->deviceBuffer();
            if (buf->wants(kCatWatchdog)) {
                buf->setNow(0);
                using support::json::Value;
                Event &e = buf->emit(EventKind::Instant, kCatWatchdog,
                                     "containment-retry");
                e.args.emplace_back("attempt", Value::integer(retries));
                e.args.emplace_back(
                    "reason",
                    Value::str(res.trapped ? "watchdog-timeout"
                                           : "merge-conflict"));
            }
        }
        restore_snapshot();
        res = attempt(false);
        watchdog_total += res.watchdogFires;
    }
    if (policy.degradeToSerial && numSms() > 1 && res.mergeFallback &&
        !res.completed &&
        !(res.trapped &&
          res.trapKind == simt::TrapKind::WatchdogTimeout)) {
        // Degradation is for merge conflicts only: a watchdog-stopped
        // launch would simply time out again in serial form.
        // Parallel execution keeps conflicting: give up on it and run
        // the SMs one at a time for exact sequential semantics.
        if (trace_ != nullptr) {
            using namespace support::trace;
            support::trace::Buffer *buf = trace_->deviceBuffer();
            if (buf->wants(kCatLaunch)) {
                buf->setNow(0);
                using support::json::Value;
                Event &e = buf->emit(EventKind::Instant, kCatLaunch,
                                     "degrade-to-serial");
                e.args.emplace_back(
                    "reason", Value::str(res.mergeFallbackReason));
            }
        }
        restore_snapshot();
        res = attempt(true);
        watchdog_total += res.watchdogFires;
        res.degraded = true;
    }
    res.retries = retries;
    res.watchdogFires = watchdog_total;
    return res;
}

RunResult
Device::launchAttempt(
    const std::shared_ptr<const kc::CompiledKernel> &compiled_ptr,
    const LaunchConfig &cfg, const std::vector<Arg> &args,
    uint64_t max_cycles, bool defer_serial_fallback, bool force_serial)
{
    fatal_if(compiled_ptr == nullptr, "launchCompiled without a kernel");
    const kc::CompiledKernel &compiled = *compiled_ptr;
    const kc::CompileOptions opts = compileOptions(cfg);

    fatal_if(cfg.blockDim < smCfg_.numLanes ||
                 cfg.blockDim % smCfg_.numLanes != 0,
             "blockDim must be a multiple of the warp size");
    fatal_if(cfg.blockDim > smCfg_.numThreads(),
             "blockDim exceeds the SM thread count");

    fatal_if(args.size() != compiled.params.size(),
             "kernel %s expects %zu arguments, got %zu",
             compiled.name.c_str(), compiled.params.size(), args.size());
    const unsigned num_slots = smCfg_.numThreads() / cfg.blockDim;
    fatal_if(static_cast<uint64_t>(compiled.sharedBytes) * num_slots >
                 simt::kSharedSize,
             "kernel %s: shared arrays (%u B x %u block slots) exceed the "
             "scratchpad",
             compiled.name.c_str(), compiled.sharedBytes, num_slots);

    // ---- Write the argument block ----
    const bool purecap = mode_ == kc::CompileOptions::Mode::Purecap;
    writeArgBlock(compiled, args);

    // ---- Memory-site fault injection ----
    //
    // Tag / DRAM-word faults are applied once, here, to the shared base
    // DRAM after the argument block is written: every SM (and every
    // `--sms` count) then observes the identical corrupted image, which
    // is what makes campaign classification SM-count-invariant. Runtime
    // sites are handled inside each Sm instead.
    unsigned memory_faults = 0;
    if (smCfg_.faultPlan.memorySite() &&
        simt::applyMemoryFault(smCfg_.faultPlan, dram()))
        ++memory_faults;

    // ---- Trace-session plumbing (observational only) ----
    //
    // The device runtime owns the sm = -1 buffer; the memory system
    // reports epoch commits into it. Per-SM buffers and profile scratch
    // are created here, on the control thread, before any worker spawns.
    support::trace::Buffer *devbuf = nullptr;
    if (trace_ != nullptr) {
        devbuf = trace_->deviceBuffer();
        devbuf->setNow(0);
        memsys_->attachTrace(devbuf);
        if (memory_faults > 0 &&
            devbuf->wants(support::trace::kCatFault)) {
            using support::json::Value;
            const char *site = simt::faultSiteName(smCfg_.faultPlan.site);
            support::trace::Event &e =
                devbuf->emit(support::trace::EventKind::Instant,
                             support::trace::kCatFault,
                             std::string("fault-apply: ") + site);
            e.args.emplace_back("site", Value::str(site));
            e.args.emplace_back(
                "addr", Value::str(support::strprintf(
                            "0x%08x", smCfg_.faultPlan.addr & ~3u)));
            e.args.emplace_back("bit",
                                Value::integer(smCfg_.faultPlan.bit));
        }
    }

    // Close out the attempt on the trace timeline: emit the launch span,
    // fold the profile scratch, and advance the track past this attempt.
    const auto trace_attempt_end = [&](const RunResult &res, bool serial) {
        if (trace_ == nullptr)
            return;
        using namespace support::trace;
        using support::json::Value;
        if (devbuf->wants(kCatLaunch)) {
            devbuf->setNow(0);
            Event &e = devbuf->emit(EventKind::Span, kCatLaunch,
                                    std::string("launch ") + compiled.name);
            e.dur = res.cycles;
            e.args.emplace_back("kernel", Value::str(compiled.name));
            e.args.emplace_back("sms", Value::integer(res.numSms));
            e.args.emplace_back("serial", Value::boolean(serial));
            e.args.emplace_back("completed",
                                Value::boolean(res.completed));
            e.args.emplace_back("trapped", Value::boolean(res.trapped));
        }
        if (trace_->profiling())
            trace_->setDisasm(disasmOf(compiled, purecap));
        trace_->foldProfile();
        memsys_->attachTrace(nullptr);
        trace_->commitAttempt(res.cycles);
    };

    // ---- Special capability registers (all SMs share them) ----
    installScrs(compiled, opts);

    const unsigned warps_per_block = cfg.blockDim / smCfg_.numLanes;

    // ---- Run ----
    if (smCfg_.numSms == 1) {
        // Single SM: the exact pre-sharding code path.
        simt::Sm &sm = *sms_[0];
        if (trace_ != nullptr)
            sm.attachTrace(trace_->smBuffer(0),
                           trace_->pcScratch(0, compiled.code.size()));
        sm.loadProgram(compiled.code);
        sm.launch(0, warps_per_block);
        const bool completed = sm.run(max_cycles);

        RunResult res;
        res.completed = completed;
        res.trapped = sm.trapped();
        if (res.trapped) {
            res.trapKind = sm.firstTrap().kind;
            res.trapAddr = sm.firstTrap().addr;
            res.trapInfo = sm.firstTrap();
            res.trapSm = 0;
            if (res.trapKind == simt::TrapKind::WatchdogTimeout)
                res.watchdogFires = 1;
        }
        res.cycles = sm.cycles();
        res.stats = sm.stats();
        res.kernel = compiled_ptr;
        res.avgDataVrf = sm.avgDataVectorsInVrf();
        res.avgMetaVrf = sm.avgMetaVectorsInVrf();
        res.rfCapRegMask = sm.regfile().capRegMask();
        res.hostNs = sm.hostNanos();
        res.smCycles = {res.cycles};
        res.faultInjections = memory_faults + sm.faultFires();
        if (trace_ != nullptr) {
            sm.attachTrace(nullptr);
            trace_attempt_end(res, /*serial=*/false);
        }
        return res;
    }

    // Multi-SM: run every SM on its own host worker thread against a
    // private shard of the shared DRAM, then merge deterministically.
    // A cross-SM conflict aborts the merge (committing nothing) and the
    // launch is rerun serially, SM by SM, for exact sequential
    // semantics -- the same conservative gating as the hostFastPath.
    const unsigned ns = smCfg_.numSms;
    const auto t0 = std::chrono::steady_clock::now();

    for (auto &sm : sms_)
        sm->loadProgram(compiled.code);
    if (trace_ != nullptr) {
        // Buffers and scratch must exist before the workers spawn; each
        // worker then only ever touches its own SM's buffer.
        for (unsigned k = 0; k < ns; ++k)
            sms_[k]->attachTrace(
                trace_->smBuffer(k),
                trace_->pcScratch(k, compiled.code.size()));
    }

    std::vector<uint8_t> completed(ns, 0);
    RunResult res;
    res.numSms = ns;
    res.kernel = compiled_ptr;

    bool run_serially = force_serial;
    bool aborted = false;
    if (!force_serial) {
        memsys_->beginEpoch(ns);
        {
            std::vector<std::thread> workers;
            workers.reserve(ns);
            for (unsigned k = 0; k < ns; ++k) {
                workers.emplace_back([&, k] {
                    sms_[k]->attachShard(&memsys_->shard(k));
                    sms_[k]->launch(0, warps_per_block);
                    completed[k] = sms_[k]->run(max_cycles) ? 1 : 0;
                    sms_[k]->attachShard(nullptr);
                });
            }
            for (auto &w : workers)
                w.join();
        }
        if (devbuf != nullptr) {
            // Stamp the epoch-commit event at the slowest SM's finish.
            uint64_t max_c = 0;
            for (auto &sm : sms_)
                max_c = std::max(max_c, sm->cycles());
            devbuf->setNow(max_c);
        }
        const simt::MemorySystem::MergeReport merge =
            memsys_->commitEpoch();
        memsys_->endEpoch();

        if (merge.conflict) {
            res.mergeFallback = true;
            res.mergeFallbackReason = support::strprintf(
                "%s at 0x%08x", merge.reason, merge.conflictAddr);
            if (defer_serial_fallback) {
                // The conflicting epoch committed nothing; leave the
                // launch incomplete and let the caller's policy decide
                // between retry and serial degradation.
                aborted = true;
            } else {
                run_serially = true;
            }
        }
    }

    if (run_serially) {
        // Serial execution: one SM at a time, each in its own
        // single-shard epoch (a single shard can never conflict, so
        // its commit applies everything), giving exact sequential
        // semantics on the shared DRAM.
        for (unsigned k = 0; k < ns; ++k) {
            memsys_->beginEpoch(1);
            sms_[k]->attachShard(&memsys_->shard(0));
            sms_[k]->launch(0, warps_per_block);
            completed[k] = sms_[k]->run(max_cycles) ? 1 : 0;
            sms_[k]->attachShard(nullptr);
            if (devbuf != nullptr)
                devbuf->setNow(sms_[k]->cycles());
            const auto rep = memsys_->commitEpoch();
            panic_if(rep.conflict, "single-shard epoch conflicted");
            memsys_->endEpoch();
        }
    }

    // ---- Aggregate per-SM results ----
    res.completed = true;
    uint64_t cycles_sum = 0;
    double data_vrf_weighted = 0.0, meta_vrf_weighted = 0.0;
    for (unsigned k = 0; k < ns; ++k) {
        simt::Sm &sm = *sms_[k];
        res.completed = res.completed && completed[k];
        if (sm.trapped() && !res.trapped) {
            // Deterministic choice: the lowest-numbered trapped SM.
            res.trapped = true;
            res.trapKind = sm.firstTrap().kind;
            res.trapAddr = sm.firstTrap().addr;
            res.trapInfo = sm.firstTrap();
            res.trapSm = k;
        }
        if (sm.trapped() &&
            sm.firstTrap().kind == simt::TrapKind::WatchdogTimeout)
            ++res.watchdogFires;
        res.faultInjections += sm.faultFires();
        res.smCycles.push_back(sm.cycles());
        res.cycles = std::max(res.cycles, sm.cycles());
        cycles_sum += sm.cycles();
        res.stats.merge(sm.stats());
        data_vrf_weighted +=
            sm.avgDataVectorsInVrf() * static_cast<double>(sm.cycles());
        meta_vrf_weighted +=
            sm.avgMetaVectorsInVrf() * static_cast<double>(sm.cycles());
        res.rfCapRegMask |= sm.regfile().capRegMask();
    }
    if (res.stats.has("cycles"))
        res.stats.set("cycles", res.cycles);
    res.stats.set("cycles_sum", cycles_sum);
    res.stats.set("merge_fallbacks", res.mergeFallback ? 1 : 0);
    if (cycles_sum > 0) {
        res.avgDataVrf =
            data_vrf_weighted / static_cast<double>(cycles_sum);
        res.avgMetaVrf =
            meta_vrf_weighted / static_cast<double>(cycles_sum);
    }
    res.hostNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    res.faultInjections += memory_faults;
    if (aborted)
        res.completed = false;
    if (trace_ != nullptr) {
        for (auto &sm : sms_)
            sm->attachTrace(nullptr);
        trace_attempt_end(res, run_serially);
    }
    return res;
}

} // namespace nocl
