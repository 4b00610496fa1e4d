#include "nocl/nocl.hpp"

#include <bit>
#include <chrono>
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

/** The name of every op, as the op_<name> stats spell it. */
std::vector<std::string>
opNamesOf(bool purecap)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < static_cast<size_t>(isa::Op::NUM_OPS); ++i)
        out.push_back(isa::opName(static_cast<isa::Op>(i), purecap));
    return out;
}

/** Reset @p sm to the start of a launch: zeroed scratchpad, then
 *  Sm::launch. */
void
relaunch(simt::Sm &sm, unsigned warps_per_block)
{
    // Sm::launch keeps the scratchpad (host-visible memory), but no
    // launch may see what an earlier launch or a failed epoch left
    // there: the serial fallback must replay the SM exactly.
    sm.scratchpad().reset();
    sm.launch(0, warps_per_block);
}

/** Host nanoseconds since @p t0. */
uint64_t
elapsedNs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
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
    : smCfg_(sm_cfg), mode_(mode),
      memsys_(std::make_unique<simt::MemorySystem>(sm_cfg.numSms))
{
    fatal_if(mode == kc::CompileOptions::Mode::Purecap && !sm_cfg.purecap,
             "pure-capability code requires a CHERI-enabled SM");
    fatal_if(mode != kc::CompileOptions::Mode::Purecap && sm_cfg.purecap,
             "a CHERI SM runs pure-capability code");
    fatal_if(sm_cfg.numSms == 0, "a device needs at least one SM");
    fatal_if(sm_cfg.numLanes == 0 || sm_cfg.numLanes > simt::kMaxLanes,
             "numLanes (%u) must be 1..%u", sm_cfg.numLanes,
             simt::kMaxLanes);
    fatal_if(sm_cfg.smId != 0, "Device assigns SM ids itself");
    for (unsigned k = 0; k < sm_cfg.numSms; ++k) {
        simt::SmConfig cfg = smCfg_;
        cfg.smId = k;
        sms_.push_back(std::make_unique<simt::Sm>(cfg, memsys_->shard(k)));
    }

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
    dram().zeroData(base, len);
    return b;
}

void
Device::write8(const Buffer &b, const std::vector<uint8_t> &data)
{
    panic_if(data.size() > b.bytes, "write exceeds buffer");
    dram().writeData(b.addr, data.data(), static_cast<uint32_t>(data.size()));
}

void
Device::write32(const Buffer &b, const std::vector<uint32_t> &data)
{
    panic_if(data.size() * 4 > b.bytes, "write exceeds buffer");
    // DRAM is little-endian, like the host, so the words copy as bytes.
    static_assert(std::endian::native == std::endian::little);
    dram().writeData(b.addr, data.data(),
                     static_cast<uint32_t>(data.size() * 4));
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
               const std::vector<Arg> &args, const LaunchPolicy &policy)
{
    return launchCompiled(compileCached(def, cfg), cfg, args, policy);
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
// The launch pipeline: prepare, run, collect
// ---------------------------------------------------------------------

unsigned
Device::prepare(const kc::CompiledKernel &compiled, const LaunchConfig &cfg,
                const std::vector<Arg> &args,
                const simt::FaultPlan &memory_fault, SteppedLaunch *undo)
{
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

    if (undo != nullptr) {
        for (uint32_t at = kc::argBlockAddress();
             at < kc::argBlockAddress() + compiled.paramBlockBytes; at += 4)
            undo->snapshotPageAt(at);
    }
    writeArgBlock(compiled, args);

    // Memory-site faults (tag clear, DRAM word flip) strike the base DRAM
    // once, after the argument block is written: every SM, at every SM
    // count, then observes the identical corrupted image, which is what
    // makes campaign classification SM-count-invariant. Runtime sites
    // are handled inside each Sm instead.
    unsigned memory_faults = 0;
    if (memory_fault.memorySite()) {
        if (undo != nullptr)
            undo->snapshotPageAt(memory_fault.addr & ~3u);
        if (simt::applyMemoryFault(memory_fault, dram()))
            ++memory_faults;
    }

    installScrs(compiled, compileOptions(cfg));
    for (auto &sm : sms_) {
        sm->loadProgram(compiled.code);
        relaunch(*sm, cfg.blockDim / smCfg_.numLanes);
    }
    return memory_faults;
}

std::vector<uint8_t>
Device::runEpoch(const std::vector<simt::Sm::RunStatus> &status,
                 uint64_t max_cycles, unsigned warps_per_block,
                 SteppedLaunch *undo, support::trace::Buffer *devbuf,
                 RunResult &res)
{
    const unsigned ns = numSms();
    // SMs that already completed or deadlocked are skipped: re-entering
    // run() on them would re-log their terminal condition.
    std::vector<uint8_t> completed(ns, 0);
    const auto run_sm = [&](unsigned k) {
        completed[k] = status[k] == simt::Sm::RunStatus::CycleLimit
                           ? sms_[k]->run(max_cycles)
                           : status[k] == simt::Sm::RunStatus::Completed;
    };
    if (ns == 1) {
        run_sm(0);
    } else {
        std::vector<std::thread> workers;
        workers.reserve(ns);
        for (unsigned k = 0; k < ns; ++k)
            workers.emplace_back(run_sm, k);
        for (auto &w : workers)
            w.join();
    }

    // Commit, stamped at the slowest SM's finish.
    if (devbuf != nullptr) {
        uint64_t max_c = 0;
        for (auto &sm : sms_)
            max_c = std::max(max_c, sm->cycles());
        devbuf->setNow(max_c);
    }
    if (undo != nullptr)
        undo->snapshotTouchedPages();
    const simt::MemorySystem::MergeReport merge = memsys_->commitEpoch();
    if (!merge.conflict)
        return completed;

    // The conflicting epoch committed nothing, so the base still holds
    // the argument block and the applied fault. Rerun the SMs one at a
    // time, each on its own freshly reset shard and committed before
    // the next starts (an epoch with one touched shard cannot
    // conflict), for exact sequential semantics.
    res.mergeFallback = true;
    res.mergeFallbackReason = support::strprintf(
        "%s at 0x%08x", merge.reason, merge.conflictAddr);
    for (unsigned k = 0; k < ns; ++k) {
        simt::Sm &sm = *sms_[k];
        memsys_->beginEpoch();
        relaunch(sm, warps_per_block);
        completed[k] = sm.run(max_cycles) ? 1 : 0;
        if (devbuf != nullptr)
            devbuf->setNow(sm.cycles());
        if (undo != nullptr)
            undo->snapshotTouchedPages();
        const auto rep = memsys_->commitEpoch();
        panic_if(rep.conflict, "single-shard epoch conflicted");
    }
    return completed;
}

void
Device::collect(const std::vector<uint8_t> &completed,
                unsigned memory_faults, uint64_t epoch_ns, RunResult &res)
{
    const unsigned ns = numSms();
    res.numSms = ns;
    res.completed = true;
    res.faultInjections = memory_faults;
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
    if (ns == 1) {
        const simt::Sm &sm = *sms_[0];
        res.avgDataVrf = sm.avgDataVectorsInVrf();
        res.avgMetaVrf = sm.avgMetaVectorsInVrf();
        res.hostNs = sm.hostNanos();
        return;
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
    res.hostNs = epoch_ns;
}

RunResult
Device::launchCompiled(
    const std::shared_ptr<const kc::CompiledKernel> &compiled_ptr,
    const LaunchConfig &cfg, const std::vector<Arg> &args,
    const LaunchPolicy &policy)
{
    fatal_if(compiled_ptr == nullptr, "launchCompiled without a kernel");
    const kc::CompiledKernel &compiled = *compiled_ptr;
    const unsigned memory_faults =
        prepare(compiled, cfg, args, smCfg_.faultPlan, nullptr);

    // ---- Trace-session plumbing (observational only) ----
    //
    // The device runtime owns the sm = -1 buffer; the memory system
    // reports epoch commits into it. Per-SM buffers and profile scratch
    // are attached here, on the control thread, before any worker
    // spawns; each worker then only ever touches its own SM's buffer.
    support::trace::Buffer *devbuf = nullptr;
    if (trace_ != nullptr) {
        using namespace support::trace;
        using support::json::Value;
        devbuf = trace_->deviceBuffer();
        devbuf->setNow(0);
        memsys_->attachTrace(devbuf);
        if (memory_faults > 0 && devbuf->wants(kCatFault)) {
            const char *site = simt::faultSiteName(smCfg_.faultPlan.site);
            Event &e = devbuf->emit(EventKind::Instant, kCatFault,
                                    std::string("fault-apply: ") + site);
            e.args.emplace_back("site", Value::str(site));
            e.args.emplace_back(
                "addr", Value::str(support::strprintf(
                            "0x%08x", smCfg_.faultPlan.addr & ~3u)));
            e.args.emplace_back("bit",
                                Value::integer(smCfg_.faultPlan.bit));
        }
        for (unsigned k = 0; k < numSms(); ++k)
            sms_[k]->attachTrace(trace_->smBuffer(k),
                                 trace_->stepScratch(k, compiled.code.size()));
    }

    // ---- Run ----
    RunResult res;
    res.kernel = compiled_ptr;
    const auto t0 = std::chrono::steady_clock::now();
    memsys_->beginEpoch();
    const std::vector<uint8_t> completed = runEpoch(
        std::vector<simt::Sm::RunStatus>(numSms(),
                                         simt::Sm::RunStatus::CycleLimit),
        policy.maxCycles, cfg.blockDim / smCfg_.numLanes, nullptr, devbuf,
        res);
    collect(completed, memory_faults, elapsedNs(t0), res);

    // Close out the launch on the trace timeline: emit the launch span,
    // fold the profile scratch, and advance the track past it.
    if (trace_ != nullptr) {
        using namespace support::trace;
        using support::json::Value;
        for (auto &sm : sms_)
            sm->attachTrace(nullptr);
        if (devbuf->wants(kCatLaunch)) {
            devbuf->setNow(0);
            Event &e = devbuf->emit(EventKind::Span, kCatLaunch,
                                    std::string("launch ") + compiled.name);
            e.dur = res.cycles;
            e.args.emplace_back("kernel", Value::str(compiled.name));
            e.args.emplace_back("sms", Value::integer(res.numSms));
            e.args.emplace_back("serial", Value::boolean(res.mergeFallback));
            e.args.emplace_back("completed",
                                Value::boolean(res.completed));
            e.args.emplace_back("trapped", Value::boolean(res.trapped));
        }
        if (trace_->profiling()) {
            const bool purecap = mode_ == kc::CompileOptions::Mode::Purecap;
            trace_->setDisasm(disasmOf(compiled, purecap),
                              opNamesOf(purecap));
        }
        trace_->foldProfile();
        memsys_->attachTrace(nullptr);
        trace_->commitAttempt(res.cycles);
    }
    return res;
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

    auto launch = std::unique_ptr<SteppedLaunch>(new SteppedLaunch(*this));
    launch->kernel_ = compiled_ptr;
    launch->kernelKey_ = support::strprintf(
        "%s|%016llx", compiled.name.c_str(),
        static_cast<unsigned long long>(compiled.fingerprint));
    launch->warpsPerBlock_ = cfg.blockDim / smCfg_.numLanes;
    launch->memoryFaults_ = prepare(
        compiled, cfg, args,
        memory_fault != nullptr ? *memory_fault : smCfg_.faultPlan,
        launch.get());

    memsys_->beginEpoch();
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

    memsys_->beginEpoch();
    launch->epochOpen_ = true;
    launch->status_.assign(ns, simt::Sm::RunStatus::CycleLimit);
    for (unsigned k = 0; k < ns; ++k) {
        simt::Sm &sm = *sms_[k];
        support::ByteReader sm_r(sections[2 + 2 * k].payload.data(),
                                 sections[2 + 2 * k].payload.size());
        if (!sm.loadState(sm_r)) {
            return fail(support::strprintf("SM %u restore failed: ", k) +
                        sm_r.error());
        }
        support::ByteReader sh_r(sections[3 + 2 * k].payload.data(),
                                 sections[3 + 2 * k].payload.size());
        if (!memsys_->shard(k).loadState(sh_r)) {
            return fail(support::strprintf("shard %u restore failed: ", k) +
                        sh_r.error());
        }
        launch->status_[k] = sm.finished()
                                 ? simt::Sm::RunStatus::Completed
                                 : simt::Sm::RunStatus::CycleLimit;
    }
    if (err != nullptr)
        *err = ckpt::Error{};
    return launch;
}

void
SteppedLaunch::snapshotPageAt(uint32_t addr)
{
    if (!simt::MainMemory::contains(addr))
        return;
    const uint32_t page = simt::MainMemory::pageOf(addr);
    if (undo_.count(page))
        return;
    const uint32_t base =
        simt::kDramBase + page * simt::MainMemory::kPageBytes;
    UndoPage up;
    up.data.resize(simt::MainMemory::kPageBytes);
    dev_.dram().copyOut(base, up.data.data(), simt::MainMemory::kPageBytes);
    up.tags.resize(simt::MainMemory::kPageTagWords);
    dev_.dram().copyTagsOut(base, up.tags.data(),
                            simt::MainMemory::kPageBytes);
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
    epochOpen_ = false;
    const auto t0 = std::chrono::steady_clock::now();
    RunResult res;
    res.kernel = kernel_;
    const std::vector<uint8_t> completed = dev_.runEpoch(
        status_, max_cycles, warpsPerBlock_, this, nullptr, res);
    dev_.collect(completed, memoryFaults_, elapsedNs(t0), res);
    return res;
}

void
SteppedLaunch::restoreBase()
{
    if (epochOpen_) {
        // Abandoning an unfinished launch: the epoch committed nothing,
        // so only the pages written at begin (argument block, fault
        // word) need reverting. The next launch resets the shards.
        epochOpen_ = false;
        finished_ = true;
    }
    for (const auto &[page, up] : undo_) {
        dev_.dram().writePage(
            simt::kDramBase + page * simt::MainMemory::kPageBytes,
            up.data.data(), up.tags.data());
    }
    undo_.clear();
}

} // namespace nocl
