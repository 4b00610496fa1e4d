#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sys/resource.h>

#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/engine.hpp"
#include "support/rng.hpp"

namespace perfbench
{

namespace
{

using Mode = kc::CompileOptions::Mode;

/** Set-ups per run; setup_s reports their median. The kernel and
 *  engine-decision caches are cleared before each, so each starts cold. */
constexpr unsigned kSetupReps = 3;

/** Fault sites per kernel in campaign-small: 14 x 30 = 420 sites per
 *  pass, so at least 42 latency samples lie beyond the p90. */
constexpr unsigned kSitesPerKernel = 30;

/** The paper's geomean execution-time overhead of CHERI-optimised over
 *  the baseline (Figure 13). */
constexpr double kPaperCheriOverheadPct = 1.6;

double
ms(int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile (q in [0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One point of a launch sweep (suite-full, shard-4sm). */
struct Point
{
    size_t kernel = 0;
    std::string config;
    simt::SmConfig cfg;
    Mode mode = Mode::Baseline;
};

/** One fault site of campaign-small. */
struct Site
{
    const char *cls = "data"; ///< "tag" | "capmeta" | "data"
    simt::FaultPlan plan;
};

/** Everything one timed pass measured. Times are host nanoseconds. */
struct PassTotals
{
    explicit PassTotals(size_t kernels)
        : simRunByKernel(kernels, 0), imbalanceSum(kernels, 0.0),
          imbalanceCount(kernels, 0), siteNsByKernel(kernels, 0),
          sitesByKernel(kernels, 0)
    {
    }

    int64_t wall = 0;

    // Layer split of the pass (the layer-sum check adds these up).
    int64_t deviceCtor = 0;
    int64_t deviceDtor = 0;
    int64_t prepare = 0;
    int64_t kcLookup = 0;
    int64_t launchPrep = 0;   ///< launchCompiled wall minus hostNs
    int64_t beginStepped = 0; ///< Device::beginStepped wall
    int64_t simRun = 0;       ///< slowest SM's Sm::run time per launch
    int64_t shardOverhead = 0;
    int64_t verify = 0;
    int64_t classify = 0;
    int64_t restoreBase = 0;

    int64_t smRunSum = 0; ///< every SM's Sm::run time
    int64_t finish = 0;   ///< SteppedLaunch::finish wall

    std::vector<int64_t> simRunByKernel;
    std::vector<double> imbalanceSum;
    std::vector<unsigned> imbalanceCount;
    std::vector<int64_t> siteNsByKernel;
    std::vector<unsigned> sitesByKernel;

    std::vector<double> unitMs;    ///< each point, or each campaign kernel
    std::vector<double> siteMs;    ///< each fault site (campaign)
    std::vector<int64_t> launchNs; ///< wall time of each launch

    uint64_t instrs = 0;
    uint64_t cycles = 0;
    uint64_t dramBytes = 0;
    uint64_t simhostInstrs = 0;
    uint64_t fastpathInstrs = 0;
    uint64_t packedMemInstrs = 0;
    uint64_t fusedInstrs = 0;
    uint64_t mergeFallbacks = 0;

    uint64_t detected = 0;
    uint64_t masked = 0;
    uint64_t corrupt = 0;
    uint64_t watchdogFires = 0;

    /** Modelled cycles per (config, kernel) point, suite-full only. */
    std::vector<uint64_t> pointCycles;

    int64_t
    layerSum() const
    {
        return deviceCtor + deviceDtor + prepare + kcLookup + launchPrep +
               beginStepped + simRun + shardOverhead + verify + classify +
               restoreBase;
    }

    void
    addStats(const nocl::RunResult &r)
    {
        instrs += r.stats.get("instrs");
        cycles += r.cycles;
        dramBytes += r.stats.get("dram_bytes_read") +
                     r.stats.get("dram_bytes_written");
        simhostInstrs += r.stats.get("simhost_instrs");
        fastpathInstrs += r.stats.get("simhost_fastpath_instrs");
        packedMemInstrs += r.stats.get("simhost_packed_mem_instrs");
        fusedInstrs += r.stats.get("simhost_fused_instrs");
        mergeFallbacks += r.mergeFallback ? 1 : 0;
    }
};

/** What one set-up measured. */
struct SetupTotals
{
    int64_t wall = 0;
    int64_t compile = 0;
    uint64_t cacheMisses = 0;
    int64_t ckptSave = 0;
    int64_t ckptRestore = 0;
    uint64_t ckptBytes = 0;
};

/** Kernel label of spans that cover every kernel. */
const std::string kNoKernel;

/** Times one call into a layer and keeps it as a span. */
class Timed
{
  public:
    Timed(SpanRecorder &spans, const char *name, uint64_t parent,
          uint64_t op, const std::string &kernel)
        : spans_(spans), name_(name), parent_(parent), op_(op),
          kernel_(kernel), id_(spans.newId()), t0_(Clock::now())
    {
    }

    uint64_t id() const { return id_; }

    /** Close the span; returns its duration. */
    int64_t
    stop()
    {
        const Clock::time_point t1 = Clock::now();
        spans_.add(id_, name_, parent_, op_, t0_, t1, kernel_);
        return nanosBetween(t0_, t1);
    }

  private:
    SpanRecorder &spans_;
    const char *name_;
    uint64_t parent_;
    uint64_t op_;
    const std::string &kernel_;
    uint64_t id_;
    Clock::time_point t0_;
};

class Workload
{
  public:
    Workload(const Options &opts, SpanRecorder &spans, Outcome &out)
        : opts_(opts), spans_(spans), out_(out)
    {
    }
    virtual ~Workload() = default;

    /** One set-up: fresh suite, devices, cold kernel-cache compiles. */
    virtual SetupTotals setup() = 0;

    /** One timed pass from kernel source to validated results. */
    virtual void pass(PassTotals &t, uint64_t pass_span) = 0;

    size_t kernels() const { return suite_.size(); }
    const std::string &kernelName(size_t k) const { return names_[k]; }

  protected:
    void
    makeSuite()
    {
        suite_ = kernels::makeSuite();
        names_.clear();
        for (const auto &b : suite_)
            names_.push_back(b->name());
    }

    void
    fail(const std::string &what)
    {
        ++out_.failed;
        out_.failures.push_back(what);
    }

    const Options &opts_;
    SpanRecorder &spans_;
    Outcome &out_;
    std::vector<std::unique_ptr<kernels::Benchmark>> suite_;
    std::vector<std::string> names_;
};

// ---------------------------------------------------------------------
// suite-full and shard-4sm: one fresh device per point, plain launches.
// ---------------------------------------------------------------------

class LaunchSweep : public Workload
{
  public:
    LaunchSweep(const Options &opts, SpanRecorder &spans, Outcome &out,
                std::vector<std::pair<std::string, Mode>> configs,
                unsigned sms)
        : Workload(opts, spans, out)
    {
        makeSuite();
        for (const auto &[label, mode] : configs) {
            simt::SmConfig cfg = label == "baseline"
                                     ? simt::SmConfig::baseline()
                                     : simt::SmConfig::cheriOptimised();
            cfg.numSms = sms;
            for (size_t k = 0; k < suite_.size(); ++k)
                points_.push_back(Point{k, label, cfg, mode});
        }
    }

    SetupTotals
    setup() override
    {
        SetupTotals s;
        const uint64_t misses0 = nocl::KernelCache::instance().misses();
        Timed root(spans_, "setup", 0, 0, kNoKernel);
        makeSuite();
        for (const Point &p : points_) {
            const std::string &kname = names_[p.kernel];
            const uint64_t op = spans_.newId();
            Timed point(spans_, "setup.point", root.id(), op, kname);
            nocl::Device dev(p.cfg, p.mode);
            kernels::Prepared prep =
                suite_[p.kernel]->prepare(dev, kernels::Size::Full);
            Timed compile(spans_, "kc.compile", point.id(), op, kname);
            dev.compileCached(*prep.kernel, prep.cfg);
            s.compile += compile.stop();
            point.stop();
        }
        s.wall = root.stop();
        s.cacheMisses = nocl::KernelCache::instance().misses() - misses0;
        return s;
    }

    void
    pass(PassTotals &t, uint64_t pass_span) override
    {
        for (const Point &p : points_) {
            const std::string &kname = names_[p.kernel];
            const uint64_t op = spans_.newId();
            Timed point(spans_, "op.point", pass_span, op, kname);

            Timed ctor(spans_, "nocl.device_ctor", point.id(), op, kname);
            auto dev = std::make_unique<nocl::Device>(p.cfg, p.mode);
            t.deviceCtor += ctor.stop();

            Timed prepare(spans_, "kernels.prepare", point.id(), op, kname);
            kernels::Prepared prep =
                suite_[p.kernel]->prepare(*dev, kernels::Size::Full);
            t.prepare += prepare.stop();

            Timed lookup(spans_, "kc.lookup", point.id(), op, kname);
            const auto compiled = dev->compileCached(*prep.kernel, prep.cfg);
            t.kcLookup += lookup.stop();

            Timed launch(spans_, "nocl.launch", point.id(), op, kname);
            const nocl::RunResult run =
                dev->launchCompiled(compiled, prep.cfg, prep.args);
            const int64_t launch_ns = launch.stop();

            int64_t sm_max = 0, sm_sum = 0;
            for (unsigned k = 0; k < dev->numSms(); ++k) {
                const int64_t ns =
                    static_cast<int64_t>(dev->smAt(k).hostNanos());
                sm_max = std::max(sm_max, ns);
                sm_sum += ns;
            }
            const int64_t host_ns = static_cast<int64_t>(run.hostNs);
            t.launchNs.push_back(launch_ns);
            t.launchPrep += launch_ns - host_ns;
            t.simRun += sm_max;
            t.shardOverhead += host_ns - sm_max;
            t.smRunSum += sm_sum;
            t.simRunByKernel[p.kernel] += sm_max;
            t.imbalanceSum[p.kernel] +=
                ratio(static_cast<double>(sm_max) * dev->numSms(),
                      static_cast<double>(sm_sum));
            ++t.imbalanceCount[p.kernel];
            t.addStats(run);
            t.pointCycles.push_back(run.cycles);

            Timed verify(spans_, "kernels.verify", point.id(), op, kname);
            const bool ok = prep.verify(*dev);
            t.verify += verify.stop();

            Timed dtor(spans_, "nocl.device_dtor", point.id(), op, kname);
            dev.reset();
            t.deviceDtor += dtor.stop();

            ++out_.attempted;
            checkLaunch(run, ok, p.config, kname);
            t.unitMs.push_back(ms(point.stop()));
        }
    }

    /** Geomean CHERI-optimised / baseline cycle ratio, as a percentage
     *  overhead (suite-full only: needs both configs). */
    static double
    cheriOverheadPct(const std::vector<uint64_t> &cycles, size_t kernels)
    {
        if (cycles.size() != 2 * kernels)
            return 0.0;
        double log_sum = 0.0;
        for (size_t k = 0; k < kernels; ++k)
            log_sum += std::log(static_cast<double>(cycles[kernels + k]) /
                                static_cast<double>(cycles[k]));
        return (std::exp(log_sum / static_cast<double>(kernels)) - 1.0) *
               100.0;
    }

  private:
    void
    checkLaunch(const nocl::RunResult &run, bool verified,
                const std::string &config, const std::string &kname)
    {
        if (!run.completed || run.trapped)
            fail(config + "/" + kname + ": launch did not complete cleanly (" +
                 simt::trapKindName(run.trapKind) + ")");
        else if (run.mergeFallback)
            fail(config + "/" + kname + ": merge fallback (" +
                 run.mergeFallbackReason + ")");
        else if (!verified)
            fail(config + "/" + kname + ": output failed verification");
    }

    std::vector<Point> points_;
};

// ---------------------------------------------------------------------
// campaign-small: fork-from-state fault sites off one device per kernel.
// ---------------------------------------------------------------------

/**
 * @p count fault sites for one kernel. Classes cycle tag -> capmeta ->
 * data. The n-th site of a class takes the n-th pointer slot, bit and
 * buffer after an offset drawn from a (seed, kernel) RNG, and data
 * sites a random word: every seed gives the same spread of slots and
 * bit positions, which steadies the share of sites that trap early.
 */
std::vector<Site>
deriveSites(const kc::CompiledKernel &compiled,
            const std::vector<nocl::Arg> &args, uint64_t seed,
            size_t kernel, unsigned count)
{
    std::vector<uint32_t> slots;
    for (const kc::ParamSlot &s : compiled.params)
        if (s.isPtr)
            slots.push_back(kc::argBlockAddress() + s.offset);
    std::vector<nocl::Buffer> bufs;
    for (const nocl::Arg &a : args)
        if (a.kind == nocl::Arg::Kind::Buf && a.buf.bytes >= 4)
            bufs.push_back(a.buf);

    support::Rng rng(0xd1b54a32d192ed03ull * (seed + 1) ^
                     0x9e3779b97f4a7c15ull * (kernel + 1));
    const uint32_t slot0 = rng.next();
    const uint32_t buf0 = rng.next();
    const uint32_t bit0 = rng.next();
    const unsigned per_class = std::max(1u, count / 3);

    static const char *const kClasses[3] = {"tag", "capmeta", "data"};
    std::vector<Site> sites;
    for (unsigned j = 0; j < count; ++j) {
        const unsigned n = j / 3;
        const uint32_t word_draw = rng.next();

        Site s;
        s.cls = kClasses[j % 3];
        if (slots.empty() && s.cls != kClasses[2])
            s.cls = kClasses[2];
        if (bufs.empty() && s.cls == kClasses[2])
            s.cls = kClasses[1];
        const uint32_t bit = (bit0 + n * 32 / per_class) % 32;
        if (s.cls == kClasses[0]) {
            s.plan.site = simt::FaultSite::TagClear;
            s.plan.addr = slots[(slot0 + n) % slots.size()];
        } else if (s.cls == kClasses[1]) {
            s.plan.site = simt::FaultSite::DramWordFlip;
            s.plan.addr = slots[(slot0 + n) % slots.size()] + 4;
            s.plan.bit = bit;
        } else {
            const nocl::Buffer &b = bufs[(buf0 + n) % bufs.size()];
            s.plan.site = simt::FaultSite::DramWordFlip;
            s.plan.addr = b.addr + 4 * (word_draw % std::max(1u, b.bytes / 4));
            s.plan.bit = bit;
        }
        sites.push_back(s);
    }
    return sites;
}

class Campaign : public Workload
{
  public:
    Campaign(const Options &opts, SpanRecorder &spans, Outcome &out)
        : Workload(opts, spans, out), cfg_(simt::SmConfig::cheriOptimised())
    {
    }

    SetupTotals
    setup() override
    {
        SetupTotals s;
        const uint64_t misses0 = nocl::KernelCache::instance().misses();
        Timed root(spans_, "setup", 0, 0, kNoKernel);
        makeSuite();
        for (size_t k = 0; k < suite_.size(); ++k) {
            const std::string &kname = names_[k];
            const uint64_t op = spans_.newId();
            Timed warm(spans_, "setup.golden", root.id(), op, kname);
            nocl::Device dev(cfg_, Mode::Purecap);
            kernels::Prepared prep =
                suite_[k]->prepare(dev, kernels::Size::Small);
            Timed compile(spans_, "kc.compile", warm.id(), op, kname);
            const auto compiled = dev.compileCached(*prep.kernel, prep.cfg);
            s.compile += compile.stop();

            auto g = dev.beginStepped(compiled, prep.cfg, prep.args);
            const nocl::RunResult golden =
                g->finish(nocl::LaunchPolicy{}.maxCycles);
            ++out_.attempted;
            const bool golden_ok =
                golden.completed && !golden.trapped && prep.verify(dev);
            if (!golden_ok)
                fail("setup golden " + kname + ": failed");
            const uint64_t golden_hash = heapHash(dev);
            g->restoreBase();
            g.reset();
            warm.stop();

            // Checkpoint round trip: save the pre-run state, restore it,
            // and finish; the restored run must match the golden one.
            Timed probe(spans_, "setup.ckpt", root.id(), op, kname);
            auto pre = dev.beginStepped(compiled, prep.cfg, prep.args);
            Timed save(spans_, "ckpt.save", probe.id(), op, kname);
            const std::vector<uint8_t> image = pre->saveCheckpoint();
            s.ckptSave += save.stop();
            s.ckptBytes += image.size();
            pre->restoreBase();
            pre.reset();
            simt::ckpt::Error err;
            Timed restore(spans_, "ckpt.restore", probe.id(), op, kname);
            auto resumed = dev.restoreStepped(image, &err);
            s.ckptRestore += restore.stop();
            ++out_.attempted;
            if (resumed == nullptr) {
                fail("checkpoint " + kname + ": restore refused: " +
                     err.message);
            } else {
                const nocl::RunResult rr =
                    resumed->finish(nocl::LaunchPolicy{}.maxCycles);
                if (rr.cycles != golden.cycles || rr.trapped ||
                    !rr.completed || heapHash(dev) != golden_hash)
                    fail("checkpoint " + kname +
                         ": restored run differs from the golden run");
                resumed->restoreBase();
            }
            probe.stop();
        }
        s.wall = root.stop();
        s.cacheMisses = nocl::KernelCache::instance().misses() - misses0;
        return s;
    }

    void
    pass(PassTotals &t, uint64_t pass_span) override
    {
        for (size_t k = 0; k < suite_.size(); ++k)
            runKernel(t, pass_span, k);
    }

  private:
    static uint64_t
    heapHash(const nocl::Device &dev, uint32_t exclude = 0)
    {
        return dev.dram().dataHash(dev.heapStart(),
                                   dev.heapEnd() - dev.heapStart(),
                                   exclude & ~3u, exclude ? 4 : 0);
    }

    void
    runKernel(PassTotals &t, uint64_t pass_span, size_t k)
    {
        const std::string &kname = names_[k];
        const uint64_t kop = spans_.newId();
        Timed bench(spans_, "campaign.kernel", pass_span, kop, kname);

        Timed ctor(spans_, "nocl.device_ctor", bench.id(), kop, kname);
        auto dev = std::make_unique<nocl::Device>(cfg_, Mode::Purecap);
        t.deviceCtor += ctor.stop();

        Timed prepare(spans_, "kernels.prepare", bench.id(), kop, kname);
        kernels::Prepared prep =
            suite_[k]->prepare(*dev, kernels::Size::Small);
        t.prepare += prepare.stop();

        Timed lookup(spans_, "kc.lookup", bench.id(), kop, kname);
        const auto compiled = dev->compileCached(*prep.kernel, prep.cfg);
        t.kcLookup += lookup.stop();

        // Golden run: the reference every site is classified against.
        std::unique_ptr<nocl::SteppedLaunch> g;
        const nocl::RunResult golden =
            stepped(t, bench.id(), kop, k, *dev, compiled, prep, nullptr,
                    nocl::LaunchPolicy{}.maxCycles, g);
        Timed gverify(spans_, "kernels.verify", bench.id(), kop, kname);
        const bool golden_ok = prep.verify(*dev);
        t.verify += gverify.stop();
        ++out_.attempted;
        if (!golden.completed || golden.trapped || !golden_ok)
            fail("golden " + kname + ": failed");

        const std::vector<Site> sites = deriveSites(
            *compiled, prep.args, opts_.seed, k, kSitesPerKernel);
        Timed ghash(spans_, "campaign.classify", bench.id(), kop, kname);
        std::vector<uint64_t> golden_hashes;
        for (const Site &s : sites)
            golden_hashes.push_back(heapHash(*dev, s.plan.addr));
        t.classify += ghash.stop();
        Timed grestore(spans_, "nocl.restore_base", bench.id(), kop, kname);
        g->restoreBase();
        g.reset();
        t.restoreBase += grestore.stop();

        const uint64_t max_cycles =
            std::max<uint64_t>(golden.cycles * 4, 100'000);
        for (size_t j = 0; j < sites.size(); ++j) {
            const Site &site = sites[j];
            const uint64_t op = spans_.newId();
            Timed span(spans_, "op.site", bench.id(), op, kname);

            std::unique_ptr<nocl::SteppedLaunch> sl;
            const nocl::RunResult run = stepped(
                t, span.id(), op, k, *dev, compiled, prep, &site.plan,
                max_cycles, sl);

            bool corrupt = false;
            if (run.trapped) {
                ++t.detected;
                if (run.trapKind == simt::TrapKind::WatchdogTimeout)
                    ++t.watchdogFires;
            } else {
                Timed verify(spans_, "kernels.verify", span.id(), op, kname);
                const bool ok = prep.verify(*dev);
                t.verify += verify.stop();
                Timed classify(spans_, "campaign.classify", span.id(), op,
                               kname);
                const bool same =
                    heapHash(*dev, site.plan.addr) == golden_hashes[j];
                t.classify += classify.stop();
                corrupt = !(run.completed && ok && same);
                ++(corrupt ? t.corrupt : t.masked);
            }

            Timed restore(spans_, "nocl.restore_base", span.id(), op, kname);
            sl->restoreBase();
            sl.reset();
            t.restoreBase += restore.stop();

            ++out_.attempted;
            if (corrupt && std::string(site.cls) != "data")
                fail("site " + kname + "/" + site.cls + " #" +
                     std::to_string(j) +
                     ": silent corruption with CHERI on");
            else if (run.mergeFallback)
                fail("site " + kname + " #" + std::to_string(j) +
                     ": merge fallback");
            const int64_t site_ns = span.stop();
            t.siteNsByKernel[k] += site_ns;
            ++t.sitesByKernel[k];
            t.siteMs.push_back(ms(site_ns));
        }

        Timed dtor(spans_, "nocl.device_dtor", bench.id(), kop, kname);
        dev.reset();
        t.deviceDtor += dtor.stop();
        t.unitMs.push_back(ms(bench.stop()));
    }

    /** beginStepped + finish, with the layer split of both. */
    nocl::RunResult
    stepped(PassTotals &t, uint64_t parent, uint64_t op, size_t k,
            nocl::Device &dev,
            const std::shared_ptr<const kc::CompiledKernel> &compiled,
            const kernels::Prepared &prep, const simt::FaultPlan *fault,
            uint64_t max_cycles, std::unique_ptr<nocl::SteppedLaunch> &sl)
    {
        const std::string &kname = names_[k];
        Timed begin(spans_, "nocl.begin_stepped", parent, op, kname);
        sl = dev.beginStepped(compiled, prep.cfg, prep.args, fault);
        const int64_t begin_ns = begin.stop();
        Timed finish(spans_, "nocl.finish", parent, op, kname);
        const nocl::RunResult run = sl->finish(max_cycles);
        const int64_t finish_ns = finish.stop();

        const int64_t sm_ns = static_cast<int64_t>(dev.sm().hostNanos());
        t.beginStepped += begin_ns;
        t.finish += finish_ns;
        t.launchNs.push_back(begin_ns + finish_ns);
        t.simRun += sm_ns;
        t.shardOverhead += finish_ns - sm_ns;
        t.smRunSum += sm_ns;
        t.simRunByKernel[k] += sm_ns;
        t.imbalanceSum[k] += 1.0;
        ++t.imbalanceCount[k];
        t.addStats(run);
        return run;
    }

    simt::SmConfig cfg_;
};

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Element-wise best (minimum) over passes of a per-pass sequence. Every
 * pass repeats the same operations in the same order, so entry i is the
 * fastest of the run's measurements of operation i. Interference from
 * other tenants of a shared host only ever slows an operation down, and
 * comes in spells of seconds; passes lie seconds apart, so the best of
 * them removes most of it.
 */
template <typename T>
std::vector<double>
bestOf(const std::vector<PassTotals> &passes,
       std::vector<T> PassTotals::*seq)
{
    std::vector<double> best;
    for (const PassTotals &p : passes) {
        const std::vector<T> &v = p.*seq;
        if (best.empty())
            best.assign(v.begin(), v.end());
        for (size_t i = 0; i < std::min(best.size(), v.size()); ++i)
            best[i] = std::min(best[i], static_cast<double>(v[i]));
    }
    return best;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** Median over passes of one per-pass quantity. */
template <typename Fn>
double
medianOver(const std::vector<PassTotals> &passes, Fn fn)
{
    std::vector<double> v;
    for (const PassTotals &p : passes)
        v.push_back(fn(p));
    return median(std::move(v));
}

} // namespace

bool
isWorkload(const std::string &name)
{
    return name == "suite-full" || name == "shard-4sm" ||
           name == "campaign-small";
}

Outcome
runWorkload(const Options &opts, SpanRecorder &spans)
{
    Outcome out;
    kernels::setWorkloadSeed(opts.seed);

    std::unique_ptr<Workload> w;
    if (opts.workload == "suite-full")
        w = std::make_unique<LaunchSweep>(
            opts, spans, out,
            std::vector<std::pair<std::string, Mode>>{
                {"baseline", Mode::Baseline},
                {"cheriOptimised", Mode::Purecap}},
            1);
    else if (opts.workload == "shard-4sm")
        w = std::make_unique<LaunchSweep>(
            opts, spans, out,
            std::vector<std::pair<std::string, Mode>>{
                {"cheriOptimised", Mode::Purecap}},
            4);
    else
        w = std::make_unique<Campaign>(opts, spans, out);

    // ---- Set-up, several times from cold caches ----
    std::vector<SetupTotals> setups;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        nocl::KernelCache::instance().clear();
        simt::engine::clearEngineDecisions();
        setups.push_back(w->setup());
    }

    // ---- Timed passes, closed loop: the next starts when one ends ----
    // At least two, so every operation has a best of two. The first pass
    // is also the warm-up: its launches make the engine decisions and
    // fill the decoded-program cache (on the campaign the set-up's golden
    // runs did). A traced run alternates untraced and traced passes, so
    // it also measures the tracing overhead.
    std::vector<PassTotals> untraced, traced;
    const bool trace = opts.trace;
    const Clock::time_point run_start = Clock::now();
    int64_t last_pass = 0;
    for (unsigned n = 0;; ++n) {
        const bool traced_pass = trace && n % 2 == 1;
        spans.setRecording(traced_pass);
        PassTotals t(w->kernels());
        const uint64_t op = spans.newId();
        const Clock::time_point t0 = Clock::now();
        w->pass(t, op);
        const Clock::time_point t1 = Clock::now();
        spans.add(op, "pass", 0, op, t0, t1);
        t.wall = nanosBetween(t0, t1);
        last_pass = t.wall;
        out.passSeconds.push_back(static_cast<double>(t.wall) * 1e-9);
        (traced_pass ? traced : untraced).push_back(std::move(t));

        const double elapsed =
            static_cast<double>(nanosBetween(run_start, t1)) * 1e-9;
        if (n >= 1 &&
            elapsed + static_cast<double>(last_pass) * 1e-9 > opts.seconds)
            break;
    }
    spans.setRecording(false);

    std::vector<double> setup_s, compile_ms, save_ms, restore_ms;
    for (const SetupTotals &s : setups) {
        setup_s.push_back(static_cast<double>(s.wall) * 1e-9);
        compile_ms.push_back(ms(s.compile));
        save_ms.push_back(ms(s.ckptSave));
        restore_ms.push_back(ms(s.ckptRestore));
    }

    if (!trace) {
        // Every time is the best over passes, operation by operation.
        out.endToEnd = {
            {"setup_s", median(setup_s), "s"},
            {"pass_s", sum(bestOf(untraced, &PassTotals::unitMs)) * 1e-3, "s"},
            {"sim_minstr_per_s",
             ratio(static_cast<double>(untraced.front().instrs) * 1e-6,
                   sum(bestOf(untraced, &PassTotals::launchNs)) * 1e-9),
             "Minstr/s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
        return out;
    }

    // ---- Traced run: the per-layer split of the traced passes ----
    const auto med_ms = [&](int64_t PassTotals::*field) {
        return medianOver(traced, [&](const PassTotals &p) {
            return ms(p.*field);
        });
    };
    const PassTotals &first = traced.front();
    const auto share = [&](uint64_t part) {
        return ratio(static_cast<double>(part),
                     static_cast<double>(first.simhostInstrs));
    };
    const double traced_ms = med_ms(&PassTotals::wall);
    const double sum_ms = medianOver(
        traced, [](const PassTotals &p) { return ms(p.layerSum()); });
    // Site latencies: the best over the traced passes, site by site.
    const std::vector<double> site_ms =
        opts.workload == "campaign-small" ? bestOf(traced, &PassTotals::siteMs)
                                          : std::vector<double>();

    const double overhead_pct =
        opts.workload == "suite-full"
            ? LaunchSweep::cheriOverheadPct(first.pointCycles, w->kernels())
            : 0.0;

    std::vector<Metric> &m = out.perLayer;
    m = {
        {"kc.compile_ms", median(compile_ms), "ms"},
        {"kc.cache_misses",
         static_cast<double>(setups.front().cacheMisses), "count"},
        {"kc.lookup_ms", med_ms(&PassTotals::kcLookup), "ms"},
        {"kernels.prepare_ms", med_ms(&PassTotals::prepare), "ms"},
        {"kernels.verify_ms", med_ms(&PassTotals::verify), "ms"},
        {"nocl.device_ctor_ms", med_ms(&PassTotals::deviceCtor), "ms"},
        {"nocl.device_dtor_ms", med_ms(&PassTotals::deviceDtor), "ms"},
        {"nocl.launch_prep_ms", med_ms(&PassTotals::launchPrep), "ms"},
        {"nocl.begin_stepped_ms", med_ms(&PassTotals::beginStepped), "ms"},
        {"nocl.restore_base_ms", med_ms(&PassTotals::restoreBase), "ms"},
        {"simt.run_ms", med_ms(&PassTotals::simRun), "ms"},
        {"simt.ns_per_warp_instr",
         medianOver(traced,
                    [](const PassTotals &p) {
                        return ratio(static_cast<double>(p.simRun),
                                     static_cast<double>(p.instrs));
                    }),
         "ns"},
    };
    for (size_t k = 0; k < w->kernels(); ++k)
        m.push_back({"simt.run_ms." + w->kernelName(k),
                     medianOver(traced,
                                [k](const PassTotals &p) {
                                    return ms(p.simRunByKernel[k]);
                                }),
                     "ms"});
    m.insert(m.end(), {
        {"simt.instrs", static_cast<double>(first.instrs), "count"},
        {"simt.cycles", static_cast<double>(first.cycles), "count"},
        {"simt.dram_bytes", static_cast<double>(first.dramBytes), "bytes"},
        {"simt.fastpath_share", share(first.fastpathInstrs), "ratio"},
        {"simt.packed_mem_share", share(first.packedMemInstrs), "ratio"},
        {"simt.fused_share", share(first.fusedInstrs), "ratio"},
        {"memsys.shard_overhead_ms", med_ms(&PassTotals::shardOverhead),
         "ms"},
        {"memsys.sm_run_sum_ms", med_ms(&PassTotals::smRunSum), "ms"},
        {"memsys.sm_imbalance",
         medianOver(traced,
                    [](const PassTotals &p) {
                        double sum = 0.0;
                        unsigned n = 0;
                        for (size_t k = 0; k < p.imbalanceSum.size(); ++k) {
                            sum += p.imbalanceSum[k];
                            n += p.imbalanceCount[k];
                        }
                        return ratio(sum, n);
                    }),
         "ratio"},
    });
    for (size_t k = 0; k < w->kernels(); ++k)
        m.push_back({"memsys.sm_imbalance." + w->kernelName(k),
                     medianOver(traced,
                                [k](const PassTotals &p) {
                                    return ratio(p.imbalanceSum[k],
                                                 p.imbalanceCount[k]);
                                }),
                     "ratio"});
    m.push_back({"memsys.merge_fallbacks",
                 static_cast<double>(first.mergeFallbacks), "count"});
    m.push_back({"campaign.finish_ms", med_ms(&PassTotals::finish), "ms"});
    m.push_back({"campaign.classify_ms", med_ms(&PassTotals::classify),
                 "ms"});
    for (size_t k = 0; k < w->kernels(); ++k)
        m.push_back({"campaign.site_ms." + w->kernelName(k),
                     medianOver(traced,
                                [k](const PassTotals &p) {
                                    return ratio(ms(p.siteNsByKernel[k]),
                                                 p.sitesByKernel[k]);
                                }),
                     "ms"});
    m.insert(m.end(), {
        {"campaign.sites_per_s",
         ratio(static_cast<double>(site_ms.size()), sum(site_ms) * 1e-3),
         "1/s"},
        {"campaign.site_p50_ms", percentile(site_ms, 0.5), "ms"},
        {"campaign.site_p90_ms", percentile(site_ms, 0.9), "ms"},
        {"campaign.detected", static_cast<double>(first.detected), "count"},
        {"campaign.masked", static_cast<double>(first.masked), "count"},
        {"campaign.corrupt", static_cast<double>(first.corrupt), "count"},
        {"campaign.watchdog_fires", static_cast<double>(first.watchdogFires),
         "count"},
        {"ckpt.save_ms", median(save_ms), "ms"},
        {"ckpt.restore_ms", median(restore_ms), "ms"},
        {"ckpt.bytes", static_cast<double>(setups.front().ckptBytes),
         "bytes"},
        {"model.cheri_overhead_pct", overhead_pct, "%"},
        {"model.err_pp",
         overhead_pct != 0.0
             ? std::fabs(overhead_pct - kPaperCheriOverheadPct)
             : 0.0,
         "pp"},
        {"layers.pass_ms", traced_ms, "ms"},
        {"layers.sum_ms", sum_ms, "ms"},
        {"other_ms", traced_ms - sum_ms, "ms"},
        {"layers.other_share", ratio(traced_ms - sum_ms, traced_ms),
         "ratio"},
        {"trace.overhead_ms",
         traced_ms - medianOver(untraced,
                                [](const PassTotals &p) {
                                    return ms(p.wall);
                                }),
         "ms"},
        {"campaign.site_samples", static_cast<double>(site_ms.size()),
         "count"},
        {"failed_frac",
         ratio(static_cast<double>(out.failed),
               static_cast<double>(out.attempted)),
         "ratio"},
    });
    return out;
}

} // namespace perfbench
