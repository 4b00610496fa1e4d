/**
 * @file
 * Determinism bisection tool: runs the same kernel as two stepped
 * launches (different execute engines, or different SM counts) advanced
 * in lockstep cycle windows, and localizes any divergence to the first
 * window in which the legs' architectural state hashes differ --
 * instead of a whole-run "outputs differ" verdict.
 *
 * Per window the tool compares simt::Sm::archStateHash (the
 * engine-invariant architectural subset serialized by the checkpoint
 * layer: warp PCs and masks, register files, scratchpad, timing state,
 * traps -- DESIGN.md section 13). On divergence it reports the window
 * and, with --dump, writes both legs' checkpoint images for offline
 * forensics (restore either one with Device::restoreStepped and single
 * -step from just before the divergence).
 *
 * With --sms-a != --sms-b the per-window hash comparison is skipped
 * (warps shard differently across SMs, so per-SM state is not
 * comparable mid-flight) and the tool checks the final committed
 * memory image and trap outcome instead.
 *
 * Flags:
 *   --bench <name>      suite benchmark (default VecAdd)
 *   --size small|full   workload size (default small)
 *   --engine-a <e>      reference | accelerated (default reference)
 *   --engine-b <e>      (default accelerated)
 *   --sms-a <n>         SMs of leg A (default 1)
 *   --sms-b <n>         SMs of leg B (default --sms-a)
 *   --window <cycles>   lockstep window size (default 1024)
 *   --cheri 0|1         protection mode (default 1)
 *   --dump <prefix>     write <prefix>-a.ckpt / <prefix>-b.ckpt on
 *                       divergence
 *
 * Exit status: 0 when the legs are bit-identical, 2 on divergence,
 * 1 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/config.hpp"
#include "support/logging.hpp"

namespace
{

struct Options
{
    std::string bench = "VecAdd";
    kernels::Size size = kernels::Size::Small;
    bool fastA = false; ///< leg A's SmConfig::hostFastPath
    bool fastB = true;
    unsigned smsA = 1;
    unsigned smsB = 0; ///< 0 = same as smsA
    uint64_t window = 1024;
    bool cheri = true;
    std::string dumpPrefix;
};

/** Engine name -> SmConfig::hostFastPath. */
bool
parseEngine(const std::string &name)
{
    if (name == "reference")
        return false;
    if (name == "accelerated")
        return true;
    fatal("unknown engine '%s' (reference|accelerated)", name.c_str());
}

const char *
engineName(bool host_fast_path)
{
    return host_fast_path ? "accelerated" : "reference";
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    const auto value = [&](int &i, const char *name) -> std::string {
        fatal_if(i + 1 >= argc, "%s needs a value", name);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--bench") == 0) {
            opts.bench = value(i, "--bench");
        } else if (std::strcmp(argv[i], "--size") == 0) {
            const std::string s = value(i, "--size");
            fatal_if(s != "small" && s != "full",
                     "--size must be small or full");
            opts.size = s == "small" ? kernels::Size::Small
                                     : kernels::Size::Full;
        } else if (std::strcmp(argv[i], "--engine-a") == 0) {
            opts.fastA = parseEngine(value(i, "--engine-a"));
        } else if (std::strcmp(argv[i], "--engine-b") == 0) {
            opts.fastB = parseEngine(value(i, "--engine-b"));
        } else if (std::strcmp(argv[i], "--sms-a") == 0) {
            opts.smsA = static_cast<unsigned>(
                std::strtoul(value(i, "--sms-a").c_str(), nullptr, 10));
        } else if (std::strcmp(argv[i], "--sms-b") == 0) {
            opts.smsB = static_cast<unsigned>(
                std::strtoul(value(i, "--sms-b").c_str(), nullptr, 10));
        } else if (std::strcmp(argv[i], "--window") == 0) {
            opts.window =
                std::strtoull(value(i, "--window").c_str(), nullptr, 10);
        } else if (std::strcmp(argv[i], "--cheri") == 0) {
            opts.cheri = value(i, "--cheri") != "0";
        } else if (std::strcmp(argv[i], "--dump") == 0) {
            opts.dumpPrefix = value(i, "--dump");
        } else {
            fatal("unknown flag '%s'", argv[i]);
        }
    }
    if (opts.smsB == 0)
        opts.smsB = opts.smsA;
    fatal_if(opts.window == 0, "--window must be nonzero");
    return opts;
}

/** One leg: a device with a forced engine/SM count plus its in-flight
 *  stepped launch. */
struct Leg
{
    std::unique_ptr<kernels::Benchmark> bench;
    std::unique_ptr<nocl::Device> dev;
    kernels::Prepared prep;
    std::unique_ptr<nocl::SteppedLaunch> launch;
};

Leg
makeLeg(const Options &opts, bool host_fast_path, unsigned sms)
{
    simt::SmConfig cfg = opts.cheri ? simt::SmConfig::cheriOptimised()
                                    : simt::SmConfig::baseline();
    cfg.numSms = sms;
    cfg.hostFastPath = host_fast_path;
    const kc::CompileOptions::Mode mode =
        opts.cheri ? kc::CompileOptions::Mode::Purecap
                   : kc::CompileOptions::Mode::Baseline;

    Leg leg;
    leg.bench = kernels::makeBenchmark(opts.bench);
    fatal_if(leg.bench == nullptr, "unknown benchmark '%s'",
             opts.bench.c_str());
    leg.dev = std::make_unique<nocl::Device>(cfg, mode);
    leg.prep = leg.bench->prepare(*leg.dev, opts.size);
    const auto compiled =
        leg.dev->compileCached(*leg.prep.kernel, leg.prep.cfg);
    leg.launch =
        leg.dev->beginStepped(compiled, leg.prep.cfg, leg.prep.args);
    return leg;
}

void
dumpCheckpoint(const std::string &path, nocl::SteppedLaunch &launch)
{
    const std::vector<uint8_t> image = launch.saveCheckpoint();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    std::printf("  wrote %s (%zu bytes)\n", path.c_str(), image.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    const bool same_sms = opts.smsA == opts.smsB;

    std::printf("bisect_determinism: %s (%s, cheri=%d) -- "
                "leg A %s x%u SM vs leg B %s x%u SM, window %llu\n",
                opts.bench.c_str(),
                opts.size == kernels::Size::Small ? "small" : "full",
                opts.cheri ? 1 : 0, engineName(opts.fastA), opts.smsA,
                engineName(opts.fastB), opts.smsB,
                static_cast<unsigned long long>(opts.window));

    Leg a = makeLeg(opts, opts.fastA, opts.smsA);
    Leg b = makeLeg(opts, opts.fastB, opts.smsB);

    uint64_t stop = 0;
    uint64_t windows = 0;
    while (!(a.launch->done() && b.launch->done())) {
        stop += opts.window;
        a.launch->runUntil(stop);
        b.launch->runUntil(stop);
        ++windows;
        if (!same_sms)
            continue;
        for (unsigned k = 0; k < a.dev->numSms(); ++k) {
            const uint64_t ha = a.dev->smAt(k).archStateHash();
            const uint64_t hb = b.dev->smAt(k).archStateHash();
            if (ha == hb)
                continue;
            std::printf("DIVERGENCE in window %llu (cycles %llu..%llu) "
                        "at SM %u:\n  leg A (%s) arch hash %016llx\n"
                        "  leg B (%s) arch hash %016llx\n",
                        static_cast<unsigned long long>(windows),
                        static_cast<unsigned long long>(stop -
                                                        opts.window),
                        static_cast<unsigned long long>(stop), k,
                        engineName(opts.fastA),
                        static_cast<unsigned long long>(ha),
                        engineName(opts.fastB),
                        static_cast<unsigned long long>(hb));
            if (!opts.dumpPrefix.empty()) {
                dumpCheckpoint(opts.dumpPrefix + "-a.ckpt", *a.launch);
                dumpCheckpoint(opts.dumpPrefix + "-b.ckpt", *b.launch);
            }
            return 2;
        }
    }

    const nocl::RunResult ra = a.launch->finish(nocl::LaunchPolicy{}.maxCycles);
    const nocl::RunResult rb = b.launch->finish(nocl::LaunchPolicy{}.maxCycles);
    const uint64_t ma = a.dev->dram().contentHash();
    const uint64_t mb = b.dev->dram().contentHash();

    const bool cycles_comparable = same_sms;
    bool ok = ra.completed == rb.completed && ra.trapped == rb.trapped &&
              ra.trapKind == rb.trapKind && ma == mb;
    if (cycles_comparable)
        ok = ok && ra.cycles == rb.cycles;
    std::printf("%llu windows stepped; final: A %llu cycles mem %016llx, "
                "B %llu cycles mem %016llx\n",
                static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(ra.cycles),
                static_cast<unsigned long long>(ma),
                static_cast<unsigned long long>(rb.cycles),
                static_cast<unsigned long long>(mb));
    if (!ok) {
        std::printf("DIVERGENCE in final state (after all windows "
                    "matched%s)\n",
                    same_sms ? "" : "; per-window compare skipped for "
                                    "mixed SM counts");
        return 2;
    }
    std::printf("OK: legs are bit-identical\n");
    return 0;
}
