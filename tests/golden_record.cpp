/**
 * @file
 * Golden architectural record of the benchmark suite: the numbers the
 * reproduction outputs, pinned so that a change every execute engine
 * shares (which engine-vs-engine parity cannot see) still shows up.
 *
 * For the baseline, cheri and cheriOptimised presets x the 14
 * benchmarks at Size::Small on 1 SM, plus cheriOptimised at 2 and 4
 * SMs, one fresh device per point runs the kernel with the default
 * engine. The suite traps nowhere at this size, so trap points follow:
 * baseline, cheri and cheriOptimised at 1 SM and cheriOptimised at 4
 * SMs rerun a few kernels with a launch-time memory fault on the
 * kernel's first pointer-argument slot (the slot the fault campaign
 * strikes), chosen to raise tag, bounds, misaligned and unmapped-access
 * traps through both the affine and the per-lane memory checks. Each
 * point records:
 *
 *  - cycles (and each SM's own cycle count);
 *  - every modelled stat (everything but the host-only simhost_*);
 *  - the DRAM content-and-tag hash and each SM's scratchpad hash;
 *  - the verify result and the completion/trap flags;
 *  - the first-trap record.
 *
 * Usage:
 *
 *   golden_record                 print the record on stdout
 *   golden_record --check <file>  diff a fresh run against <file>;
 *                                 exit 1 and print the differing lines
 *                                 on any mismatch
 *
 * tests/golden/regen.sh rewrites tests/golden/record.txt, so an
 * intended model change appears as a reviewed diff.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "kc/codegen.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/config.hpp"
#include "simt/faultinject.hpp"

namespace
{

using Mode = kc::CompileOptions::Mode;

struct Preset
{
    const char *name;
    simt::SmConfig cfg;
    Mode mode;
    unsigned sms;
};

std::vector<Preset>
presets()
{
    return {
        {"baseline", simt::SmConfig::baseline(), Mode::Baseline, 1},
        {"cheri", simt::SmConfig::cheri(), Mode::Purecap, 1},
        {"cheriOptimised", simt::SmConfig::cheriOptimised(), Mode::Purecap,
         1},
        {"cheriOptimised", simt::SmConfig::cheriOptimised(), Mode::Purecap,
         2},
        {"cheriOptimised", simt::SmConfig::cheriOptimised(), Mode::Purecap,
         4},
    };
}

void
line(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
line(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
    out += '\n';
}

/** A launch-time memory fault on the first pointer-argument slot. */
struct SlotFault
{
    const char *name;
    simt::FaultSite site;
    unsigned offset; ///< byte offset into the slot (4: capability metadata)
    unsigned bit;
};

std::vector<SlotFault>
slotFaults(bool purecap)
{
    using simt::FaultSite;
    if (!purecap) {
        return {
            {"misaligned", FaultSite::DramWordFlip, 0, 1},
            {"unmapped", FaultSite::DramWordFlip, 0, 27},
        };
    }
    return {
        {"tag", FaultSite::TagClear, 0, 0},
        {"bounds", FaultSite::DramWordFlip, 4, 2},
        {"misaligned", FaultSite::DramWordFlip, 0, 1},
    };
}

/** The presets that get trap points, and the kernels they run. */
std::vector<Preset>
trapPresets()
{
    std::vector<Preset> out;
    for (const Preset &p : presets())
        if (p.sms != 2)
            out.push_back(p);
    return out;
}

const char *const kTrapBenches[] = {"VecAdd", "Histogram"};

/** The DRAM address of @p bench's first pointer-argument slot, from a
 *  fault-free compile on @p p's device. */
uint32_t
firstPtrSlot(const Preset &p, kernels::Benchmark &bench)
{
    simt::SmConfig cfg = p.cfg;
    cfg.numSms = p.sms;
    nocl::Device dev(cfg, p.mode);
    kernels::Prepared prep = bench.prepare(dev, kernels::Size::Small);
    for (const kc::ParamSlot &slot :
         dev.compileCached(*prep.kernel, prep.cfg)->params) {
        if (slot.isPtr)
            return kc::argBlockAddress() + slot.offset;
    }
    std::fprintf(stderr, "golden_record: %s has no pointer argument\n",
                 bench.name().c_str());
    std::exit(2);
}

/** One point's record block; @p fault names the point's slot fault. */
std::string
recordPoint(const Preset &p, kernels::Benchmark &bench,
            const simt::FaultPlan &plan = simt::FaultPlan{},
            const char *fault = nullptr)
{
    simt::SmConfig cfg = p.cfg;
    cfg.numSms = p.sms;
    cfg.faultPlan = plan;
    nocl::Device dev(cfg, p.mode);
    kernels::Prepared prep = bench.prepare(dev, kernels::Size::Small);
    const nocl::RunResult run = dev.launch(*prep.kernel, prep.cfg, prep.args);
    const bool verified = prep.verify(dev);

    std::string out;
    if (fault != nullptr)
        line(out, "point %s/%s/%s sms=%u", p.name, bench.name().c_str(),
             fault, p.sms);
    else
        line(out, "point %s/%s sms=%u", p.name, bench.name().c_str(),
             p.sms);
    line(out, "  cycles %" PRIu64, run.cycles);
    for (size_t i = 0; i < run.smCycles.size(); ++i)
        line(out, "  sm%zu_cycles %" PRIu64, i, run.smCycles[i]);
    line(out, "  completed %d", run.completed ? 1 : 0);
    line(out, "  verified %d", verified ? 1 : 0);
    line(out, "  trapped %d", run.trapped ? 1 : 0);
    line(out, "  merge_fallback %d", run.mergeFallback ? 1 : 0);
    line(out, "  avg_data_vrf %.17g", run.avgDataVrf);
    line(out, "  avg_meta_vrf %.17g", run.avgMetaVrf);
    line(out, "  rf_cap_reg_mask 0x%08" PRIx32, run.rfCapRegMask);
    line(out, "  dram_hash 0x%016" PRIx64, dev.dram().contentHash());
    for (unsigned i = 0; i < dev.numSms(); ++i)
        line(out, "  sm%u_scratchpad_hash 0x%016" PRIx64, i,
             dev.smAt(i).scratchpad().contentHash());
    const simt::TrapInfo &t = run.trapInfo;
    if (t.trapped) {
        line(out,
             "  trap kind=%s sm=%u warp=%u lane=%u pc=0x%08" PRIx32
             " addr=0x%08" PRIx32 " op=%s",
             simt::trapKindName(t.kind), run.trapSm, t.warp, t.lane, t.pc,
             t.addr, isa::opName(t.op).c_str());
    } else {
        line(out, "  trap none");
    }
    for (const auto &[name, value] : run.stats.all()) {
        if (name.rfind("simhost_", 0) == 0)
            continue;
        line(out, "  stat %s %" PRIu64, name.c_str(), value);
    }
    return out;
}

std::string
recordAll()
{
    std::string out;
    out += "# cheri-simt golden architectural record (Size::Small, default "
           "engine).\n"
           "# Regenerate with tests/golden/regen.sh; review every diff.\n";
    for (const Preset &p : presets()) {
        for (const auto &bench : kernels::makeSuite())
            out += recordPoint(p, *bench);
    }
    for (const Preset &p : trapPresets()) {
        for (const char *name : kTrapBenches) {
            const auto bench = kernels::makeBenchmark(name);
            const uint32_t slot = firstPtrSlot(p, *bench);
            for (const SlotFault &f : slotFaults(p.mode == Mode::Purecap)) {
                simt::FaultPlan plan;
                plan.site = f.site;
                plan.addr = slot + f.offset;
                plan.bit = f.bit;
                out += recordPoint(p, *bench, plan, f.name);
            }
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::istringstream in(s);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    return lines;
}

/** Print every differing line (with its point header) and return the
 *  number of differences. */
int
diffRecords(const std::string &want, const std::string &got)
{
    const auto w = splitLines(want);
    const auto g = splitLines(got);
    int diffs = 0;
    std::string point;
    const size_t n = std::max(w.size(), g.size());
    for (size_t i = 0; i < n; ++i) {
        const std::string wl = i < w.size() ? w[i] : "<missing>";
        const std::string gl = i < g.size() ? g[i] : "<missing>";
        if (wl.rfind("point ", 0) == 0)
            point = wl;
        if (wl == gl)
            continue;
        if (++diffs <= 40) {
            std::fprintf(stderr, "%s (line %zu)\n  golden: %s\n  actual: %s\n",
                         point.c_str(), i + 1, wl.c_str(), gl.c_str());
        }
    }
    if (diffs > 40)
        std::fprintf(stderr, "... %d more differing lines\n", diffs - 40);
    return diffs;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 1) {
        std::fputs(recordAll().c_str(), stdout);
        return 0;
    }
    if (argc == 3 && std::strcmp(argv[1], "--check") == 0) {
        std::ifstream f(argv[2], std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "golden_record: cannot read %s\n", argv[2]);
            return 2;
        }
        const std::string want((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
        const int diffs = diffRecords(want, recordAll());
        if (diffs != 0) {
            std::fprintf(stderr,
                         "golden_record: %d line(s) differ from %s; if the "
                         "model change is intended, run "
                         "tests/golden/regen.sh and review the diff\n",
                         diffs, argv[2]);
            return 1;
        }
        std::printf("golden_record: matches %s\n", argv[2]);
        return 0;
    }
    std::fprintf(stderr, "usage: golden_record [--check <record.txt>]\n");
    return 2;
}
