/**
 * @file
 * Simulator host-throughput regression guard for the execute layer
 * (DESIGN.md section 10): runs the suite under the optimised CHERI
 * configuration on the reference engine (hostFastPath = false, the
 * per-lane interpreter) and on the accelerated engine (the default),
 * and reports host instructions/second for both, the accelerated
 * engine's speedup over the reference, and its scalarised-execution
 * hit rate.
 *
 * The engines are bit-identical by construction (test_fastpath_parity
 * proves it); this harness guards the *reason the accelerated one
 * exists*: uniform-heavy kernels (VecAdd, Reduce) should simulate
 * several times faster, and no kernel may regress -- the per-benchmark
 * `speedup >= 1.0` assertion below fails the run (and so CI) on any
 * per-kernel regression that a geomean would hide. This is the guard
 * that caught the SPMV fast-path regression.
 *
 * Host wall-clock numbers are machine-dependent, so they live in the
 * JSON "metrics" object, never in the modelled "stats" counters. The
 * asserted speedups are re-measured serially (the matrix phase shares a
 * worker pool, which corrupts wall-clock ratios) as a best-of-N to
 * filter scheduler noise, against a documented 0.95 noise floor for the
 * 1.0x target.
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace
{

using Mode = kc::CompileOptions::Mode;

/** Uniform-heavy kernels that the fast paths must accelerate. */
const std::vector<std::string> kFocus = {"VecAdd", "Reduce", "SPMV"};

/** Divergent adversarial kernel that must not regress. */
const char *kAdversarial = "BlkStencil";

/** CPU time of the whole process (all threads) so far, in ms. */
double
processCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/**
 * Per-benchmark floor for the accelerated-over-reference speedup
 * assertion. The target is >= 1.0x on every kernel; the margin covers
 * host timing noise that survives the serial best-of-N re-measure (a
 * few percent on a loaded machine, worst for the microsecond-scale
 * small workloads).
 */
constexpr double kMinSpeedup = 0.95;

/**
 * Focus-suite geomean floor for the accelerated engine: the packed
 * memory lanes + superinstruction fusion work targets >= 2.5x on the
 * uniform-heavy kernels (stretch 3x); below this the accelerated
 * engine has regressed structurally, not by noise.
 */
constexpr double kMinFocusGeomean = 2.5;

/**
 * Kernels with little warp regularity that the accelerated engine must
 * still speed up for real, not just avoid regressing.
 */
struct KernelFloor
{
    const char *name;
    double minSpeedup;
};
const KernelFloor kKernelFloors[] = {
    {"Transpose", 1.2},
    {"VecGCD", 1.2},
};

/** The engine rows of the matrix: reference first, then accelerated. */
struct EngineRow
{
    const char *key;   ///< metric-name fragment
    const char *label; ///< config label in the results JSON
    bool hostFastPath;
};

const EngineRow kEngines[] = {
    {"reference", "cheri_opt_reference", false},
    {"accelerated", "cheri_opt_accelerated", true},
};

simt::SmConfig
engineConfig(bool host_fast_path)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.hostFastPath = host_fast_path;
    return cfg;
}

/** One benchmark's serial re-measure under both engines. */
struct Measured
{
    std::string name;
    bool ok = true;
    uint64_t instrs = 0;       ///< simhost_instrs
    double hitRate = 0.0;      ///< accelerated-engine fast-path hit rate
    double bestNs[2] = {};     ///< best-of-N wall clock per engine
    uint64_t packedInstrs = 0; ///< packed-mem instrs (accelerated)
    uint64_t fusedInstrs = 0;  ///< fused-block (annotated) instrs

    double
    speedup() const
    {
        return bestNs[1] > 0.0 ? bestNs[0] / bestNs[1] : 0.0;
    }
};

/**
 * Serial best-of-N wall-clock measurement of one benchmark under both
 * engines. One device per engine is reused across repetitions
 * (construction and input preparation stay off the clock; only
 * RunResult::hostNs -- the time inside Sm::run() -- is measured); each
 * repetition re-prepares fresh input/output buffers so accumulating
 * kernels verify. Repetitions are interleaved across engines, so slow
 * host drift (thermal, background load) biases both engines equally
 * instead of penalising whichever is measured last.
 */
bool
measureBench(kernels::Benchmark &bench, kernels::Size size,
             unsigned reps, Measured &m)
{
    std::vector<std::unique_ptr<nocl::Device>> devs;
    for (const auto &e : kEngines)
        devs.push_back(std::make_unique<nocl::Device>(
            engineConfig(e.hostFastPath), Mode::Purecap));
    for (unsigned rep = 0; rep < reps; ++rep) {
        for (size_t ei = 0; ei < 2; ++ei) {
            kernels::Prepared p = bench.prepare(*devs[ei], size);
            const nocl::RunResult res =
                devs[ei]->launch(*p.kernel, p.cfg, p.args);
            if (!res.completed || res.trapped || !p.verify(*devs[ei]))
                return false;
            const double ns = static_cast<double>(res.hostNs);
            if (rep == 0 || ns < m.bestNs[ei])
                m.bestNs[ei] = ns;
            if (ei == 1 && rep == 0) {
                const support::StatSet &st = res.stats;
                m.instrs = st.get("simhost_instrs");
                m.hitRate =
                    m.instrs ? static_cast<double>(
                                   st.get("simhost_fastpath_instrs")) /
                                   static_cast<double>(m.instrs)
                             : 0.0;
                m.packedInstrs = st.get("simhost_packed_mem_instrs");
                m.fusedInstrs = st.get("simhost_fused_instrs");
            }
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "simspeed");
    benchcommon::printHeader(
        "SimSpeed", "host simulation throughput per execute engine "
                    "(reference / accelerated, CHERI optimised)");

    // ---- Matrix phase: record and verify every engine row ----
    // Runs on the shared worker pool; architectural outputs and stats
    // land in the results JSON. Wall-clock ratios come from the serial
    // phase below, never from this one.
    std::vector<benchcommon::ConfigPoint> points;
    for (const auto &e : kEngines)
        points.push_back(
            {e.label, engineConfig(e.hostFastPath), Mode::Purecap});
    const auto rows = h.runMatrix(points);
    if (h.options().list)
        return 0; // the points are listed; nothing ran

    bool verify_failed = false;
    for (const auto &row : rows)
        for (const auto &r : row)
            verify_failed = verify_failed || (!r.skipped && !r.ok);

    // ---- Serial re-measure: best-of-N per (benchmark, engine) ----
    const unsigned reps = h.size() == kernels::Size::Small ? 20 : 3;
    auto suite = kernels::makeSuite();
    std::vector<Measured> measured;
    for (size_t b = 0; b < suite.size(); ++b) {
        // Respect --filter via the matrix phase's skip flags.
        if (!benchcommon::ranInEveryRow(rows, b))
            continue;
        Measured m;
        m.name = suite[b]->name();
        m.ok = measureBench(*suite[b], h.size(), reps, m);
        measured.push_back(std::move(m));
    }

    std::printf("%-12s %12s %10s %10s %9s %8s %6s %6s\n", "Benchmark",
                "Instrs", "Ref Mi/s", "Acc Mi/s", "Speedup", "HitRate",
                "Pack%", "Fuse%");

    std::vector<double> focus_speedups;
    std::vector<std::string> regressions;
    std::vector<std::string> floor_failures;
    for (const auto &m : measured) {
        double ips[2] = {};
        for (size_t ei = 0; ei < 2; ++ei)
            ips[ei] = m.bestNs[ei] > 0.0 ? static_cast<double>(m.instrs) /
                                               (m.bestNs[ei] * 1e-9)
                                         : 0.0;
        const double speedup = m.speedup();
        const double packed_share =
            m.instrs ? static_cast<double>(m.packedInstrs) /
                           static_cast<double>(m.instrs)
                     : 0.0;
        const double fusion_cov =
            m.instrs ? static_cast<double>(m.fusedInstrs) /
                           static_cast<double>(m.instrs)
                     : 0.0;
        std::printf("%-12s %12llu %10.2f %10.2f %8.2fx %7.1f%% %5.1f%% "
                    "%5.1f%%%s\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(m.instrs),
                    ips[0] * 1e-6, ips[1] * 1e-6, speedup,
                    m.hitRate * 100.0, packed_share * 100.0,
                    fusion_cov * 100.0, m.ok ? "" : "  [VERIFY FAILED]");

        verify_failed = verify_failed || !m.ok;
        for (size_t ei = 0; ei < 2; ++ei)
            h.metric(std::string("instrs_per_sec_") + kEngines[ei].key +
                         "_" + m.name,
                     ips[ei]);
        h.metric("hit_rate_" + m.name, m.hitRate);
        h.metric("speedup_" + m.name, speedup);
        h.metric("packed_mem_share_" + m.name, packed_share);
        h.metric("fusion_coverage_" + m.name, fusion_cov);
        for (const auto &f : kFocus)
            if (m.name == f)
                focus_speedups.push_back(speedup);
        if (m.name == kAdversarial)
            h.metric("adversarial_speedup", speedup);

        // The per-kernel regression guard: the accelerated engine must
        // not lose to the reference on ANY benchmark (geomeans hide
        // per-kernel regressions; this is how the SPMV 0.79x bug
        // shipped).
        if (m.ok && speedup < kMinSpeedup)
            regressions.push_back(m.name);

        for (const auto &f : kKernelFloors)
            if (m.ok && m.name == f.name && speedup < f.minSpeedup)
                floor_failures.push_back(m.name);
    }

    const double gm = benchcommon::geomean(focus_speedups);
    std::printf("%-12s %12s %10s %10s %8.2fx   (focus geomean)\n",
                "geomean", "", "", "", gm);
    h.metric("focus_geomean_speedup", gm);

    // Multi-SM host scaling: the focus launches plus StrStencil (a
    // small grid that used to run on SM 0 alone) with the grid sharded
    // across 1, 2 and 4 simulated SMs, each SM on its own host worker
    // thread. Architectural outputs are identical at every SM count
    // (test_multisim proves it); this section measures the host-side
    // wall-clock payoff of the parallel launch path. Like the engine
    // table, each cell is the best of N warm launches on one device per
    // SM count (an untimed first launch warms it), with repetitions
    // interleaved across SM counts. Beside each cell's wall time stands
    // the process CPU time of the same launch (every host worker
    // thread), so a speedup reads against the CPU it costs. The numbers
    // are machine-dependent, so they are metrics, not asserts.
    std::printf("\nMulti-SM host scaling (CHERI optimised, best-of-%u "
                "warm wall clock, with that launch's process CPU):\n",
                reps);
    std::printf("%-12s %17s %17s %17s %9s %9s\n", "Benchmark",
                "1-SM ms (cpu)", "2-SM ms (cpu)", "4-SM ms (cpu)",
                "2-SM spd", "4-SM spd");
    const unsigned kSmCounts[] = {1, 2, 4};
    std::vector<std::string> scaling_focus = kFocus;
    scaling_focus.push_back("StrStencil");
    std::vector<double> sms4_speedups;
    for (const auto &focus : scaling_focus) {
        auto bench = kernels::makeBenchmark(focus);
        if (bench == nullptr)
            continue;
        std::vector<std::unique_ptr<nocl::Device>> devs;
        for (unsigned sms : kSmCounts) {
            simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
            cfg.numSms = sms;
            devs.push_back(
                std::make_unique<nocl::Device>(cfg, Mode::Purecap));
        }
        double ms[3] = {0.0, 0.0, 0.0};
        double cpu_ms[3] = {0.0, 0.0, 0.0};
        bool all_ok = true;
        for (unsigned rep = 0; rep <= reps; ++rep) {
            for (size_t si = 0; si < 3; ++si) {
                kernels::Prepared p = bench->prepare(*devs[si], h.size());
                const double cpu0 = processCpuMs();
                const nocl::RunResult res =
                    devs[si]->launch(*p.kernel, p.cfg, p.args);
                const double cpu = processCpuMs() - cpu0;
                all_ok = all_ok && res.completed && !res.trapped &&
                         !res.mergeFallback && p.verify(*devs[si]);
                const double t = static_cast<double>(res.hostNs) * 1e-6;
                if (rep > 0 && (ms[si] == 0.0 || t < ms[si])) {
                    ms[si] = t;
                    cpu_ms[si] = cpu;
                }
            }
        }
        const double s2 = ms[1] > 0.0 ? ms[0] / ms[1] : 0.0;
        const double s4 = ms[2] > 0.0 ? ms[0] / ms[2] : 0.0;
        std::printf("%-12s %8.1f (%6.1f) %8.1f (%6.1f) %8.1f (%6.1f) "
                    "%8.2fx %8.2fx%s\n",
                    focus.c_str(), ms[0], cpu_ms[0], ms[1], cpu_ms[1],
                    ms[2], cpu_ms[2], s2, s4,
                    all_ok ? "" : "  [VERIFY FAILED]");
        h.metric("sms2_speedup_" + focus, s2);
        h.metric("sms4_speedup_" + focus, s4);
        h.metric("sms2_cpu_ms_" + focus, cpu_ms[1]);
        h.metric("sms4_cpu_ms_" + focus, cpu_ms[2]);
        sms4_speedups.push_back(s4);
    }
    h.metric("sms4_geomean_speedup",
             benchcommon::geomean(sms4_speedups));

    h.finish();

    if (verify_failed) {
        std::fprintf(stderr,
                     "simspeed: FAIL: a benchmark failed verification\n");
        return 1;
    }
    if (!regressions.empty()) {
        std::fprintf(stderr,
                     "simspeed: FAIL: accelerated engine slower than "
                     "the reference (speedup < %.2f) on:",
                     kMinSpeedup);
        for (const auto &name : regressions)
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }
    if (!floor_failures.empty()) {
        std::fprintf(stderr,
                     "simspeed: FAIL: kernels below their speedup "
                     "floor:");
        for (const auto &name : floor_failures)
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }
    if (!focus_speedups.empty() && gm < kMinFocusGeomean) {
        std::fprintf(stderr,
                     "simspeed: FAIL: focus geomean %.2fx below the "
                     "%.2fx floor\n",
                     gm, kMinFocusGeomean);
        return 1;
    }
    return 0;
}
