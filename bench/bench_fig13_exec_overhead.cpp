/**
 * @file
 * Reproduces Figure 13: execution-time overhead of the optimised CHERI
 * configuration relative to the baseline configuration, per benchmark,
 * with the geometric mean (paper: 1.6%, with BlkStencil as the outlier).
 */

#include <cstdio>

#include "bench/bench_common.hpp"

namespace
{

using Mode = kc::CompileOptions::Mode;

} // namespace

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig13_exec_overhead");
    benchcommon::printHeader(
        "Figure 13", "execution-time overhead of CHERI (optimised) vs "
                     "baseline");

    const auto rows = h.runMatrix(
        {{"baseline", simt::SmConfig::baseline(), Mode::Baseline},
         {"cheri_opt", simt::SmConfig::cheriOptimised(), Mode::Purecap}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &base = rows[0];
    const auto &cheri = rows[1];

    std::printf("%-12s %14s %14s %10s\n", "Benchmark", "Baseline(cyc)",
                "CHERI(cyc)", "Overhead");
    std::vector<double> ratios;
    for (size_t i = 0; i < base.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        const double ratio = static_cast<double>(cheri[i].run.cycles) /
                             static_cast<double>(base[i].run.cycles);
        ratios.push_back(ratio);
        std::printf("%-12s %14llu %14llu %+9.1f%%%s\n",
                    base[i].name.c_str(),
                    static_cast<unsigned long long>(base[i].run.cycles),
                    static_cast<unsigned long long>(cheri[i].run.cycles),
                    (ratio - 1.0) * 100.0,
                    base[i].ok && cheri[i].ok ? "" : "  [VERIFY FAILED]");
    }
    const double gm = benchcommon::geomean(ratios);
    std::printf("%-12s %14s %14s %+9.1f%%   (paper: +1.6%%)\n", "geomean",
                "", "", (gm - 1.0) * 100.0);
    h.metric("geomean_overhead_pct", (gm - 1.0) * 100.0);
    h.finish();
    return 0;
}
