/**
 * @file
 * Reproduces Figure 14: execution-time overhead of software bounds
 * checking (the paper's like-for-like Rust port of NoCL). Every slice
 * access whose index is statically relatable to a slice length gets a
 * compiler-inserted check; accesses that are not relatable correspond to
 * the Rust port's unavoidable unsafe blocks and are reported.
 * Paper: bounds checking alone accounts for a 34% geomean overhead
 * (46% for the whole Rust port).
 */

#include <cstdio>

#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig14_rust_bounds");
    benchcommon::printHeader(
        "Figure 14",
        "software bounds-checking (Rust-model) overhead vs baseline");

    using Mode = kc::CompileOptions::Mode;
    const auto rows = h.runMatrix(
        {{"baseline", simt::SmConfig::baseline(), Mode::Baseline},
         {"soft_bounds", simt::SmConfig::baseline(), Mode::SoftBounds}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &base = rows[0];
    const auto &soft = rows[1];

    std::printf("%-12s %14s %14s %10s %10s\n", "Benchmark",
                "Baseline(cyc)", "Checked(cyc)", "Overhead", "Unchecked");
    std::vector<double> ratios;
    for (size_t i = 0; i < base.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        const double ratio = static_cast<double>(soft[i].run.cycles) /
                             static_cast<double>(base[i].run.cycles);
        ratios.push_back(ratio);
        std::printf("%-12s %14llu %14llu %+9.1f%% %10u\n",
                    base[i].name.c_str(),
                    static_cast<unsigned long long>(base[i].run.cycles),
                    static_cast<unsigned long long>(soft[i].run.cycles),
                    (ratio - 1.0) * 100.0,
                    soft[i].run.kernel->uncheckedAccesses);
    }
    const double gm = benchcommon::geomean(ratios);
    std::printf("%-12s %14s %14s %+9.1f%%   (paper: +34%% for bounds "
                "checks alone)\n",
                "geomean", "", "", (gm - 1.0) * 100.0);
    h.metric("geomean_overhead_pct", (gm - 1.0) * 100.0);
    h.finish();
    return 0;
}
