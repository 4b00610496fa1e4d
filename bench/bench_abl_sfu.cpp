/**
 * @file
 * Ablation: shared-function-unit offload of the CHERI bounds
 * instructions (Section 3.3). Compares cycles (the SFU serialises over
 * active lanes, so offloaded instructions are slower) and logic area
 * (the per-lane CheriCapLib shrinks from the full library to the fast
 * path) with offload on and off.
 */

#include <cstdio>

#include "area/area_model.hpp"
#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "abl_sfu");
    benchcommon::printHeader(
        "Ablation", "SFU offload of CHERI bounds instructions");

    using Mode = kc::CompileOptions::Mode;
    simt::SmConfig on = simt::SmConfig::cheriOptimised();
    simt::SmConfig off = on;
    off.sfuCheriOffload = false;

    const auto rows = h.runMatrix({{"sfu_offload", on, Mode::Purecap},
                                   {"lane_caplib", off, Mode::Purecap}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &r_on = rows[0];
    const auto &r_off = rows[1];

    std::printf("%-12s %14s %14s %10s %10s\n", "Benchmark", "lane(cyc)",
                "SFU(cyc)", "slowdown", "SFU ops");
    std::vector<double> ratios;
    for (size_t i = 0; i < r_on.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        const double ratio = static_cast<double>(r_on[i].run.cycles) /
                             static_cast<double>(r_off[i].run.cycles);
        ratios.push_back(ratio);
        std::printf("%-12s %14llu %14llu %+9.2f%% %10llu\n",
                    r_on[i].name.c_str(),
                    static_cast<unsigned long long>(r_off[i].run.cycles),
                    static_cast<unsigned long long>(r_on[i].run.cycles),
                    (ratio - 1.0) * 100.0,
                    static_cast<unsigned long long>(
                        r_on[i].run.stats.get("sfu_cheri_ops")));
    }
    std::printf("%-12s %14s %14s %+9.2f%%\n", "geomean", "", "",
                (benchcommon::geomean(ratios) - 1.0) * 100.0);

    // Area saved by the offload.
    const area::AreaModel model;
    const uint64_t alms_on = model.estimate(on).alms;
    const uint64_t alms_off = model.estimate(off).alms;
    std::printf("\nLogic area: %llu ALMs with offload, %llu without "
                "(saves %lld ALMs, paper: 44%% of the CHERI overhead)\n",
                static_cast<unsigned long long>(alms_on),
                static_cast<unsigned long long>(alms_off),
                static_cast<long long>(alms_off - alms_on));
    h.metric("cycle_cost_pct", (benchcommon::geomean(ratios) - 1.0) * 100.0);
    h.metric("alms_saved", static_cast<double>(alms_off - alms_on));
    h.finish();
    return 0;
}
