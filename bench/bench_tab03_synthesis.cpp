/**
 * @file
 * Reproduces Table 3: synthesis results (logic area in ALMs, block-RAM
 * storage, Fmax) for the Baseline, CHERI and CHERI (Optimised)
 * configurations, from the analytical area model.
 */

#include <cstdio>

#include "area/area_model.hpp"
#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "tab03_synthesis");
    benchcommon::printHeader("Table 3",
                             "synthesis results for a single SIMTight SM");

    const area::AreaModel model;
    struct Row
    {
        const char *name;
        simt::SmConfig cfg;
        unsigned paper_alms;
        unsigned paper_bram;
        unsigned paper_fmax;
    };
    const Row rows[] = {
        {"Baseline", simt::SmConfig::baseline(), 126753, 2156, 180},
        {"CHERI", simt::SmConfig::cheri(), 166796, 4399, 181},
        {"CHERI (Optimised)", simt::SmConfig::cheriOptimised(), 149356,
         2394, 180},
    };

    std::printf("%-18s %12s %14s %8s   %s\n", "Configuration",
                "Area (ALMs)", "BRAM (Kbits)", "Fmax", "(paper)");
    for (const Row &row : rows) {
        const area::AreaEstimate e = model.estimate(row.cfg);
        std::printf("%-18s %12llu %14.0f %5.0f MHz   (%u / %u / %u)\n",
                    row.name, static_cast<unsigned long long>(e.alms),
                    e.bramKbits, e.fmaxMhz, row.paper_alms, row.paper_bram,
                    row.paper_fmax);
        h.metric(std::string("alms_") + row.name,
                 static_cast<double>(e.alms));
        h.metric(std::string("bram_kbits_") + row.name, e.bramKbits);
    }

    // Area breakdown of the optimised configuration.
    std::printf("\nBreakdown, CHERI (Optimised):\n");
    const area::AreaEstimate opt =
        model.estimate(simt::SmConfig::cheriOptimised());
    for (const auto &item : opt.breakdown)
        std::printf("  %-40s %10llu\n", item.component.c_str(),
                    static_cast<unsigned long long>(item.alms));
    h.finish();
    return 0;
}
