/**
 * @file
 * Ablation: the null-value optimisation (NVO). Compares capability-
 * metadata VRF pressure, spills and cycles with NVO on and off
 * (Section 3.2: partially-null metadata vectors stay in the SRF with a
 * per-lane null mask).
 */

#include <cstdio>

#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "abl_nvo");
    benchcommon::printHeader("Ablation", "null-value optimisation (NVO)");

    using Mode = kc::CompileOptions::Mode;
    simt::SmConfig on = simt::SmConfig::cheriOptimised();
    simt::SmConfig off = on;
    off.nvo = false;

    const auto rows = h.runMatrix({{"nvo_on", on, Mode::Purecap},
                                   {"nvo_off", off, Mode::Purecap}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &r_on = rows[0];
    const auto &r_off = rows[1];

    std::printf("%-12s | %12s %10s | %12s %10s\n", "", "NVO off", "", "NVO on",
                "");
    std::printf("%-12s | %12s %10s | %12s %10s\n", "Benchmark", "metaVRF",
                "spills", "metaVRF", "spills");
    for (size_t i = 0; i < r_on.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        std::printf("%-12s | %12.2f %10llu | %12.2f %10llu\n",
                    r_on[i].name.c_str(), r_off[i].run.avgMetaVrf,
                    static_cast<unsigned long long>(
                        r_off[i].run.stats.get("vrf_meta_spills")),
                    r_on[i].run.avgMetaVrf,
                    static_cast<unsigned long long>(
                        r_on[i].run.stats.get("vrf_meta_spills")));
    }

    uint64_t nvo_hits = 0;
    for (const auto &r : r_on)
        nvo_hits += r.run.stats.get("meta_nvo_hits");
    std::printf("\nTotal partially-null vectors held in the SRF by NVO: "
                "%llu\n",
                static_cast<unsigned long long>(nvo_hits));
    h.metric("nvo_srf_hits", static_cast<double>(nvo_hits));
    h.finish();
    return 0;
}
