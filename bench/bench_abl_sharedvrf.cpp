/**
 * @file
 * Ablation: shared versus split VRF (Section 3.2). With split VRFs each
 * register file can spill while the other has free space (fragmentation)
 * and the metadata VRF adds its own storage; the shared VRF avoids both
 * at the cost of serialised data/metadata accesses (one-cycle stalls).
 */

#include <cstdio>

#include "bench/bench_common.hpp"
#include "simt/regfile.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "abl_sharedvrf");
    benchcommon::printHeader("Ablation", "shared vs split VRF");

    using Mode = kc::CompileOptions::Mode;
    simt::SmConfig shared_cfg = simt::SmConfig::cheriOptimised();
    simt::SmConfig split_cfg = shared_cfg;
    split_cfg.sharedVrf = false;

    const auto rows = h.runMatrix({{"shared_vrf", shared_cfg, Mode::Purecap},
                                   {"split_vrf", split_cfg, Mode::Purecap}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &r_shared = rows[0];
    const auto &r_split = rows[1];

    std::printf("%-12s | %10s %8s %8s | %10s %8s %8s\n", "", "shared", "",
                "", "split", "", "");
    std::printf("%-12s | %10s %8s %8s | %10s %8s %8s\n", "Benchmark",
                "cycles", "spills", "stalls", "cycles", "spills", "stalls");
    for (size_t i = 0; i < r_shared.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        const auto spills = [](const support::StatSet &s) {
            return s.get("vrf_data_spills") + s.get("vrf_meta_spills");
        };
        std::printf("%-12s | %10llu %8llu %8llu | %10llu %8llu %8llu\n",
                    r_shared[i].name.c_str(),
                    static_cast<unsigned long long>(r_shared[i].run.cycles),
                    static_cast<unsigned long long>(
                        spills(r_shared[i].run.stats)),
                    static_cast<unsigned long long>(
                        r_shared[i].run.stats.get("shared_vrf_stalls")),
                    static_cast<unsigned long long>(r_split[i].run.cycles),
                    static_cast<unsigned long long>(
                        spills(r_split[i].run.stats)),
                    0ull);
    }

    support::StatSet scratch;
    simt::RegFileSystem shared_rf(shared_cfg, scratch);
    simt::RegFileSystem split_rf(split_cfg, scratch);
    const double shared_kb =
        static_cast<double>(shared_rf.metaStorageBits()) / 1024;
    const double split_kb =
        static_cast<double>(split_rf.metaStorageBits()) / 1024;
    std::printf("\nMetadata storage: shared VRF %.0f Kb, split VRFs "
                "%.0f Kb\n",
                shared_kb, split_kb);
    h.metric("meta_storage_shared_kb", shared_kb);
    h.metric("meta_storage_split_kb", split_kb);
    h.finish();
    return 0;
}
