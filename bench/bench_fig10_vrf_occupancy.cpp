/**
 * @file
 * Reproduces Figure 10: the proportion of registers stored as
 * uncompressed vectors in the VRF, for the general-purpose register file
 * and the capability-metadata register file with and without the
 * null-value optimisation (NVO). Also prints the Section 4.3 storage
 * summary: 103% uncompressed metadata overhead -> 14% with the
 * compressed metadata SRF -> 7% forecast with compiler register
 * limiting (no benchmark uses more than half the registers for
 * capabilities, Figure 11).
 */

#include <cstdio>

#include "bench/bench_common.hpp"
#include "simt/regfile.hpp"

namespace
{

using Mode = kc::CompileOptions::Mode;

} // namespace

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig10_vrf_occupancy");
    benchcommon::printHeader(
        "Figure 10",
        "proportion of registers stored as vectors in the VRF");

    simt::SmConfig with_nvo = simt::SmConfig::cheriOptimised();
    simt::SmConfig no_nvo = with_nvo;
    no_nvo.nvo = false;

    const auto rows_run =
        h.runMatrix({{"cheri_opt_nvo", with_nvo, Mode::Purecap},
                     {"cheri_opt_no_nvo", no_nvo, Mode::Purecap}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &rn = rows_run[0];
    const auto &rwo = rows_run[1];

    const double total_regs = with_nvo.numVectorRegs();
    std::printf("%-12s %10s %14s %14s\n", "Benchmark", "GP data",
                "meta (no NVO)", "meta (NVO)");
    double worst_meta_nvo = 0.0;
    for (size_t i = 0; i < rn.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows_run, i))
            continue;
        const double gp = rn[i].run.avgDataVrf / total_regs * 100.0;
        const double meta_nvo = rn[i].run.avgMetaVrf / total_regs * 100.0;
        const double meta_plain =
            rwo[i].run.avgMetaVrf / total_regs * 100.0;
        worst_meta_nvo = std::max(worst_meta_nvo, meta_nvo);
        std::printf("%-12s %9.1f%% %13.1f%% %13.1f%%\n",
                    rn[i].name.c_str(), gp, meta_plain, meta_nvo);
    }

    // Section 4.3 storage-overhead summary, computed from the same
    // storage model the simulator uses.
    support::StatSet scratch;
    simt::RegFileSystem base_rf(simt::SmConfig::baseline(), scratch);
    simt::RegFileSystem plain_rf(simt::SmConfig::cheri(), scratch);
    simt::RegFileSystem opt_rf(with_nvo, scratch);
    const double base_bits = static_cast<double>(base_rf.dataStorageBits());
    std::printf("\nRegister-file storage overhead of CHERI:\n");
    std::printf("  uncompressed metadata file: %+.0f%%  (paper: +103%%)\n",
                static_cast<double>(plain_rf.metaStorageBits()) /
                    static_cast<double>(plain_rf.flatDataStorageBits()) *
                    100.0);
    std::printf("  compressed metadata SRF:    %+.0f%%  (paper: +14%%)\n",
                static_cast<double>(opt_rf.metaStorageBits()) / base_bits *
                    100.0);
    std::printf("  with compiler reg limiting: %+.0f%%  (paper: +7%%)\n",
                static_cast<double>(opt_rf.metaStorageBits()) / 2.0 /
                    base_bits * 100.0);
    h.metric("meta_overhead_plain_pct",
             static_cast<double>(plain_rf.metaStorageBits()) /
                 static_cast<double>(plain_rf.flatDataStorageBits()) *
                 100.0);
    h.metric("meta_overhead_srf_pct",
             static_cast<double>(opt_rf.metaStorageBits()) / base_bits *
                 100.0);
    h.finish();
    return 0;
}
