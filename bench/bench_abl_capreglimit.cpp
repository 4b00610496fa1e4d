/**
 * @file
 * The paper's Section 4.3 forecast, implemented and measured rather than
 * forecast: with compiler support limiting capability-holding registers
 * to half the register file (x0..x15), the capability-metadata SRF only
 * needs entries for 16 registers per thread, halving its storage --
 * "this would reduce the register-file storage overhead to 7% without
 * impacting run-time performance". Runs the suite with the limit
 * enforced end to end (compiler register classes + hardware SRF sizing)
 * and compares cycles and storage against the unlimited configuration.
 */

#include <cstdio>

#include "bench/bench_common.hpp"
#include "kernels/suite.hpp"
#include "simt/regfile.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "abl_capreglimit");
    benchcommon::printHeader(
        "Ablation", "capability-register limiting (Section 4.3 forecast)");

    using Mode = kc::CompileOptions::Mode;

    // Limited: hardware tracks 16 registers, compiler honours it.
    simt::SmConfig hw = simt::SmConfig::cheriOptimised();
    hw.metaRegsTracked = 16;

    const auto rows = h.runMatrix(
        {{"no_limit", simt::SmConfig::cheriOptimised(), Mode::Purecap},
         {"limit16", hw, Mode::Purecap, 16}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &unlimited = rows[0];
    const auto &limited = rows[1];

    std::printf("%-12s %14s %14s %10s %8s\n", "Benchmark",
                "no limit(cyc)", "limit 16(cyc)", "delta", "capRegs");
    std::vector<double> ratios;
    for (size_t i = 0; i < limited.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        const nocl::RunResult &r = limited[i].run;
        const double ratio =
            static_cast<double>(r.cycles) /
            static_cast<double>(unlimited[i].run.cycles);
        ratios.push_back(ratio);
        std::printf("%-12s %14llu %14llu %+9.2f%% %8u%s\n",
                    limited[i].name.c_str(),
                    static_cast<unsigned long long>(
                        unlimited[i].run.cycles),
                    static_cast<unsigned long long>(r.cycles),
                    (ratio - 1.0) * 100.0, r.kernel->capRegCount,
                    limited[i].ok ? "" : "  [VERIFY FAILED]");
    }
    const double gm = benchcommon::geomean(ratios);
    std::printf("%-12s %14s %14s %+9.2f%%   (paper: no impact)\n",
                "geomean", "", "", (gm - 1.0) * 100.0);

    // Storage effect.
    support::StatSet scratch;
    simt::RegFileSystem base_rf(simt::SmConfig::baseline(), scratch);
    simt::RegFileSystem full_rf(simt::SmConfig::cheriOptimised(), scratch);
    simt::RegFileSystem half_rf(hw, scratch);
    const double base_bits = static_cast<double>(base_rf.dataStorageBits());
    std::printf("\nMetadata storage overhead: %+.0f%% unlimited, %+.0f%% "
                "with the 16-register limit (paper forecast: 14%% -> 7%%)\n",
                static_cast<double>(full_rf.metaStorageBits()) / base_bits *
                    100.0,
                static_cast<double>(half_rf.metaStorageBits()) / base_bits *
                    100.0);
    h.metric("cycle_delta_pct", (gm - 1.0) * 100.0);
    h.metric("meta_overhead_pct",
             static_cast<double>(half_rf.metaStorageBits()) / base_bits *
                 100.0);
    h.finish();
    return 0;
}
