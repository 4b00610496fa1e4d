/**
 * @file
 * Reproduces Figure 12: DRAM bandwidth usage with and without CHERI.
 * The paper's claim: the introduction of CHERI does not significantly
 * affect DRAM traffic (tag-controller traffic is almost eliminated by
 * the tag cache and its capability-free-region filter).
 */

#include <cstdio>

#include "bench/bench_common.hpp"

namespace
{

using Mode = kc::CompileOptions::Mode;

uint64_t
totalTraffic(const support::StatSet &s)
{
    return s.get("dram_bytes_read") + s.get("dram_bytes_written") +
           s.get("tag_dram_bytes_read") + s.get("tag_dram_bytes_written") +
           s.get("stack_dram_bytes_read") +
           s.get("stack_dram_bytes_written") +
           s.get("rf_spill_dram_bytes");
}

} // namespace

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig12_dram_bw");
    benchcommon::printHeader("Figure 12",
                             "DRAM bandwidth usage with/without CHERI");

    const auto rows = h.runMatrix(
        {{"baseline", simt::SmConfig::baseline(), Mode::Baseline},
         {"cheri_opt", simt::SmConfig::cheriOptimised(), Mode::Purecap}});
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &base = rows[0];
    const auto &cheri = rows[1];

    std::printf("%-12s %12s %12s %12s %8s %10s\n", "Benchmark",
                "Base(B)", "CHERI(B)", "TagTraffic", "Ratio", "GB/s@180M");
    std::vector<double> ratios;
    for (size_t i = 0; i < base.size(); ++i) {
        if (!benchcommon::ranInEveryRow(rows, i))
            continue;
        const uint64_t tb = totalTraffic(base[i].run.stats);
        const uint64_t tc = totalTraffic(cheri[i].run.stats);
        const uint64_t tag =
            cheri[i].run.stats.get("tag_dram_bytes_read") +
            cheri[i].run.stats.get("tag_dram_bytes_written");
        const double ratio =
            static_cast<double>(tc) / static_cast<double>(tb);
        ratios.push_back(ratio);
        // Bandwidth at the paper's 180 MHz clock.
        const double gbs = static_cast<double>(tc) /
                           static_cast<double>(cheri[i].run.cycles) *
                           180e6 / 1e9;
        std::printf("%-12s %12llu %12llu %12llu %7.3f %9.2f\n",
                    base[i].name.c_str(),
                    static_cast<unsigned long long>(tb),
                    static_cast<unsigned long long>(tc),
                    static_cast<unsigned long long>(tag), ratio, gbs);
    }
    std::printf("%-12s %12s %12s %12s %7.3f   (paper: ~1.00)\n", "geomean",
                "", "", "", benchcommon::geomean(ratios));
    h.metric("geomean_traffic_ratio", benchcommon::geomean(ratios));
    h.finish();
    return 0;
}
