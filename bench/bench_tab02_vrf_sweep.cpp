/**
 * @file
 * Reproduces Table 2: register-file compression in the baseline
 * configuration for a 1/2, 3/8 and 1/4-size VRF -- storage, compression
 * ratio versus a flat register file, and cycle and memory-access
 * overheads relative to a full-size (spill-free) VRF.
 */

#include <cstdio>
#include <iterator>

#include "bench/bench_common.hpp"
#include "simt/regfile.hpp"

namespace
{

using benchcommon::SuiteResult;
using Mode = kc::CompileOptions::Mode;

uint64_t
memTraffic(const support::StatSet &s)
{
    return s.get("dram_bytes_read") + s.get("dram_bytes_written") +
           s.get("stack_dram_bytes_read") +
           s.get("stack_dram_bytes_written") +
           s.get("rf_spill_dram_bytes");
}

} // namespace

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "tab02_vrf_sweep");
    benchcommon::printHeader(
        "Table 2", "register-file compression in the baseline (VRF sweep)");

    struct Row
    {
        unsigned capacity;
        const char *label;
    };
    const Row rows[] = {{1024, "1,024 (1/2)"},
                        {768, "768 (3/8)"},
                        {512, "512 (1/4)"}};

    // Reference: a VRF big enough to never spill.
    simt::SmConfig ref_cfg = simt::SmConfig::baseline();
    ref_cfg.vrfCapacity = ref_cfg.numVectorRegs();

    std::vector<benchcommon::ConfigPoint> points;
    points.push_back({"vrf_full", ref_cfg, Mode::Baseline});
    for (const Row &row : rows) {
        simt::SmConfig cfg = simt::SmConfig::baseline();
        cfg.vrfCapacity = row.capacity;
        points.push_back(
            {"vrf" + std::to_string(row.capacity), cfg, Mode::Baseline});
    }
    const auto sweep = h.runMatrix(points);
    if (h.options().list)
        return 0; // the points are listed; nothing ran
    const auto &ref = sweep[0];

    std::printf("%-14s %10s %9s %10s %12s\n", "VRF (regs)", "Storage",
                "Compress", "Cycle", "Mem access");
    std::printf("%-14s %10s %9s %10s %12s\n", "", "(Kb)", "ratio",
                "overhead", "overhead");

    for (size_t r = 0; r < std::size(rows); ++r) {
        const Row &row = rows[r];
        const simt::SmConfig &cfg = points[r + 1].cfg;
        const auto &res = sweep[r + 1];

        support::StatSet scratch;
        simt::RegFileSystem rf(cfg, scratch);
        const double storage_kb =
            static_cast<double>(rf.dataStorageBits()) / 1024.0;
        const double ratio = static_cast<double>(rf.dataStorageBits()) /
                             static_cast<double>(rf.flatDataStorageBits());

        std::vector<double> cycle_ratios;
        std::vector<double> mem_ratios;
        for (size_t i = 0; i < res.size(); ++i) {
            if (!benchcommon::ranInEveryRow(sweep, i))
                continue;
            cycle_ratios.push_back(
                static_cast<double>(res[i].run.cycles) /
                static_cast<double>(ref[i].run.cycles));
            mem_ratios.push_back(
                static_cast<double>(memTraffic(res[i].run.stats)) /
                static_cast<double>(memTraffic(ref[i].run.stats)));
        }
        const double cyc = (benchcommon::geomean(cycle_ratios) - 1) * 100;
        const double mem = (benchcommon::geomean(mem_ratios) - 1) * 100;
        std::printf("%-14s %10.0f %9.2f %+9.1f%% %+11.1f%%\n", row.label,
                    storage_kb, ratio, cyc, mem);
        h.metric("cycle_overhead_pct_vrf" + std::to_string(row.capacity),
                 cyc);
        h.metric("mem_overhead_pct_vrf" + std::to_string(row.capacity),
                 mem);
    }
    std::printf("(paper: 1,202 Kb/1:0.57/0.8%%/0.1%% -- "
                "937 Kb/1:0.45/0.9%%/2.2%% -- 672 Kb/1:0.32/4.3%%/39.9%%)\n");
    h.finish();
    return 0;
}
