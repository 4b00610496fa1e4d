/**
 * @file
 * Reproduces Figure 6: average execution frequency of CHERI instructions
 * on GPU workloads, relative to total instructions executed, under the
 * optimised CHERI configuration. The paper's shape: CIncOffset(Imm)
 * dominates, CSC is around 2%, and the bounds-manipulation instructions
 * (CSetBounds*, CGetBase, CGetLen, CRRL, CRAM) are rare -- the
 * observation that justifies moving them into the shared function unit.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig06_cheri_histogram");
    benchcommon::printHeader(
        "Figure 6", "CHERI instruction execution frequency (CHERI opt.)");

    const auto results =
        h.run("cheri_opt", simt::SmConfig::cheriOptimised(),
              kc::CompileOptions::Mode::Purecap);
    if (h.options().list)
        return 0; // the points are listed; nothing ran

    // Average the per-benchmark relative frequencies (as the paper does),
    // rather than pooling counts, so small benchmarks weigh equally.
    std::map<std::string, double> freq_sum;
    size_t ran = 0;
    for (const auto &r : results) {
        if (r.skipped)
            continue;
        ++ran;
        const double instrs =
            static_cast<double>(r.run.stats.get("instrs"));
        for (const auto &[name, count] : r.run.stats.all()) {
            const bool cheri_named =
                (name.rfind("op_c", 0) == 0 &&
                 name.rfind("op_csrr", 0) != 0) ||
                name.rfind("op_auipcc", 0) == 0;
            if (cheri_named)
                freq_sum[name] += static_cast<double>(count) / instrs;
        }
    }

    std::vector<std::pair<std::string, double>> rows;
    for (const auto &[name, sum] : freq_sum)
        rows.emplace_back(name.substr(3),
                          sum / static_cast<double>(ran));
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });

    std::printf("%-16s %10s\n", "Instruction", "Avg freq");
    for (const auto &[name, freq] : rows)
        std::printf("%-16s %9.2f%%\n", name.c_str(), freq * 100.0);

    double cheri_total = 0.0;
    for (const auto &[name, freq] : rows)
        cheri_total += freq;
    std::printf("%-16s %9.2f%%\n", "all CHERI ops", cheri_total * 100.0);
    for (const auto &[name, freq] : rows)
        h.metric("freq_pct_" + name, freq * 100.0);
    h.metric("freq_pct_all_cheri_ops", cheri_total * 100.0);
    h.finish();
    return 0;
}
