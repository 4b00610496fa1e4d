/**
 * @file
 * Reproduces Figure 11: the number of registers per thread used to hold
 * capabilities (of 32 total). The paper's observation: no benchmark uses
 * more than half, so compiler support limiting capability-holding
 * registers could halve the metadata SRF (7% storage overhead).
 * Both the compiler's static allocation and the register file's runtime
 * observation are reported.
 */

#include <bit>
#include <cstdio>

#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig11_cap_regs");
    benchcommon::printHeader(
        "Figure 11", "registers per thread used to hold capabilities");

    const auto results =
        h.run("cheri_opt", simt::SmConfig::cheriOptimised(),
              kc::CompileOptions::Mode::Purecap);
    if (h.options().list)
        return 0; // the points are listed; nothing ran

    std::printf("%-12s %18s %18s\n", "Benchmark", "compiler (static)",
                "regfile (runtime)");
    unsigned worst = 0;
    for (const auto &r : results) {
        if (r.skipped)
            continue;
        const unsigned static_count = r.run.kernel->capRegCount;
        const unsigned runtime_count =
            static_cast<unsigned>(std::popcount(r.run.rfCapRegMask));
        worst = std::max(worst, std::max(static_count, runtime_count));
        std::printf("%-12s %18u %18u\n", r.name.c_str(), static_count,
                    runtime_count);
    }
    std::printf("\nMaximum: %u of 32 registers (paper: no benchmark "
                "exceeds 16)\n",
                worst);
    h.metric("max_cap_regs", worst);
    h.finish();
    return 0;
}
