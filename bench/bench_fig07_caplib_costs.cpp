/**
 * @file
 * Reproduces Figure 7: the logic-area costs of the CheriCapLib functions
 * that handle compressed bounds, with the 32-bit multiplier reference
 * point, and demonstrates each function against the capability library
 * implementation (the functional contract that the costs price).
 */

#include <cstdio>

#include "area/area_model.hpp"
#include "bench/bench_common.hpp"
#include "cap/cheri_concentrate.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "fig07_caplib_costs");
    benchcommon::printHeader("Figure 7",
                             "CheriCapLib function logic-area costs");

    const area::AreaModel model;
    const area::CapLibCosts &c = model.capLib();

    struct Row
    {
        const char *name;
        unsigned alms;
    };
    const Row rows[] = {
        {"fromMem", c.fromMem},
        {"toMem", c.toMem},
        {"setAddr", c.setAddr},
        {"isAccessInBounds", c.isAccessInBounds},
        {"getBase", c.getBase},
        {"getLength", c.getLength},
        {"getTop", c.getTop},
        {"setBounds", c.setBounds},
    };
    std::printf("%-18s %6s\n", "Function", "ALMs");
    for (const Row &row : rows)
        std::printf("%-18s %6u\n", row.name, row.alms);
    std::printf("%-18s %6u  (reference)\n", "32-bit multiplier",
                c.multiplier32);
    std::printf("fast path (per lane): %u, slow path (SFU): %u\n",
                c.fastPath(), c.slowPath());

    // Exercise the priced functions once for the record.
    const cap::CapPipe root = cap::rootCap();
    const cap::CapPipe buf =
        cap::setBounds(cap::setAddr(root, 0x1000), 256).cap;
    std::printf("\nFunctional check: base=0x%x len=%llu in-bounds=%d\n",
                cap::getBase(buf),
                static_cast<unsigned long long>(cap::getLength(buf)),
                cap::isAccessInBounds(buf, 2) ? 1 : 0);

    for (const Row &row : rows)
        h.metric(std::string("alms_") + row.name, row.alms);
    h.metric("alms_fast_path", c.fastPath());
    h.metric("alms_slow_path", c.slowPath());
    h.finish();
    return 0;
}
