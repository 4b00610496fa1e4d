/**
 * @file
 * Ablation: tag-cache size sweep. Shows how the tag controller's extra
 * DRAM traffic varies with the number of tag-cache lines, and the effect
 * of the capability-free-region filter (Joannou et al.): with the filter
 * and a modest cache, tag traffic is a negligible fraction of data
 * traffic (the basis of the paper's Figure 12 claim).
 */

#include <cstdio>

#include "bench/bench_common.hpp"

int
main(int argc, char **argv)
{
    benchcommon::Harness h(argc, argv, "abl_tagcache");
    benchcommon::printHeader("Ablation", "tag-cache size sweep");

    using Mode = kc::CompileOptions::Mode;

    // One config point per (filter, lines) pair; the whole sweep runs
    // through the shared pool so independent points overlap.
    std::vector<benchcommon::ConfigPoint> points;
    for (const bool filter : {false, true}) {
        for (unsigned lines : {1u, 4u, 16u, 64u, 256u}) {
            simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
            cfg.tagCacheLines = lines;
            cfg.tagRootFilter = filter;
            points.push_back({std::string("filter_") +
                                  (filter ? "on" : "off") + "_lines" +
                                  std::to_string(lines),
                              cfg, Mode::Purecap});
        }
    }
    const auto sweep = h.runMatrix(points);
    if (h.options().list)
        return 0; // the points are listed; nothing ran

    std::printf("%-10s %8s %16s %16s %12s\n", "Lines", "filter",
                "tag traffic (B)", "data traffic (B)", "overhead");

    size_t point_idx = 0;
    for (const bool filter : {false, true}) {
        for (unsigned lines : {1u, 4u, 16u, 64u, 256u}) {
            const auto &res = sweep[point_idx++];

            uint64_t tag = 0, data = 0;
            for (const auto &r : res) {
                tag += r.run.stats.get("tag_dram_bytes_read") +
                       r.run.stats.get("tag_dram_bytes_written");
                data += r.run.stats.get("dram_bytes_read") +
                        r.run.stats.get("dram_bytes_written");
            }
            const double pct = static_cast<double>(tag) /
                               static_cast<double>(data) * 100.0;
            std::printf("%-10u %8s %16llu %16llu %11.3f%%\n", lines,
                        filter ? "on" : "off",
                        static_cast<unsigned long long>(tag),
                        static_cast<unsigned long long>(data), pct);
            h.metric("tag_traffic_pct_" + points[point_idx - 1].label, pct);
        }
    }
    h.finish();
    return 0;
}
