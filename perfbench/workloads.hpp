/**
 * @file
 * The benchmark's three workloads (see README.md for why each exists):
 *
 *  - suite-full: the Figure 13 sweep -- 14 kernels x {baseline,
 *    CHERI-optimised}, full size, one SM, a fresh device per point;
 *  - shard-4sm: the 14 kernels, CHERI-optimised, full size, four SMs
 *    (the threaded epoch and copy-on-write memory shards);
 *  - campaign-small: a fork-from-state fault campaign, CHERI on, small
 *    size, the same number of sites for every kernel.
 *
 * Each workload drives the public API from outside, times every call
 * into a layer, and checks every output.
 */

#ifndef CHERI_SIMT_PERFBENCH_WORKLOADS_HPP_
#define CHERI_SIMT_PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** One line per failed operation (printed, never skipped). */
    std::vector<std::string> failures;

    /** Untraced-run metrics (--trace 0). */
    std::vector<Metric> endToEnd;

    /** Traced-run layer split (--trace 1). */
    std::vector<Metric> perLayer;

    /** Wall time of every timed pass, in run order. */
    std::vector<double> passSeconds;
};

bool isWorkload(const std::string &name);

/** Run one workload; spans go to @p spans when opts.trace is set. */
Outcome runWorkload(const Options &opts, SpanRecorder &spans);

} // namespace perfbench

#endif // CHERI_SIMT_PERFBENCH_WORKLOADS_HPP_
