/**
 * @file
 * Shared infrastructure for the benchmark harnesses: run the Table 1
 * suite under a given SM configuration and compile mode -- serially or
 * across a pool of worker threads -- verify results, print paper-style
 * tables, and emit machine-readable JSON result files.
 *
 * Parallelism model: every (configuration, benchmark) point is fully
 * self-contained -- it builds its own nocl::Device (one simulated SM plus
 * host memory), so points run concurrently without sharing simulator
 * state. Kernel compilation goes through the process-wide
 * nocl::KernelCache, so a sweep compiles each kernel once instead of
 * once per point. The simulator is deterministic, therefore serial and
 * parallel runs report bit-identical cycle counts and modelled
 * statistics. The simhost_* counters describe the host simulation
 * itself: they depend on the execute engine (SmConfig::hostFastPath)
 * and on the runtime dispatch (AVX2 or CHERI_SIMT_FORCE_SCALAR), but
 * are otherwise just as deterministic -- a kernel's cold first launch
 * and a warm repeat report the same values (DESIGN.md section 10).
 */

#ifndef CHERI_SIMT_BENCH_BENCH_COMMON_HPP_
#define CHERI_SIMT_BENCH_BENCH_COMMON_HPP_

#include <memory>
#include <string>
#include <vector>

#include "kc/codegen.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/config.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace benchcommon
{

/** Result of running one benchmark under one configuration. */
struct SuiteResult
{
    std::string name;
    bool ok = false;

    /** Excluded by --filter / --list: never ran, not recorded in JSON. */
    bool skipped = false;

    nocl::RunResult run;
};

/** One configuration point of a benchmark matrix. */
struct ConfigPoint
{
    std::string label;
    simt::SmConfig cfg;
    kc::CompileOptions::Mode mode = kc::CompileOptions::Mode::Baseline;

    /** Per-launch capability-register limit override (0 = leave as is). */
    unsigned capRegLimit = 0;
};

/** Harness options shared by every bench binary (see parseArgs). */
struct BenchOptions
{
    kernels::Size size = kernels::Size::Full;

    /** Worker threads for suite runs; 0 = hardware concurrency. */
    unsigned threads = 0;

    /** Path of the JSON results file; empty = no JSON output. */
    std::string jsonPath;

    /** '|'-separated substrings of "<config label>/<bench name>"
     *  (matchesAny); points that match none are skipped. Empty = run
     *  everything. */
    std::string filter;

    /** Print the matching "<config>/<bench>" points instead of running. */
    bool list = false;

    /** Simulated SMs per device (SmConfig::numSms) for every point. */
    unsigned sms = 1;

    /** Workload seed mixed into every benchmark's input generator
     *  (kernels::setWorkloadSeed); 0 = the historical fixed inputs. */
    uint64_t seed = 0;

    /** Path of the Chrome-trace-event JSON file ("cheri-simt-trace-v1");
     *  empty = no trace. Forces --threads 1 (deterministic stream). */
    std::string tracePath;

    /** Collect per-kernel per-PC profiles into the results JSON.
     *  Forces --threads 1, like --trace. */
    bool profile = false;
};

/**
 * Parse the harness flags; any other argument is a usage error:
 *
 *   --json <path> | --json=<path>     write a JSON results file
 *   --threads <n> | --threads=<n>     worker threads (0 = auto)
 *   --size small|full | --size=...    workload size (default full)
 *   --filter <f> | --filter=<f>       run only points whose
 *                                     "<config>/<bench>" contains one
 *                                     of <f>'s '|'-separated names
 *   --list                            print matching points, run nothing
 *   --sms <n> | --sms=<n>             simulated SMs per device (default 1)
 *   --seed <n> | --seed=<n>           workload seed (default 0 = fixed
 *                                     historical inputs)
 *   --trace <path> | --trace=<path>   write a Chrome-trace-event JSON
 *                                     file (forces --threads 1)
 *   --profile                         add per-kernel "profile" objects
 *                                     to the results JSON (forces
 *                                     --threads 1)
 */
BenchOptions parseArgs(int argc, char **argv);

/**
 * Does @p name contain one of @p filter's '|'-separated substrings? An
 * empty filter matches everything. A filter holding a regex
 * metacharacter is a usage error (fatal), so an old regex filter cannot
 * silently select nothing.
 */
bool matchesAny(const std::string &filter, const std::string &name);

/** Does "<config_label>/<bench_name>" match @p filter (matchesAny)? */
bool matchesFilter(const std::string &filter,
                   const std::string &config_label,
                   const std::string &bench_name);

/**
 * Run every benchmark of the suite serially and verify its output.
 * Workload size defaults to Full (the paper's evaluation sizes).
 */
std::vector<SuiteResult> runSuite(const simt::SmConfig &sm_cfg,
                                  kc::CompileOptions::Mode mode,
                                  kernels::Size size = kernels::Size::Full,
                                  unsigned cap_reg_limit = 0);

/**
 * Run every benchmark of the suite across @p threads worker threads
 * (0 = hardware concurrency). Results are returned in suite order and
 * are bit-identical to runSuite on the same inputs.
 */
std::vector<SuiteResult>
runSuiteParallel(const simt::SmConfig &sm_cfg,
                 kc::CompileOptions::Mode mode,
                 kernels::Size size = kernels::Size::Full,
                 unsigned threads = 0, unsigned cap_reg_limit = 0);

/**
 * Run the full benchmark x configuration matrix with one shared worker
 * pool (every point is an independent task, so a sweep saturates the
 * pool even when single configurations have stragglers). Row i of the
 * result corresponds to points[i], in suite order.
 */
std::vector<std::vector<SuiteResult>>
runMatrix(const std::vector<ConfigPoint> &points,
          kernels::Size size = kernels::Size::Full, unsigned threads = 0);

/**
 * Did every row of @p rows run benchmark @p b? A --filter can leave a
 * benchmark out of some configurations, so a per-benchmark table
 * prints, and its geomean takes, only the benchmarks every row ran.
 */
bool ranInEveryRow(const std::vector<std::vector<SuiteResult>> &rows,
                   size_t b);

/**
 * Geometric mean of a vector of ratios. Non-positive and non-finite
 * entries (a failed benchmark, a zero-cycle baseline) are skipped --
 * with a warning only under CHERI_SIMT_VERBOSE, so campaign sweeps stay
 * quiet -- instead of silently propagating into the mean. When no
 * usable entry remains (including the empty vector) the mean is
 * undefined and the function returns NaN; the JSON dump layer writes
 * non-finite metrics as null, which json_check accepts.
 */
double geomean(const std::vector<double> &values);

/** Print a header naming the reproduced table/figure. */
void printHeader(const std::string &id, const std::string &caption);

/**
 * Per-binary harness: parses the shared flags, runs suites in parallel,
 * accumulates every result, and writes the JSON results file on
 * finish() when --json was given.
 *
 * JSON schema ("cheri-simt-bench-v1"):
 *
 *   {
 *     "schema": "cheri-simt-bench-v1",
 *     "binary": "<id>",
 *     "size": "small" | "full",
 *     "sms": int,                    // simulated SMs per device
 *     "seed": int,                   // workload seed (0 = fixed inputs)
 *     "results": [
 *       { "config": "<label>", "bench": "<name>", "ok": bool,
 *         "completed": bool, "trapped": bool, "trap_kind": "<str>",
 *         "cycles": int, "watchdog": int, "fault_injections": int,
 *         "stats": { "<counter>": int, ... } }, ...
 *     ],
 *     "metrics": { "<name>": number, ... },
 *     "kernel_cache": { "hits": int, "misses": int, "size": int }
 *   }
 *
 * Fault-campaign entries (bench_fault_campaign) additionally carry
 * "fault_class", "fault_site", "fault_outcome" ("detected" | "masked" |
 * "corrupt"), "fault_bit" and "fault_addr".
 *
 * Under --profile every result entry additionally carries a "profile"
 * object:
 *
 *   "profile": { "launches": int, "instructions": int,
 *                "fastpath_share": number,
 *                "packed_mem_share": number,
 *                "fusion_hit_rate": number,
 *                "stack_cache_hit_rate": number,
 *                "dram_bytes_per_transaction": number,
 *                "top_pcs": [ { "pc": "0x...", "count": int,
 *                               "instr": "<disassembly>" }, ... ],
 *                "ops": { "<op>": { "steps": int, "misses": int },
 *                         ... } }
 *
 * where top_pcs lists the 8 hottest PCs by executed-instruction count
 * (ties broken by lower PC), and ops gives, for every executed op, its
 * warp steps and the steps among them that missed the accelerated
 * engine's fast paths (its steps sum to instructions).
 */
class Harness
{
  public:
    /** @p binary names the emitting binary in the JSON file. */
    Harness(int argc, char **argv, std::string binary);

    const BenchOptions &options() const { return opts_; }
    kernels::Size size() const { return opts_.size; }

    /** Run the suite under one configuration and record the results. */
    std::vector<SuiteResult> run(const std::string &label,
                                 const simt::SmConfig &cfg,
                                 kc::CompileOptions::Mode mode,
                                 unsigned cap_reg_limit = 0);

    /** Run a configuration matrix and record every row. */
    std::vector<std::vector<SuiteResult>>
    runMatrix(const std::vector<ConfigPoint> &points);

    /** Record results obtained outside run()/runMatrix(). */
    void record(const std::string &label,
                const std::vector<SuiteResult> &results);

    /** Record a pre-built results entry (fault-campaign drivers). */
    void recordEntry(support::json::Value entry);

    /** Record a derived scalar (a geomean, an area number, ...). */
    void metric(const std::string &name, double value);

    /** Write the JSON results file if --json was given, and the trace
     *  file if --trace was given. */
    void finish() const;

    /** The trace/profile session, or nullptr when neither --trace nor
     *  --profile was given (fault-campaign drivers attach it to their
     *  own devices). */
    support::trace::Session *traceSession() const { return trace_.get(); }

  private:
    BenchOptions opts_;
    std::string binary_;
    support::json::Value results_ = support::json::Value::array();
    support::json::Value metrics_ = support::json::Value::object();
    std::unique_ptr<support::trace::Session> trace_;
};

} // namespace benchcommon

#endif // CHERI_SIMT_BENCH_BENCH_COMMON_HPP_
