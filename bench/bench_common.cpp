#include "bench/bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

#include "support/logging.hpp"

namespace benchcommon
{

namespace
{

/**
 * Run one (configuration, benchmark) point. Fully self-contained: the
 * point gets its own benchmark instance and its own device, so points
 * are independent tasks for the worker pool.
 */
SuiteResult
runPoint(size_t bench_idx, const ConfigPoint &point, kernels::Size size,
         support::trace::Session *trace = nullptr)
{
    auto suite = kernels::makeSuite();
    kernels::Benchmark &bench = *suite.at(bench_idx);

    nocl::Device dev(point.cfg, point.mode);
    if (trace != nullptr) {
        // One track per "<config>/<bench>" point; the caller guarantees
        // single-threaded execution while a session is attached.
        trace->beginTrack(point.label + "/" + bench.name());
        dev.attachTraceSession(trace);
    }
    kernels::Prepared p = bench.prepare(dev, size);
    if (point.capRegLimit != 0)
        p.cfg.capRegLimit = point.capRegLimit;

    SuiteResult r;
    r.name = bench.name();
    r.run = dev.launch(*p.kernel, p.cfg, p.args);
    r.ok = r.run.completed && !r.run.trapped && p.verify(dev);
    if (!r.ok) {
        warn("benchmark %s [%s] failed verification (trap: %s)",
             r.name.c_str(), point.label.c_str(),
             simt::trapKindName(r.run.trapKind));
    }
    return r;
}

/**
 * Execute @p count independent tasks on a pool of @p threads workers
 * (0 = hardware concurrency). Tasks are claimed from a shared counter;
 * each task writes only its own result slot, so completion order does
 * not affect the output.
 */
void
runTasks(size_t count, unsigned threads,
         const std::function<void(size_t)> &task)
{
    unsigned n = threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    if (count < n)
        n = static_cast<unsigned>(count);

    if (n <= 1) {
        for (size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                task(i);
            }
        });
    }
    for (auto &worker : pool)
        worker.join();
}

size_t
suiteSize()
{
    return kernels::makeSuite().size();
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &bench : kernels::makeSuite())
        names.push_back(bench->name());
    return names;
}

/**
 * runMatrix with --filter applied: excluded points are returned with
 * skipped = true (and their name filled in) instead of running.
 */
std::vector<std::vector<SuiteResult>>
runMatrixFiltered(const std::vector<ConfigPoint> &points,
                  kernels::Size size, unsigned threads,
                  const std::string &filter,
                  support::trace::Session *trace = nullptr)
{
    const auto names = suiteNames();
    const size_t count = names.size();
    std::vector<std::vector<SuiteResult>> rows(points.size());
    for (auto &row : rows)
        row.resize(count);

    runTasks(points.size() * count, threads, [&](size_t task) {
        const size_t p = task / count;
        const size_t b = task % count;
        if (!matchesFilter(filter, points[p].label, names[b])) {
            rows[p][b].name = names[b];
            rows[p][b].skipped = true;
            return;
        }
        rows[p][b] = runPoint(b, points[p], size, trace);
    });
    return rows;
}

/** Ratio helper for profile rates: 0 when the denominator is 0. */
double
ratioOf(uint64_t num, uint64_t den)
{
    return den != 0 ? static_cast<double>(num) / static_cast<double>(den)
                    : 0.0;
}

/** Build a result entry's "profile" object from the per-PC histogram
 *  plus the run's modelled stats (see the schema in bench_common.hpp). */
support::json::Value
profileJson(const support::trace::KernelProfile &prof,
            const support::StatSet &stats)
{
    using support::json::Value;
    Value out = Value::object();
    out.set("launches", Value::integer(prof.launches));

    uint64_t total = 0;
    for (uint64_t c : prof.pcCounts)
        total += c;
    out.set("instructions", Value::integer(total));

    out.set("fastpath_share",
            Value::number(ratioOf(stats.get("simhost_fastpath_instrs"),
                                  stats.get("simhost_instrs"))));
    out.set("packed_mem_share",
            Value::number(ratioOf(stats.get("simhost_packed_mem_instrs"),
                                  stats.get("simhost_instrs"))));
    out.set("fusion_hit_rate",
            Value::number(ratioOf(stats.get("simhost_fused_instrs"),
                                  stats.get("simhost_instrs"))));
    out.set("stack_cache_hit_rate",
            Value::number(ratioOf(stats.get("stack_cache_hits"),
                                  stats.get("stack_cache_hits") +
                                      stats.get("stack_cache_misses"))));
    out.set("dram_bytes_per_transaction",
            Value::number(ratioOf(stats.get("dram_bytes_read") +
                                      stats.get("dram_bytes_written"),
                                  stats.get("dram_transactions"))));

    // The 8 hottest PCs, count-descending, ties broken by lower PC.
    std::vector<size_t> hot;
    for (size_t i = 0; i < prof.pcCounts.size(); ++i)
        if (prof.pcCounts[i] != 0)
            hot.push_back(i);
    std::sort(hot.begin(), hot.end(), [&](size_t a, size_t b) {
        if (prof.pcCounts[a] != prof.pcCounts[b])
            return prof.pcCounts[a] > prof.pcCounts[b];
        return a < b;
    });
    if (hot.size() > 8)
        hot.resize(8);
    Value tops = Value::array();
    for (size_t i : hot) {
        Value pc = Value::object();
        pc.set("pc", Value::str(support::strprintf(
                         "0x%08x", static_cast<uint32_t>(i * 4))));
        pc.set("count", Value::integer(prof.pcCounts[i]));
        if (i < prof.disasm.size())
            pc.set("instr", Value::str(prof.disasm[i]));
        tops.push(std::move(pc));
    }
    out.set("top_pcs", std::move(tops));

    // Steps and fast-path misses per executed op, in op order.
    Value ops = Value::object();
    for (size_t i = 0; i < prof.opSteps.size(); ++i) {
        if (prof.opSteps[i] == 0)
            continue;
        Value op = Value::object();
        op.set("steps", Value::integer(prof.opSteps[i]));
        op.set("misses", Value::integer(prof.opMisses[i]));
        ops.set(prof.opNames.at(i), std::move(op));
    }
    out.set("ops", std::move(ops));
    return out;
}

} // namespace

bool
matchesAny(const std::string &filter, const std::string &name)
{
    fatal_if(filter.find_first_of(".^$*+?()[]{}\\") != std::string::npos,
             "filter '%s' holds a regex metacharacter: a filter is "
             "'|'-separated substrings, e.g. "
             "'cheri_opt/BlkStencil|cheri_opt/StrStencil'",
             filter.c_str());
    for (size_t start = 0;;) {
        const size_t end = filter.find('|', start);
        if (name.find(filter.substr(start, end - start)) != std::string::npos)
            return true;
        if (end == std::string::npos)
            return false;
        start = end + 1;
    }
}

bool
matchesFilter(const std::string &filter, const std::string &config_label,
              const std::string &bench_name)
{
    return matchesAny(filter, config_label + "/" + bench_name);
}

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opts;

    auto parse_size = [&](const std::string &text) {
        if (text == "small") {
            opts.size = kernels::Size::Small;
        } else if (text == "full") {
            opts.size = kernels::Size::Full;
        } else {
            fatal("unknown --size '%s' (expected small or full)",
                  text.c_str());
        }
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto take_value = [&](const char *flag) -> std::string {
            fatal_if(i + 1 >= argc, "%s requires a value", flag);
            return argv[++i];
        };
        if (arg == "--json") {
            opts.jsonPath = take_value("--json");
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.jsonPath = arg.substr(7);
        } else if (arg == "--threads") {
            opts.threads = static_cast<unsigned>(
                std::strtoul(take_value("--threads").c_str(), nullptr, 10));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = static_cast<unsigned>(
                std::strtoul(arg.substr(10).c_str(), nullptr, 10));
        } else if (arg == "--size") {
            parse_size(take_value("--size"));
        } else if (arg.rfind("--size=", 0) == 0) {
            parse_size(arg.substr(7));
        } else if (arg == "--filter") {
            opts.filter = take_value("--filter");
        } else if (arg.rfind("--filter=", 0) == 0) {
            opts.filter = arg.substr(9);
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--sms") {
            opts.sms = static_cast<unsigned>(
                std::strtoul(take_value("--sms").c_str(), nullptr, 10));
        } else if (arg.rfind("--sms=", 0) == 0) {
            opts.sms = static_cast<unsigned>(
                std::strtoul(arg.substr(6).c_str(), nullptr, 10));
        } else if (arg == "--seed") {
            opts.seed =
                std::strtoull(take_value("--seed").c_str(), nullptr, 10);
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = std::strtoull(arg.substr(7).c_str(), nullptr, 10);
        } else if (arg == "--trace") {
            opts.tracePath = take_value("--trace");
        } else if (arg.rfind("--trace=", 0) == 0) {
            opts.tracePath = arg.substr(8);
        } else if (arg == "--profile") {
            opts.profile = true;
        } else {
            fatal("unknown argument '%s'\nusage: %s [--size small|full] "
                  "[--threads <n>] [--json <path>] [--filter <a|b|...>] "
                  "[--list] [--sms <n>] [--seed <n>] [--trace <path>] "
                  "[--profile]",
                  arg.c_str(), argv[0]);
        }
    }
    fatal_if(opts.sms == 0, "--sms requires at least one SM");
    if ((!opts.tracePath.empty() || opts.profile) && opts.threads != 1) {
        // The trace session is single-threaded by design: points must
        // run in suite order on one worker for a deterministic stream.
        support::log(support::LogLevel::Info,
                     "tracing/profiling forces --threads 1");
        opts.threads = 1;
    }
    return opts;
}

std::vector<SuiteResult>
runSuite(const simt::SmConfig &sm_cfg, kc::CompileOptions::Mode mode,
         kernels::Size size, unsigned cap_reg_limit)
{
    ConfigPoint point{"", sm_cfg, mode, cap_reg_limit};
    const size_t count = suiteSize();
    std::vector<SuiteResult> results(count);
    for (size_t i = 0; i < count; ++i)
        results[i] = runPoint(i, point, size);
    return results;
}

std::vector<SuiteResult>
runSuiteParallel(const simt::SmConfig &sm_cfg,
                 kc::CompileOptions::Mode mode, kernels::Size size,
                 unsigned threads, unsigned cap_reg_limit)
{
    ConfigPoint point{"", sm_cfg, mode, cap_reg_limit};
    const size_t count = suiteSize();
    std::vector<SuiteResult> results(count);
    runTasks(count, threads,
             [&](size_t i) { results[i] = runPoint(i, point, size); });
    return results;
}

std::vector<std::vector<SuiteResult>>
runMatrix(const std::vector<ConfigPoint> &points, kernels::Size size,
          unsigned threads)
{
    const size_t count = suiteSize();
    std::vector<std::vector<SuiteResult>> rows(points.size());
    for (auto &row : rows)
        row.resize(count);

    runTasks(points.size() * count, threads, [&](size_t task) {
        const size_t p = task / count;
        const size_t b = task % count;
        rows[p][b] = runPoint(b, points[p], size);
    });
    return rows;
}

bool
ranInEveryRow(const std::vector<std::vector<SuiteResult>> &rows, size_t b)
{
    for (const auto &row : rows) {
        if (b >= row.size() || row[b].skipped)
            return false;
    }
    return true;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    size_t used = 0;
    for (double v : values) {
        if (!(v > 0.0) || !std::isfinite(v)) {
            // Campaigns sweep configurations where whole suites are
            // skipped; per-entry chatter is debug-level, like the
            // deadlock/timeout warnings (CHERI_SIMT_VERBOSE).
            if (support::verbose())
                warn("geomean: skipping non-positive entry %g", v);
            continue;
        }
        log_sum += std::log(v);
        ++used;
    }
    if (used == 0) {
        if (support::verbose() && !values.empty())
            warn("geomean: no positive entries among %zu values",
                 values.size());
        // No usable entry: the mean is undefined, and NaN (unlike the
        // 0.0 this used to return) cannot be mistaken for a measured
        // ratio by downstream tooling; the JSON dump writes it as null.
        return std::numeric_limits<double>::quiet_NaN();
    }
    return std::exp(log_sum / static_cast<double>(used));
}

void
printHeader(const std::string &id, const std::string &caption)
{
    std::printf("\n=== %s: %s ===\n", id.c_str(), caption.c_str());
}

Harness::Harness(int argc, char **argv, std::string binary)
    : opts_(parseArgs(argc, argv)), binary_(std::move(binary))
{
    kernels::setWorkloadSeed(opts_.seed);
    if (!opts_.tracePath.empty() || opts_.profile) {
        support::trace::SessionConfig cfg;
        cfg.profile = opts_.profile;
        trace_ = std::make_unique<support::trace::Session>(cfg);
    }
}

std::vector<SuiteResult>
Harness::run(const std::string &label, const simt::SmConfig &cfg,
             kc::CompileOptions::Mode mode, unsigned cap_reg_limit)
{
    ConfigPoint point{label, cfg, mode, cap_reg_limit};
    return runMatrix({point}).at(0);
}

std::vector<std::vector<SuiteResult>>
Harness::runMatrix(const std::vector<ConfigPoint> &points_in)
{
    // --sms applies uniformly: every point of every matrix in the binary
    // runs with the requested number of simulated SMs.
    std::vector<ConfigPoint> points = points_in;
    for (ConfigPoint &point : points)
        point.cfg.numSms = opts_.sms;

    if (opts_.list) {
        // Enumerate the (filter-matching) points instead of running.
        const auto names = suiteNames();
        std::vector<std::vector<SuiteResult>> rows(points.size());
        for (size_t p = 0; p < points.size(); ++p) {
            rows[p].resize(names.size());
            for (size_t b = 0; b < names.size(); ++b) {
                rows[p][b].name = names[b];
                rows[p][b].skipped = true;
                if (matchesFilter(opts_.filter, points[p].label,
                                  names[b]))
                    std::printf("%s/%s\n", points[p].label.c_str(),
                                names[b].c_str());
            }
        }
        return rows;
    }
    auto rows = runMatrixFiltered(points, opts_.size, opts_.threads,
                                  opts_.filter, trace_.get());
    for (size_t p = 0; p < points.size(); ++p)
        record(points[p].label, rows[p]);
    return rows;
}

void
Harness::record(const std::string &label,
                const std::vector<SuiteResult> &results)
{
    using support::json::Value;
    for (const SuiteResult &r : results) {
        if (r.skipped)
            continue;
        Value entry = Value::object();
        entry.set("config", Value::str(label));
        entry.set("bench", Value::str(r.name));
        entry.set("ok", Value::boolean(r.ok));
        entry.set("completed", Value::boolean(r.run.completed));
        entry.set("trapped", Value::boolean(r.run.trapped));
        entry.set("trap_kind",
                  Value::str(simt::trapKindName(r.run.trapKind)));
        entry.set("cycles", Value::integer(r.run.cycles));
        entry.set("watchdog", Value::integer(r.run.watchdogFires));
        entry.set("fault_injections",
                  Value::integer(r.run.faultInjections));
        Value stats = Value::object();
        for (const auto &[name, value] : r.run.stats.all())
            stats.set(name, Value::integer(value));
        entry.set("stats", std::move(stats));
        if (trace_ != nullptr && trace_->profiling()) {
            const support::trace::KernelProfile *prof =
                trace_->profileFor(label + "/" + r.name);
            if (prof != nullptr)
                entry.set("profile", profileJson(*prof, r.run.stats));
        }
        results_.push(std::move(entry));
    }
}

void
Harness::recordEntry(support::json::Value entry)
{
    results_.push(std::move(entry));
}

void
Harness::metric(const std::string &name, double value)
{
    metrics_.set(name, support::json::Value::number(value));
}

void
Harness::finish() const
{
    if (trace_ != nullptr && !opts_.tracePath.empty()) {
        fatal_if(!trace_->writeChromeTrace(opts_.tracePath, binary_),
                 "cannot write trace file %s", opts_.tracePath.c_str());
        std::printf("[trace written to %s: %zu events, %llu dropped]\n",
                    opts_.tracePath.c_str(), trace_->eventCount(),
                    static_cast<unsigned long long>(
                        trace_->droppedEvents()));
    }
    if (opts_.jsonPath.empty())
        return;

    using support::json::Value;
    Value doc = Value::object();
    doc.set("schema", Value::str("cheri-simt-bench-v1"));
    doc.set("binary", Value::str(binary_));
    doc.set("size", Value::str(opts_.size == kernels::Size::Small
                                   ? "small"
                                   : "full"));
    doc.set("sms", Value::integer(opts_.sms));
    doc.set("seed", Value::integer(opts_.seed));
    doc.set("results", results_);
    doc.set("metrics", metrics_);

    const nocl::KernelCache &cache = nocl::KernelCache::instance();
    Value kernel_cache = Value::object();
    kernel_cache.set("hits", Value::integer(cache.hits()));
    kernel_cache.set("misses", Value::integer(cache.misses()));
    kernel_cache.set("size", Value::integer(cache.size()));
    doc.set("kernel_cache", std::move(kernel_cache));

    std::ofstream out(opts_.jsonPath);
    fatal_if(!out.is_open(), "cannot open JSON output file %s",
             opts_.jsonPath.c_str());
    out << doc.dump(2) << "\n";
    fatal_if(!out.good(), "failed writing JSON output file %s",
             opts_.jsonPath.c_str());
    std::printf("[json results written to %s]\n", opts_.jsonPath.c_str());
}

} // namespace benchcommon
