/**
 * @file
 * The repository benchmark's main program (run it through run.py):
 *
 *   perfbench --workload suite-full|shard-4sm|campaign-small
 *             --seed <n> --seconds <s> --trace 0|1 [--trace-out <path>]
 *
 * Prints each metric as "name = value unit", then, as the last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}: with
 * --trace 0 the end-to-end metrics, with --trace 1 the per-layer split
 * (and the spans are written to --trace-out). Exit status 0 only when
 * every output checked out.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload suite-full|shard-4sm|"
                 "campaign-small --seed <n> --seconds <s> --trace 0|1 "
                 "[--trace-out <path>]\n",
                 why);
    std::exit(2);
}

/** Shortest text that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    std::string trace_out;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && opts.seconds > 0.0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            opts.trace = value == "1";
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!perfbench::isWorkload(opts.workload))
        usage("--workload must be suite-full, shard-4sm or campaign-small");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");

    perfbench::SpanRecorder spans(opts.trace);
    const perfbench::Outcome out = perfbench::runWorkload(opts, spans);

    for (const std::string &f : out.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    if (opts.trace && !trace_out.empty() &&
        !spans.write(trace_out, "perfbench/" + opts.workload, opts.seed)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }

    const auto &metrics = opts.trace ? out.perLayer : out.endToEnd;
    std::string passes;
    for (double s : out.passSeconds)
        passes += (passes.empty() ? "" : ",") + number(s);

    std::printf("perfbench: workload=%s seed=%llu trace=%d "
                "attempted=%llu failed=%llu pass_s=[%s]\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), passes.c_str());
    for (const perfbench::Metric &m : metrics)
        std::printf("  %-32s = %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const perfbench::Metric &m = metrics[i];
        if (i)
            line += ", ";
        line += jsonString(m.name) + ": {\"value\": " + number(m.value) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
