/**
 * @file
 * CI validator for the harness's JSON files. Dispatches on the schema
 * tag:
 *
 *  - "cheri-simt-bench-v1": benchmark results -- the schema tag, a
 *    non-empty results array whose entries carry the required fields,
 *    integer cycle counts, integer stats counters (with the simhost
 *    subset invariants: packed-memory steps within scalarised steps
 *    within retired steps, fused steps within retired steps), and
 *    (when present) well-formed per-kernel "profile" objects including
 *    the packed_mem_share / fusion_hit_rate ratios in [0, 1] and per-op
 *    steps and fast-path misses, misses within steps and steps summing
 *    to instructions;
 *  - "cheri-simt-trace-v1": Chrome-trace-event exports -- a traceEvents
 *    array of M/X/i/C events with integer pid/tid/ts, durations on
 *    complete events, and metadata naming every process.
 *
 * Exits non-zero with a diagnostic on the first violation.
 *
 * Usage: json_check <results-or-trace.json>
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json.hpp"

namespace
{

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "json_check: %s\n", msg.c_str());
    return 1;
}

using support::json::Value;

/** Validate one result entry's optional per-kernel "profile" object. */
int
checkProfile(const Value &r, const std::string &where)
{
    const Value &prof = r.get("profile");
    if (prof.isNull())
        return 0;
    if (!prof.isObject())
        return fail(where + ".profile is not an object");
    for (const char *field : {"launches", "instructions"})
        if (!prof.get(field).isInt())
            return fail(where + ".profile." + field +
                        " is not an integer");
    if (prof.get("launches").asUint() == 0)
        return fail(where + ".profile.launches is zero");
    for (const char *field : {"fastpath_share", "stack_cache_hit_rate",
                              "dram_bytes_per_transaction"})
        if (!prof.get(field).isNumber())
            return fail(where + ".profile." + field + " is not a number");
    const double share = prof.get("fastpath_share").asDouble();
    if (share < 0.0 || share > 1.0)
        return fail(where + ".profile.fastpath_share outside [0, 1]");
    for (const char *field : {"packed_mem_share", "fusion_hit_rate"}) {
        if (!prof.get(field).isNumber())
            return fail(where + ".profile." + field + " is not a number");
        const double v = prof.get(field).asDouble();
        if (v < 0.0 || v > 1.0)
            return fail(where + ".profile." + std::string(field) +
                        " outside [0, 1]");
    }
    const Value &tops = prof.get("top_pcs");
    if (!tops.isArray())
        return fail(where + ".profile.top_pcs is not an array");
    uint64_t prev = UINT64_MAX;
    uint64_t top_sum = 0;
    for (size_t i = 0; i < tops.size(); ++i) {
        const Value &pc = tops.at(i);
        const std::string at =
            where + ".profile.top_pcs[" + std::to_string(i) + "]";
        if (!pc.get("pc").isString() ||
            pc.get("pc").asString().rfind("0x", 0) != 0)
            return fail(at + ".pc is not a hex string");
        if (!pc.get("count").isInt() || pc.get("count").asUint() == 0)
            return fail(at + ".count is not a positive integer");
        if (pc.get("count").asUint() > prev)
            return fail(at + ": top_pcs not sorted by count");
        prev = pc.get("count").asUint();
        top_sum += pc.get("count").asUint();
    }
    if (top_sum > prof.get("instructions").asUint())
        return fail(where +
                    ".profile: top_pcs counts exceed instructions");
    const Value &ops = prof.get("ops");
    if (!ops.isObject())
        return fail(where + ".profile.ops is not an object");
    uint64_t step_sum = 0;
    for (const auto &[name, op] : ops.members()) {
        const std::string at = where + ".profile.ops." + name;
        if (!op.get("steps").isInt() || op.get("steps").asUint() == 0)
            return fail(at + ".steps is not a positive integer");
        if (!op.get("misses").isInt() ||
            op.get("misses").asUint() > op.get("steps").asUint())
            return fail(at + ".misses is not an integer within steps");
        step_sum += op.get("steps").asUint();
    }
    if (step_sum != prof.get("instructions").asUint())
        return fail(where +
                    ".profile: ops steps do not sum to instructions");
    return 0;
}

/** Validate a "cheri-simt-trace-v1" Chrome-trace-event document. */
int
checkTrace(const Value &doc)
{
    if (!doc.get("binary").isString() ||
        doc.get("binary").asString().empty())
        return fail("missing binary name");
    if (!doc.get("dropped_events").isInt())
        return fail("dropped_events is not an integer");
    const Value &events = doc.get("traceEvents");
    if (!events.isArray())
        return fail("traceEvents is not an array");
    if (events.size() == 0)
        return fail("traceEvents is empty");
    size_t meta = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Value &e = events.at(i);
        const std::string where =
            "traceEvents[" + std::to_string(i) + "]";
        if (!e.isObject())
            return fail(where + " is not an object");
        if (!e.get("name").isString() ||
            e.get("name").asString().empty())
            return fail(where + ".name missing");
        const std::string ph = e.get("ph").asString();
        if (ph != "M" && ph != "X" && ph != "i" && ph != "C")
            return fail(where + ".ph must be M, X, i or C, got '" + ph +
                        "'");
        for (const char *field : {"pid", "tid"})
            if (!e.get(field).isInt())
                return fail(where + "." + field + " is not an integer");
        if (ph == "M") {
            ++meta;
            continue;
        }
        if (!e.get("ts").isInt())
            return fail(where + ".ts is not an integer");
        if (ph == "X" && !e.get("dur").isInt())
            return fail(where + ": complete event without dur");
        if (ph == "i" && e.get("s").asString() != "t")
            return fail(where + ": instant event scope must be 't'");
    }
    if (meta == 0)
        return fail("no metadata (process/thread name) events");
    std::printf("json_check: trace ok (%zu events, %zu metadata)\n",
                events.size(), meta);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2)
        return fail("usage: json_check <results.json>");

    std::ifstream in(argv[1]);
    if (!in.is_open())
        return fail(std::string("cannot open ") + argv[1]);
    std::ostringstream text;
    text << in.rdbuf();

    Value doc;
    std::string err;
    if (!Value::parse(text.str(), doc, &err))
        return fail("parse error: " + err);
    if (!doc.isObject())
        return fail("top level is not an object");
    const std::string schema = doc.get("schema").asString();
    if (schema == "cheri-simt-trace-v1")
        return checkTrace(doc);
    if (schema != "cheri-simt-bench-v1")
        return fail("missing or unknown schema tag");
    if (!doc.get("binary").isString() ||
        doc.get("binary").asString().empty())
        return fail("missing binary name");
    const std::string size = doc.get("size").asString();
    if (size != "small" && size != "full")
        return fail("size must be 'small' or 'full', got '" + size + "'");
    if (!doc.get("sms").isInt() || doc.get("sms").asUint() == 0)
        return fail("sms is not a positive integer");
    if (!doc.get("seed").isInt())
        return fail("seed is not an integer");

    const Value &results = doc.get("results");
    if (!results.isArray())
        return fail("results is not an array");
    for (size_t i = 0; i < results.size(); ++i) {
        const Value &r = results.at(i);
        const std::string where = "results[" + std::to_string(i) + "]";
        if (!r.isObject())
            return fail(where + " is not an object");
        if (!r.get("config").isString())
            return fail(where + ".config missing");
        if (!r.get("bench").isString() || r.get("bench").asString().empty())
            return fail(where + ".bench missing");
        for (const char *flag : {"ok", "completed", "trapped"})
            if (!r.get(flag).isBool())
                return fail(where + "." + flag + " is not a bool");
        if (!r.get("cycles").isInt())
            return fail(where + ".cycles is not an integer");
        if (r.get("ok").asBool() && r.get("cycles").asUint() == 0)
            return fail(where + ": ok result with zero cycles");
        for (const char *field : {"watchdog", "fault_injections"})
            if (!r.get(field).isInt())
                return fail(where + "." + field + " is not an integer");
        // Fault-campaign entries additionally classify the outcome.
        if (!r.get("fault_outcome").isNull()) {
            const std::string outcome = r.get("fault_outcome").asString();
            if (outcome != "detected" && outcome != "masked" &&
                outcome != "corrupt")
                return fail(where + ".fault_outcome must be detected, "
                                    "masked or corrupt, got '" +
                            outcome + "'");
            if (!r.get("fault_class").isString() ||
                !r.get("fault_site").isString())
                return fail(where + ": fault_outcome without "
                                    "fault_class/fault_site");
        }
        const Value &stats = r.get("stats");
        if (!stats.isObject())
            return fail(where + ".stats is not an object");
        for (const auto &[name, value] : stats.members())
            if (!value.isInt())
                return fail(where + ".stats." + name +
                            " is not an integer");
        // The host fast-path counters come as a pair, and scalarised
        // instructions are a subset of all retired instructions.
        const bool has_instrs = stats.get("simhost_instrs").isInt();
        const bool has_fast =
            stats.get("simhost_fastpath_instrs").isInt();
        if (has_instrs != has_fast)
            return fail(where + ".stats: simhost_instrs and "
                                "simhost_fastpath_instrs must appear "
                                "together");
        if (has_instrs && stats.get("simhost_fastpath_instrs").asUint() >
                              stats.get("simhost_instrs").asUint())
            return fail(where + ".stats: simhost_fastpath_instrs exceeds "
                                "simhost_instrs");
        // Packed-memory steps are scalarised steps that also took a
        // vector memory handler, and fused steps are retired steps that
        // executed inside a fused block: both are subsets, and both
        // counters only ever appear on documents that carry the
        // instruction counters.
        if (stats.get("simhost_packed_mem_instrs").isInt()) {
            if (!has_fast)
                return fail(where + ".stats: simhost_packed_mem_instrs "
                                    "without simhost_fastpath_instrs");
            if (stats.get("simhost_packed_mem_instrs").asUint() >
                stats.get("simhost_fastpath_instrs").asUint())
                return fail(where + ".stats: simhost_packed_mem_instrs "
                                    "exceeds simhost_fastpath_instrs");
        }
        if (stats.get("simhost_fused_instrs").isInt()) {
            if (!has_instrs)
                return fail(where + ".stats: simhost_fused_instrs "
                                    "without simhost_instrs");
            if (stats.get("simhost_fused_instrs").asUint() >
                stats.get("simhost_instrs").asUint())
                return fail(where + ".stats: simhost_fused_instrs "
                                    "exceeds simhost_instrs");
        }
        if (const int rc = checkProfile(r, where))
            return rc;
    }

    const Value &metrics = doc.get("metrics");
    if (!metrics.isObject())
        return fail("metrics is not an object");
    for (const auto &[name, value] : metrics.members())
        if (!value.isNumber() && !value.isNull())
            return fail("metrics." + name + " is not a number");

    // Boolean-valued metrics are reported as 0/1 (the binary's exit
    // status is the hard assertion; here we only pin the encoding).
    for (const char *flag :
         {"campaign_delta_parity_ok", "ckpt_replay_ok",
          "campaign_replay_parity_ok", "selftest_kill_ok"}) {
        const Value &v = metrics.get(flag);
        if (v.isNull())
            continue;
        const double d = v.asDouble();
        if (d != 0.0 && d != 1.0)
            return fail(std::string("metrics.") + flag +
                        " must be 0 or 1");
    }

    // Scaled fault-campaign metrics (bench_fault_campaign) appear as a
    // unit keyed on campaign_sites: the resumed count never exceeds the
    // site total, the outcome classes partition it, and the checkpoint
    // probe numbers are self-consistent.
    if (!metrics.get("campaign_sites").isNull()) {
        for (const char *field :
             {"resumed", "scaled_detected", "scaled_masked",
              "scaled_silent_corruptions",
              "scaled_protection_silent_corruptions", "ckpt_bytes",
              "ckpt_save_ns", "ckpt_restore_ns", "ckpt_replay_ok",
              "campaign_sites_per_sec_fork",
              "campaign_sites_per_sec_replay", "campaign_fork_speedup"})
            if (!metrics.get(field).isNumber())
                return fail(std::string("metrics.") + field +
                            " missing from the campaign block");
        const double sites = metrics.get("campaign_sites").asDouble();
        if (sites < 0)
            return fail("metrics.campaign_sites is negative");
        if (metrics.get("resumed").asDouble() > sites)
            return fail("metrics.resumed exceeds campaign_sites");
        const double classified =
            metrics.get("scaled_detected").asDouble() +
            metrics.get("scaled_masked").asDouble() +
            metrics.get("scaled_silent_corruptions").asDouble();
        if (classified != sites)
            return fail("metrics: scaled outcome classes do not sum to "
                        "campaign_sites");
        if (metrics.get("scaled_protection_silent_corruptions")
                .asDouble() >
            metrics.get("scaled_silent_corruptions").asDouble())
            return fail("metrics.scaled_protection_silent_corruptions "
                        "exceeds scaled_silent_corruptions");
        if (metrics.get("ckpt_bytes").asDouble() > 0 &&
            metrics.get("ckpt_save_ns").asDouble() <= 0)
            return fail("metrics: checkpoint image saved in zero time");
    }

    // Compilation-cache counters: every entry in the cache was compiled
    // exactly once, so the cache can never hold more than miss-many
    // kernels.
    const Value &cache = doc.get("kernel_cache");
    if (!cache.isObject())
        return fail("kernel_cache is not an object");
    for (const char *field : {"hits", "misses", "size"})
        if (!cache.get(field).isInt())
            return fail(std::string("kernel_cache.") + field +
                        " is not an integer");
    if (cache.get("size").asUint() > cache.get("misses").asUint())
        return fail("kernel_cache.size exceeds kernel_cache.misses");

    std::printf("json_check: %s ok (%zu results, %zu metrics)\n", argv[1],
                results.size(), metrics.size());
    return 0;
}
