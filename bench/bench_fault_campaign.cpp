/**
 * @file
 * Differential fault-injection campaign driver: runs the Table 1 suite
 * under injected tag / capability-metadata / data faults with CHERI on
 * and off, classifies every case as detected / masked / corrupt, and
 * reports the headline robustness contrast -- zero silent corruptions
 * for protection-relevant faults with CHERI on, versus the baseline's
 * silently corrupted pointer faults.
 *
 * On top of the classic 28-site campaign this driver scales to
 * thousands of derived fault sites via fork-from-state delta execution
 * (one prepared device per benchmark, every site a short delta off a
 * page-undo snapshot -- DESIGN.md section 13), journals every site to an
 * append-only JSONL file, and can resume an interrupted campaign with
 * --resume. --selftest-kill proves the crash contract end to end: a
 * worker process is SIGKILLed mid-campaign and the resumed merge must
 * be bit-identical to an uninterrupted run.
 *
 * Extra flags (after the shared harness flags):
 *
 *   --scaled-sites <n>   total scaled fault sites (default 10000;
 *                        0 disables the scaled campaign)
 *   --journal <path>     append-only JSONL site journal
 *   --resume             skip sites already recorded in the journal
 *   --fsync-batch <n>    journal lines between fsyncs (default 32)
 *   --replay-sample <n>  full-replay sites for the speedup baseline
 *   --campaign-worker    run only the scaled campaign and exit
 *                        (child mode of the kill/resume self-test)
 *   --selftest-kill      run the SIGKILL/resume self-test
 *
 * Exit status is nonzero if a protection-relevant fault corrupted
 * silently with CHERI on (classic or scaled campaign), if the delta
 * executor's classifications diverged from full replay, or if the
 * checkpoint replay / kill-resume self-checks failed.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_common.hpp"
#include "bench/faultcampaign.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace
{

using benchcommon::CampaignOptions;
using benchcommon::CampaignResult;
using benchcommon::FaultCase;
using benchcommon::ScaledCampaignOptions;
using benchcommon::ScaledResult;
using support::json::Value;

/** Driver-specific flags (stripped before the shared harness flags). */
struct CampaignFlags
{
    uint64_t scaledSites = 10000;
    std::string journalPath;
    bool resume = false;
    unsigned fsyncBatch = 32;
    unsigned replaySample = 4;
    bool worker = false;
    bool selftestKill = false;
};

CampaignFlags
parseCampaignFlags(int &argc, char **argv)
{
    CampaignFlags flags;
    std::vector<char *> keep;
    keep.push_back(argv[0]);
    const auto value = [&](int &i, const char *name) -> std::string {
        const std::string arg = argv[i];
        const std::string prefix = std::string(name) + "=";
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
        fatal_if(i + 1 >= argc, "%s needs a value", name);
        return argv[++i];
    };
    const auto matches = [&](const char *arg, const char *name) {
        return std::strcmp(arg, name) == 0 ||
               std::string(arg).rfind(std::string(name) + "=", 0) == 0;
    };
    for (int i = 1; i < argc; ++i) {
        if (matches(argv[i], "--scaled-sites")) {
            flags.scaledSites = std::strtoull(
                value(i, "--scaled-sites").c_str(), nullptr, 10);
        } else if (matches(argv[i], "--journal")) {
            flags.journalPath = value(i, "--journal");
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            flags.resume = true;
        } else if (matches(argv[i], "--fsync-batch")) {
            flags.fsyncBatch = static_cast<unsigned>(
                std::strtoul(value(i, "--fsync-batch").c_str(), nullptr,
                             10));
        } else if (matches(argv[i], "--replay-sample")) {
            flags.replaySample = static_cast<unsigned>(
                std::strtoul(value(i, "--replay-sample").c_str(), nullptr,
                             10));
        } else if (std::strcmp(argv[i], "--campaign-worker") == 0) {
            flags.worker = true;
        } else if (std::strcmp(argv[i], "--selftest-kill") == 0) {
            flags.selftestKill = true;
        } else {
            keep.push_back(argv[i]);
        }
    }
    argc = static_cast<int>(keep.size());
    for (int i = 0; i < argc; ++i)
        argv[i] = keep[i];
    argv[argc] = nullptr;
    return flags;
}

ScaledCampaignOptions
scaledOptions(const benchcommon::BenchOptions &opts,
              const CampaignFlags &flags)
{
    ScaledCampaignOptions s;
    s.size = opts.size;
    s.seed = opts.seed == 0 ? 1 : opts.seed;
    s.cheri = true;
    s.sms = opts.sms;
    s.threads = opts.threads;
    s.filter = opts.filter;
    s.sites = flags.scaledSites;
    s.journalPath = flags.journalPath;
    s.resume = flags.resume;
    s.fsyncBatch = flags.fsyncBatch;
    s.replaySample = flags.replaySample;
    return s;
}

void
printCampaign(const char *label, const CampaignResult &res)
{
    std::printf("\n-- %s --\n", label);
    std::printf("%-12s %-8s %-9s %-26s %s\n", "bench", "class", "outcome",
                "trap", "addr");
    for (const FaultCase &fc : res.cases) {
        std::printf("%-12s %-8s %-9s %-26s 0x%08x\n", fc.bench.c_str(),
                    fc.cls.c_str(),
                    benchcommon::faultOutcomeName(fc.outcome),
                    simt::trapKindName(fc.trapKind), fc.trapAddr);
        if (fc.outcome == benchcommon::FaultOutcome::Detected &&
            fc.trapKind != simt::TrapKind::None) {
            // Full forensic record of the trap that caught the fault.
            std::printf("    %s\n",
                        simt::formatTrapRecord(
                            fc.trapInfo, fc.kernelName, fc.purecap,
                            static_cast<int>(fc.trapSm))
                            .c_str());
        }
    }
    std::printf("detected %u, masked %u, corrupt %u "
                "(protection-relevant corrupt: %u)\n",
                res.detected, res.masked, res.corrupt, res.protCorrupt);
    std::printf("classification hash: %016llx\n",
                static_cast<unsigned long long>(res.classificationHash()));
}

void
printScaled(const ScaledResult &res)
{
    std::printf("\n-- scaled campaign (fork-from-state, CHERI on) --\n");
    std::printf("sites %zu (resumed %llu), detected %u, masked %u, "
                "corrupt %u (protection-relevant corrupt: %u)\n",
                res.sites.size(),
                static_cast<unsigned long long>(res.resumedSites),
                res.detected, res.masked, res.corrupt, res.protCorrupt);
    std::printf("checkpoint image %llu bytes, save %.2f ms, restore "
                "%.2f ms, replay %s\n",
                static_cast<unsigned long long>(res.ckptBytes),
                static_cast<double>(res.ckptSaveNs) / 1e6,
                static_cast<double>(res.ckptRestoreNs) / 1e6,
                res.ckptReplayOk ? "bit-identical" : "MISMATCH");
    std::printf("fork %.1f sites/s vs full replay %.1f sites/s "
                "(speedup %.1fx, sampled parity %s)\n",
                res.forkSitesPerSec, res.replaySitesPerSec,
                res.forkSpeedup,
                res.replayParityOk ? "ok" : "MISMATCH");
    std::printf("scaled classification hash: %016llx\n",
                static_cast<unsigned long long>(res.classificationHash()));
}

void
recordCampaign(benchcommon::Harness &harness, const char *label,
               const CampaignResult &res)
{
    for (const FaultCase &fc : res.cases) {
        Value entry = Value::object();
        entry.set("config", Value::str(label));
        entry.set("bench", Value::str(fc.bench));
        entry.set("ok", Value::boolean(fc.goldenOk));
        entry.set("completed",
                  Value::boolean(fc.outcome !=
                                 benchcommon::FaultOutcome::Detected));
        entry.set("trapped",
                  Value::boolean(fc.trapKind != simt::TrapKind::None));
        entry.set("trap_kind",
                  Value::str(simt::trapKindName(fc.trapKind)));
        entry.set("cycles", Value::integer(fc.cycles));
        entry.set("watchdog", Value::integer(fc.watchdog));
        entry.set("fault_injections", Value::integer(fc.faultInjections));
        entry.set("fault_class", Value::str(fc.cls));
        entry.set("fault_site",
                  Value::str(simt::faultSiteName(fc.plan.site)));
        entry.set("fault_outcome",
                  Value::str(benchcommon::faultOutcomeName(fc.outcome)));
        entry.set("fault_bit", Value::integer(fc.plan.bit));
        entry.set("fault_addr", Value::integer(fc.plan.addr));
        entry.set("stats", Value::object());
        harness.recordEntry(std::move(entry));
    }
}

/** Count complete lines currently in @p path (journal growth probe). */
uint64_t
countFileLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return 0;
    uint64_t lines = 0;
    char ch;
    while (in.get(ch))
        if (ch == '\n')
            ++lines;
    return lines;
}

/** Spawn this binary as a --campaign-worker child. */
pid_t
spawnWorker(const ScaledCampaignOptions &opts, bool resume)
{
    std::vector<std::string> args = {
        "/proc/self/exe",
        "--campaign-worker",
        "--scaled-sites",
        std::to_string(opts.sites),
        "--seed",
        std::to_string(opts.seed),
        "--sms",
        std::to_string(opts.sms),
        "--threads",
        "1",
        "--size",
        opts.size == kernels::Size::Small ? "small" : "full",
        "--journal",
        opts.journalPath,
        "--fsync-batch",
        "1",
        "--replay-sample",
        "0",
    };
    if (!opts.filter.empty()) {
        args.push_back("--filter");
        args.push_back(opts.filter);
    }
    if (resume)
        args.push_back("--resume");

    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: replace the image (this process has worker threads' state
    // only in the parent; exec gives the campaign a clean slate).
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    std::perror("execv /proc/self/exe");
    _exit(127);
}

/**
 * The kill/resume self-test: run a small scaled campaign uninterrupted
 * in-process, then run the same campaign in a journaled worker process,
 * SIGKILL the worker mid-campaign, resume it from the journal, and
 * require the merged journal to classify bit-identically to the
 * uninterrupted run with a nonzero number of resumed sites.
 */
bool
selftestKill(const benchcommon::BenchOptions &bench_opts,
             const CampaignFlags &flags)
{
    ScaledCampaignOptions opts = scaledOptions(bench_opts, flags);
    opts.sites = 96;
    opts.filter = "VecAdd|Reduce";
    opts.threads = 1;
    opts.replaySample = 0;
    opts.journalPath = flags.journalPath.empty()
                           ? "fault_campaign_selftest_journal.jsonl"
                           : flags.journalPath + ".selftest";
    opts.resume = false;

    std::printf("\n-- kill/resume self-test --\n");
    ScaledCampaignOptions ref_opts = opts;
    ref_opts.journalPath.clear();
    const ScaledResult ref = benchcommon::runScaledCampaign(ref_opts);
    const uint64_t ref_hash = ref.classificationHash();
    std::printf("uninterrupted reference: %zu sites, hash %016llx\n",
                ref.sites.size(),
                static_cast<unsigned long long>(ref_hash));

    const uint64_t kill_after_lines = 6; // header + a few sites
    uint64_t sites_before_resume = 0;
    bool killed = false;
    for (int attempt = 0; attempt < 5 && !killed; ++attempt) {
        std::remove(opts.journalPath.c_str());
        const pid_t pid = spawnWorker(opts, /*resume=*/false);
        fatal_if(pid < 0, "fork failed for the campaign worker");
        for (;;) {
            int status = 0;
            const pid_t done = waitpid(pid, &status, WNOHANG);
            if (done == pid) {
                // Worker finished before we could kill it; retry.
                std::printf("attempt %d: worker finished before the "
                            "kill, retrying\n",
                            attempt + 1);
                break;
            }
            if (countFileLines(opts.journalPath) >= kill_after_lines) {
                kill(pid, SIGKILL);
                int killstat = 0;
                waitpid(pid, &killstat, 0);
                killed = WIFSIGNALED(killstat) &&
                         WTERMSIG(killstat) == SIGKILL;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    if (!killed) {
        std::printf("FAIL: could not SIGKILL a worker mid-campaign\n");
        return false;
    }
    std::string err;
    uint64_t partial_hash = 0;
    if (!benchcommon::scaledJournalHash(opts.journalPath, &partial_hash,
                                        &sites_before_resume, &err)) {
        std::printf("FAIL: killed worker left an unreadable journal: %s\n",
                    err.c_str());
        return false;
    }
    std::printf("worker SIGKILLed after %llu journaled sites\n",
                static_cast<unsigned long long>(sites_before_resume));
    if (sites_before_resume >= opts.sites) {
        std::printf("FAIL: worker journaled every site before the kill; "
                    "nothing left to resume\n");
        return false;
    }

    const pid_t pid = spawnWorker(opts, /*resume=*/true);
    fatal_if(pid < 0, "fork failed for the resume worker");
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::printf("FAIL: resume worker exited with status %d\n",
                    status);
        return false;
    }

    uint64_t merged_hash = 0;
    uint64_t merged_sites = 0;
    if (!benchcommon::scaledJournalHash(opts.journalPath, &merged_hash,
                                        &merged_sites, &err)) {
        std::printf("FAIL: resumed journal unreadable: %s\n", err.c_str());
        return false;
    }
    std::printf("resumed %llu sites; merged journal: %llu sites, hash "
                "%016llx\n",
                static_cast<unsigned long long>(opts.sites -
                                                sites_before_resume),
                static_cast<unsigned long long>(merged_sites),
                static_cast<unsigned long long>(merged_hash));
    std::remove(opts.journalPath.c_str());
    if (merged_sites != opts.sites || merged_hash != ref_hash) {
        std::printf("FAIL: merged resumed campaign is not bit-identical "
                    "to the uninterrupted run\n");
        return false;
    }
    std::printf("OK: kill/resume merge is bit-identical to the "
                "uninterrupted campaign\n");
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const CampaignFlags flags = parseCampaignFlags(argc, argv);
    benchcommon::Harness harness(argc, argv, "bench_fault_campaign");
    const benchcommon::BenchOptions &opts = harness.options();

    if (flags.worker) {
        // Child mode of the kill/resume self-test: scaled campaign
        // only, journal required to be useful, no reporting.
        const ScaledResult scaled =
            benchcommon::runScaledCampaign(scaledOptions(opts, flags));
        std::printf("campaign worker: %zu sites (%llu resumed), "
                    "prot-corrupt %u\n",
                    scaled.sites.size(),
                    static_cast<unsigned long long>(scaled.resumedSites),
                    scaled.protCorrupt);
        return scaled.protCorrupt == 0 ? 0 : 1;
    }

    benchcommon::printHeader(
        "fault-campaign",
        "differential fault injection: CHERI on vs off");

    CampaignOptions base;
    base.size = opts.size;
    base.seed = opts.seed == 0 ? 1 : opts.seed;
    base.sms = opts.sms;
    base.threads = opts.threads;
    base.filter = opts.filter;
    base.trace = harness.traceSession();

    CampaignOptions cheri_opts = base;
    cheri_opts.cheri = true;
    const CampaignResult cheri = benchcommon::runFaultCampaign(cheri_opts);
    printCampaign("cheri-optimised (purecap)", cheri);
    recordCampaign(harness, "cheri", cheri);

    CampaignOptions baseline_opts = base;
    baseline_opts.cheri = false;
    const CampaignResult baseline =
        benchcommon::runFaultCampaign(baseline_opts);
    printCampaign("baseline (no protection)", baseline);
    recordCampaign(harness, "baseline", baseline);

    // Delta-executor parity: the classic campaign re-run through
    // fork-from-state execution must classify every original site
    // identically (equal classification hashes).
    CampaignOptions delta_opts = cheri_opts;
    delta_opts.trace = nullptr;
    const CampaignResult cheri_delta =
        benchcommon::runOriginalCampaignDelta(delta_opts);
    const bool delta_parity =
        cheri_delta.classificationHash() == cheri.classificationHash() &&
        cheri_delta.cases.size() == cheri.cases.size();
    std::printf("\ndelta re-run of the original sites: hash %016llx (%s)\n",
                static_cast<unsigned long long>(
                    cheri_delta.classificationHash()),
                delta_parity ? "matches full replay" : "MISMATCH");

    // Scaled fork-from-state campaign (CHERI on).
    ScaledResult scaled;
    if (flags.scaledSites > 0) {
        scaled = benchcommon::runScaledCampaign(scaledOptions(opts, flags));
        printScaled(scaled);
    }

    bool selftest_ok = true;
    if (flags.selftestKill)
        selftest_ok = selftestKill(opts, flags);

    harness.metric("cheri_detected", cheri.detected);
    harness.metric("cheri_masked", cheri.masked);
    harness.metric("cheri_silent_corruptions", cheri.corrupt);
    harness.metric("cheri_protection_silent_corruptions",
                   cheri.protCorrupt);
    harness.metric("baseline_detected", baseline.detected);
    harness.metric("baseline_masked", baseline.masked);
    harness.metric("baseline_silent_corruptions", baseline.corrupt);
    harness.metric("baseline_protection_silent_corruptions",
                   baseline.protCorrupt);
    harness.metric("campaign_delta_parity_ok", delta_parity ? 1 : 0);
    harness.metric("campaign_sites", static_cast<double>(scaled.sites.size()));
    harness.metric("resumed", static_cast<double>(scaled.resumedSites));
    harness.metric("scaled_detected", scaled.detected);
    harness.metric("scaled_masked", scaled.masked);
    harness.metric("scaled_silent_corruptions", scaled.corrupt);
    harness.metric("scaled_protection_silent_corruptions",
                   scaled.protCorrupt);
    harness.metric("ckpt_bytes", static_cast<double>(scaled.ckptBytes));
    harness.metric("ckpt_save_ns", static_cast<double>(scaled.ckptSaveNs));
    harness.metric("ckpt_restore_ns",
                   static_cast<double>(scaled.ckptRestoreNs));
    harness.metric("ckpt_replay_ok", scaled.ckptReplayOk ? 1 : 0);
    harness.metric("campaign_sites_per_sec_fork", scaled.forkSitesPerSec);
    harness.metric("campaign_sites_per_sec_replay",
                   scaled.replaySitesPerSec);
    harness.metric("campaign_fork_speedup", scaled.forkSpeedup);
    harness.metric("campaign_replay_parity_ok",
                   scaled.replayParityOk ? 1 : 0);
    if (flags.selftestKill)
        harness.metric("selftest_kill_ok", selftest_ok ? 1 : 0);
    harness.finish();

    bool fail = false;
    if (cheri.protCorrupt != 0) {
        std::printf("FAIL: %u protection-relevant fault(s) corrupted "
                    "silently with CHERI on\n",
                    cheri.protCorrupt);
        fail = true;
    }
    if (scaled.protCorrupt != 0) {
        std::printf("FAIL: %u scaled protection-relevant fault(s) "
                    "corrupted silently with CHERI on\n",
                    scaled.protCorrupt);
        fail = true;
    }
    if (!delta_parity) {
        std::printf("FAIL: delta execution classified the original sites "
                    "differently from full replay\n");
        fail = true;
    }
    if (!scaled.replayParityOk) {
        std::printf("FAIL: sampled full replays disagreed with the "
                    "fork-from-state classifications\n");
        fail = true;
    }
    if (!scaled.ckptReplayOk) {
        std::printf("FAIL: checkpoint replay diverged from the live "
                    "golden run\n");
        fail = true;
    }
    if (!selftest_ok) {
        std::printf("FAIL: kill/resume self-test failed\n");
        fail = true;
    }
    if (fail)
        return 1;
    std::printf("\nOK: zero silent corruptions for tag/capability faults "
                "with CHERI on (baseline: %u)\n",
                baseline.protCorrupt);
    return 0;
}
