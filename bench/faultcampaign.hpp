/**
 * @file
 * Differential fault-injection campaign over the Table 1 benchmark
 * suite (the robustness evaluation of the reproduction).
 *
 * Each benchmark is first run fault-free to obtain a golden
 * architectural memory image; it is then re-run under one injected
 * fault per class and the outcome is classified:
 *
 *  - Detected: the run raised a structured trap (including the
 *    watchdog) -- the fault could not corrupt results silently;
 *  - Masked: the run completed, its verifier passed, and the data-only
 *    heap hash (excluding the injected word itself) is bit-identical
 *    to the golden image -- the fault had no architectural effect;
 *  - Corrupt: anything else -- silent corruption.
 *
 * Classes:
 *  - "tag": the tag bit of the first pointer argument is cleared
 *    (CHERI on) or a high pointer bit is flipped (CHERI off);
 *  - "capmeta": a bit of the first pointer argument's capability
 *    metadata word is flipped (CHERI on; the address lives in the data
 *    word, so a metadata flip can perturb only bounds/perms/otype and
 *    is detected-or-masked by construction) or a low pointer bit is
 *    flipped (CHERI off);
 *  - "data": a bit of the first input buffer is flipped -- plain data
 *    corruption, outside any protection model's reach.
 *
 * With CHERI on the campaign must report zero silent corruptions for
 * the "tag" and "capmeta" classes; with CHERI off the same pointer
 * faults corrupt silently. All faults are applied once to the shared
 * base DRAM at launch, so classification is bit-identical across
 * repeats, seeds and --sms counts.
 */

#ifndef CHERI_SIMT_BENCH_FAULTCAMPAIGN_HPP_
#define CHERI_SIMT_BENCH_FAULTCAMPAIGN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/suite.hpp"
#include "simt/config.hpp"
#include "simt/sm.hpp"
#include "simt/trap.hpp"

namespace support
{
namespace trace
{
class Session;
} // namespace trace
} // namespace support

namespace benchcommon
{

enum class FaultOutcome : uint8_t
{
    Detected,
    Masked,
    Corrupt,
};

const char *faultOutcomeName(FaultOutcome outcome);

/** One (benchmark, fault class) cell of the campaign. */
struct FaultCase
{
    std::string bench;
    std::string cls; ///< "tag" | "capmeta" | "data"
    simt::FaultPlan plan;

    FaultOutcome outcome = FaultOutcome::Corrupt;
    simt::TrapKind trapKind = simt::TrapKind::None;
    uint32_t trapAddr = 0;
    uint64_t faultInjections = 0;
    uint64_t cycles = 0;
    unsigned watchdog = 0;

    /** Forensic record of the detected trap (see formatTrapRecord),
     *  the SM that raised it, and the launched kernel's name. */
    simt::TrapInfo trapInfo;
    unsigned trapSm = 0;
    std::string kernelName;
    bool purecap = false;

    /** The fault-free reference run completed and verified. */
    bool goldenOk = false;
};

struct CampaignOptions
{
    kernels::Size size = kernels::Size::Small;

    /** Seeds the per-benchmark bit/word draws (support::Rng). */
    uint64_t seed = 1;

    /** true: cheriOptimised + pure-capability code; false: baseline. */
    bool cheri = true;

    unsigned sms = 1;
    unsigned threads = 0; ///< worker threads over benchmarks (0 = auto)

    /** '|'-separated substrings of benchmark names (matchesAny);
     *  empty = all fourteen. */
    std::string filter;

    /** Trace/profile session attached to every faulty re-run device
     *  (nullptr = none). Forces single-threaded campaign execution. */
    support::trace::Session *trace = nullptr;
};

struct CampaignResult
{
    std::vector<FaultCase> cases; ///< suite order, three cases per bench

    unsigned detected = 0;
    unsigned masked = 0;
    unsigned corrupt = 0;

    /** Silent corruptions among the protection-relevant classes ("tag"
     *  and "capmeta"). Must be zero with CHERI on. */
    unsigned protCorrupt = 0;

    /**
     * Order-dependent fingerprint over every case's (bench, class,
     * outcome, trap kind, trap address): equal hashes mean the two
     * campaigns classified identically.
     */
    uint64_t classificationHash() const;
};

CampaignResult runFaultCampaign(const CampaignOptions &opts);

/**
 * Re-run the classic campaign's fault plans through the fork-from-state
 * delta executor (Device::beginStepped / SteppedLaunch::restoreBase)
 * instead of one fresh device per faulty run. The classification hash
 * must equal runFaultCampaign's on the same options -- the parity
 * assertion that delta execution is architecturally exact.
 */
CampaignResult runOriginalCampaignDelta(const CampaignOptions &opts);

/** One site of the scaled (fork-from-checkpoint) campaign. */
struct ScaledSite
{
    uint64_t index = 0; ///< global site index (stable across resume)
    std::string bench;
    std::string cls; ///< "tag" | "capmeta" | "data"
    simt::FaultPlan plan;

    FaultOutcome outcome = FaultOutcome::Corrupt;
    simt::TrapKind trapKind = simt::TrapKind::None;
    uint32_t trapAddr = 0;
    uint64_t cycles = 0;
    bool goldenOk = false;

    /** Loaded from the resume journal instead of executed. */
    bool fromJournal = false;
};

/**
 * Options of the scaled campaign. Site plans are derived purely from
 * (seed, sites, filter, cheri): the same options always enumerate the
 * same global site list, which is what makes the journal resumable and
 * the kill/resume self-test bit-exact.
 */
struct ScaledCampaignOptions
{
    kernels::Size size = kernels::Size::Small;
    uint64_t seed = 1;
    bool cheri = true;
    unsigned sms = 1;
    unsigned threads = 0; ///< worker threads over benchmarks (0 = auto)
    std::string filter;

    /** Total fault sites, distributed over the selected benchmarks. */
    uint64_t sites = 10000;

    /** Append-only JSONL journal path; empty = no journal. */
    std::string journalPath;

    /** Resume from the journal: sites it records are not re-executed. */
    bool resume = false;

    /** Journal lines between fsyncs (1 = sync every line). */
    unsigned fsyncBatch = 32;

    /** Sites per benchmark re-run as full replays (fresh device +
     *  launch) to measure the fork-vs-replay speedup over the same
     *  benchmark mix and cross-check classifications; 0 skips the
     *  baseline measurement. */
    unsigned replaySample = 4;
};

struct ScaledResult
{
    std::vector<ScaledSite> sites; ///< global index order

    unsigned detected = 0;
    unsigned masked = 0;
    unsigned corrupt = 0;
    unsigned protCorrupt = 0; ///< "tag"/"capmeta" silent corruptions

    uint64_t resumedSites = 0; ///< sites satisfied from the journal

    // Checkpoint image round-trip (measured once, on the first bench).
    uint64_t ckptBytes = 0;
    uint64_t ckptSaveNs = 0;
    uint64_t ckptRestoreNs = 0;
    bool ckptReplayOk = true; ///< restored run matched the live run

    double forkSitesPerSec = 0.0; ///< over every live (non-resumed) site
    double replaySitesPerSec = 0.0; ///< over the sampled replay sites

    /** Paired same-site speedup: the sampled sites' total full-replay
     *  time over their total fork (delta re-execution) time. */
    double forkSpeedup = 0.0;

    /** Sampled full replays classified identically to the fork runs. */
    bool replayParityOk = true;

    /** Same recipe as CampaignResult::classificationHash, over the
     *  sites in global index order. */
    uint64_t classificationHash() const;
};

ScaledResult runScaledCampaign(const ScaledCampaignOptions &opts);

/**
 * Recompute the scaled classification hash from a journal alone (the
 * kill/resume self-test's merge check: a campaign resumed after SIGKILL
 * must leave a journal whose merged classification is bit-identical to
 * an uninterrupted run's). Orders records by site index. Returns false
 * with @p err set on a missing header or corrupt (non-tail) line.
 */
bool scaledJournalHash(const std::string &path, uint64_t *hash,
                       uint64_t *count, std::string *err);

} // namespace benchcommon

#endif // CHERI_SIMT_BENCH_FAULTCAMPAIGN_HPP_
