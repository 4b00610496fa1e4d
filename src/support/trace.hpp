/**
 * @file
 * Deterministic trace/profile layer (DESIGN.md section 11).
 *
 * A structured event tracer for the simulator: producers (SMs, the
 * device runtime, the memory system, the fault injector) push rare,
 * category-masked events into per-producer ring buffers; the owning
 * Session merges the buffers in SM-index order -- mirroring the
 * epoch-commit discipline -- into one deterministic event stream and
 * exports it as Chrome-trace-event JSON ("cheri-simt-trace-v1") that
 * Perfetto and chrome://tracing load directly.
 *
 * Design constraints, in order:
 *
 *  1. Architecturally invisible. Producers only *observe*: no modelled
 *     state (cycles, counters, memory, trap records) may depend on
 *     whether a buffer is attached. Enforced by tests/test_trace_parity.
 *  2. Cheap when off. The producer-side pattern is a single pointer
 *     test (`if (trace_ && trace_->wants(cat))`) on cold paths only;
 *     nothing is added to per-instruction hot loops except the one
 *     predicted-not-taken profile branch.
 *  3. Deterministic output. Timestamps are modelled cycles (never wall
 *     clock), buffers merge in SM-index order, and the JSON writer is
 *     the insertion-ordered support::json dumper -- so repeated runs
 *     produce byte-identical trace files.
 *
 * The Session also owns the per-kernel profiler: per-PC instruction
 * histograms collected by the SMs (one counter vector per SM, summed at
 * commit), reported per bench point through the "profile" object of the
 * cheri-simt-bench-v1 JSON.
 */

#ifndef CHERI_SIMT_SUPPORT_TRACE_HPP_
#define CHERI_SIMT_SUPPORT_TRACE_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace support
{
namespace trace
{

/** Event categories; a Session records only categories in its mask. */
enum Category : uint32_t
{
    kCatLaunch = 1u << 0,   ///< launch spans (serial fallback flagged)
    // Bit 1 is unused; the other bits keep their values so masks
    // written down elsewhere stay meaningful.
    kCatEpoch = 1u << 2,    ///< epoch commits, merge conflicts, fallbacks
    kCatWatchdog = 1u << 3, ///< watchdog fires
    kCatFault = 1u << 4,    ///< fault-injection strikes
    kCatTrap = 1u << 5,     ///< traps with forensic context
    kCatCounter = 1u << 6,  ///< counter samples (hit rate, DRAM traffic)
    kCatAll = 0x7d,
};

/** How an event renders in the Chrome trace ("ph" field). */
enum class EventKind : uint8_t
{
    Span,    ///< "X": complete event with a duration (launch attempts)
    Instant, ///< "i": point event (trap, commit, strike, ...)
    Counter, ///< "C": counter track sample
};

/** One trace event. Events are rare (never per-instruction), so plain
 *  strings and a key/value arg list are fine. */
struct Event
{
    EventKind kind = EventKind::Instant;
    uint32_t category = 0;

    /** Producer SM index; -1 = device-level track. */
    int32_t sm = -1;

    /** Timestamp in modelled cycles, relative to the current launch
     *  attempt (the Session rebases onto the track timeline). */
    uint64_t cycle = 0;

    /** Span duration in modelled cycles (Span events only). */
    uint64_t dur = 0;

    std::string name;

    /** Argument list, emitted in insertion order. */
    std::vector<std::pair<std::string, json::Value>> args;
};

/**
 * A bounded ring of events owned by one producer (one SM, or the
 * device runtime). When full, the oldest event is overwritten and the
 * drop is counted -- deterministically, since inputs are deterministic.
 * Producers on different host threads use different buffers, so no
 * locking is needed anywhere.
 */
class Buffer
{
  public:
    Buffer(uint32_t mask, size_t capacity, int32_t sm)
        : mask_(mask), capacity_(capacity ? capacity : 1), sm_(sm)
    {
    }

    /** Producer-side gate: is this category being recorded? */
    bool wants(uint32_t category) const { return (mask_ & category) != 0; }

    /** Default timestamp for producers with no cycle domain of their
     *  own (the memory system, the device runtime between joins). */
    void setNow(uint64_t cycle) { now_ = cycle; }
    uint64_t now() const { return now_; }

    /** Append an event (stamps the producer's SM index) and return the
     *  stored slot, so callers can attach args. */
    Event &push(Event e);

    /** Convenience: build and push an instant/counter/span event with
     *  the buffer's current now() timestamp. */
    Event &emit(EventKind kind, uint32_t category, std::string name);

    size_t size() const { return events_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Drain all events (oldest first) and reset the ring. */
    std::vector<Event> drain();

  private:
    uint32_t mask_;
    size_t capacity_;
    int32_t sm_;
    uint64_t now_ = 0;
    uint64_t dropped_ = 0;
    size_t head_ = 0; ///< index of the oldest event once the ring wrapped
    std::vector<Event> events_;
};

/** Session configuration. */
struct SessionConfig
{
    uint32_t mask = kCatAll;

    /** Ring capacity per producer buffer. */
    size_t ringCapacity = 1 << 16;

    /** Collect per-PC instruction histograms for the profiler. */
    bool profile = false;
};

/** One SM's profile scratch for one launch. */
struct StepProfile
{
    /** Executed-instruction count per PC (index = pc / 4). */
    std::vector<uint64_t> pcCounts;

    /** Per op (index = isa::Op): warp steps, and the steps among them
     *  that retired off the accelerated engine's fast paths. */
    std::vector<uint64_t> opSteps;
    std::vector<uint64_t> opMisses;
};

/** Per-kernel profile accumulated for one track (one bench point). */
struct KernelProfile
{
    /** Executed-instruction count per PC (index = pc / 4), summed over
     *  SMs and launch attempts. */
    std::vector<uint64_t> pcCounts;

    /** StepProfile's per-op counts, summed the same way. */
    std::vector<uint64_t> opSteps;
    std::vector<uint64_t> opMisses;

    /** Disassembly per PC (index = pc / 4) and the name of each op
     *  (index = isa::Op), set once per kernel. */
    std::vector<std::string> disasm;
    std::vector<std::string> opNames;

    uint64_t launches = 0;
};

/**
 * One tracing/profiling session: owns the producer buffers, the track
 * timeline, the committed event stream, and the per-track profiles.
 *
 * Intended use (single control thread; SM workers only ever touch
 * their own buffer between attach and join):
 *
 *   session.beginTrack("cheri/VecAdd");
 *   ... device attaches smBuffer(k) to SM k, deviceBuffer() to itself,
 *       runs the launch, then calls commitAttempt(cycles) ...
 *   session.chromeTrace("bench_foo")  // or writeChromeTrace(path)
 */
class Session
{
  public:
    explicit Session(SessionConfig cfg = {});

    const SessionConfig &config() const { return cfg_; }
    bool profiling() const { return cfg_.profile; }

    /** Start (or resume) the track all subsequently committed events
     *  belong to. Flushes pending device-level events first. */
    void beginTrack(const std::string &name);

    /** The device runtime's buffer (sm = -1). */
    Buffer *deviceBuffer() { return &device_; }

    /** The per-SM buffer, created on first use. Create all buffers
     *  before spawning SM worker threads. */
    Buffer *smBuffer(unsigned sm);

    /**
     * Merge this attempt's events -- device buffer first, then SM
     * buffers in SM-index order -- onto the current track, and advance
     * the track timeline by @p attempt_cycles so successive attempts
     * and launches do not overlap.
     */
    void commitAttempt(uint64_t attempt_cycles);

    /** Total committed events (for tests). */
    size_t eventCount() const { return committed_.size(); }

    /** Events dropped by ring overflow across all buffers. */
    uint64_t droppedEvents() const;

    // --- profiler ----------------------------------------------------

    /** Clear SM @p sm's profile scratch, its PC counts sized for a code
     *  image of @p code_words words, for a launch; returns nullptr when
     *  profiling is off. The SM sizes the per-op counts. */
    StepProfile *stepScratch(unsigned sm, size_t code_words);

    /** Sum the scratch vectors (SM-index order) into the current
     *  track's profile and clear them. */
    void foldProfile();

    /** Record the kernel disassembly and op names for the current track
     *  (first caller wins; the kernel of a track never changes). */
    void setDisasm(const std::vector<std::string> &disasm,
                   const std::vector<std::string> &op_names);

    /** Profile for @p track, or nullptr if none was collected. */
    const KernelProfile *profileFor(const std::string &track) const;

    // --- export ------------------------------------------------------

    /**
     * Render the committed stream as a Chrome-trace-event JSON document:
     *
     *   { "schema": "cheri-simt-trace-v1", "binary": <binary>,
     *     "displayTimeUnit": "ns", "dropped_events": int,
     *     "traceEvents": [ {"ph":"M"|"X"|"i"|"C", ...}, ... ] }
     *
     * Tracks become processes (pid, first-seen order), producers become
     * threads (tid 0 = device, tid k+1 = SM k); timestamps are modelled
     * cycles reported in microseconds. Deterministic: byte-identical
     * across repeated identical runs.
     */
    json::Value chromeTrace(const std::string &binary);

    /** Write chromeTrace() to @p path (2-space indent, trailing \n). */
    bool writeChromeTrace(const std::string &path, const std::string &binary);

    /** Commit any event still sitting in a producer buffer (e.g. one
     *  emitted after the last launch's commit). */
    void flush();

  private:
    struct Committed
    {
        Event event;
        uint32_t track = 0;
    };

    void drainInto(Buffer &buf, uint64_t base);

    SessionConfig cfg_;
    Buffer device_;
    std::vector<std::unique_ptr<Buffer>> sms_;
    std::vector<std::string> trackNames_;
    std::vector<uint64_t> trackBase_; ///< next free cycle per track
    uint32_t curTrack_ = 0;
    bool haveTrack_ = false;
    std::vector<Committed> committed_;

    /** Per-SM profile scratch. A deque so growing it for a later SM
     *  never moves a scratch already handed out via stepScratch(). */
    std::deque<StepProfile> stepScratch_;
    std::map<std::string, KernelProfile> profiles_;
};

} // namespace trace
} // namespace support

#endif // CHERI_SIMT_SUPPORT_TRACE_HPP_
