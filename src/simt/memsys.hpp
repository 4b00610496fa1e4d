/**
 * @file
 * The device's memory system: its one MainMemory plus one copy-on-write
 * MemShard per SM, and the deterministic merge of the shards.
 *
 * A shard is the only functional memory an SM sees. It is a page-based
 * copy-on-write overlay of the (frozen) base memory that records, per
 * naturally aligned 32-bit word, whether the SM read it, wrote it with a
 * plain store, or updated it with an atomic read-modify-write. With
 * SmConfig::numSms > 1 the SMs run concurrently on host worker threads,
 * and the shards let them share DRAM and its tag bits without data races
 * and without giving up determinism; with one SM the shard is
 * architecturally transparent.
 *
 * When every SM has finished, commitEpoch() merges the shards into the
 * base memory in SM index order -- a fixed, scheduler-independent order,
 * so a parallel launch is deterministic across runs and host machines.
 * The merge is equivalent to the single-SM execution whenever the shards
 * are free of cross-SM races:
 *
 *  - a word touched by one SM only commits that SM's local value;
 *  - a word updated *only atomically* by several SMs is routed through a
 *    deterministic mediator: the per-SM operation logs are replayed
 *    against the base value in (smId, program order). Replay is exact
 *    when all operations on the word are the same commutative-
 *    associative (or idempotent-commutative) RV32A kind -- AMOADD / AND /
 *    OR / XOR / MIN / MAX / MINU / MAXU -- and none of them uses its
 *    result, because then every interleaving (including the single-SM
 *    one) yields the same final value;
 *  - anything else -- a word plainly written by two SMs, written by one
 *    and read or atomically updated by another, mixed atomic kinds, an
 *    atomic whose old value is consumed, an AMOSWAP -- is a *conflict*:
 *    commitEpoch() commits nothing and reports it, and the device falls
 *    back to serial execution for the launch (the same conservative
 *    gating pattern as the SmConfig::hostFastPath scalariser).
 */

#ifndef CHERI_SIMT_SIMT_MEMSYS_HPP_
#define CHERI_SIMT_SIMT_MEMSYS_HPP_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cap/cheri_concentrate.hpp"
#include "isa/instr.hpp"
#include "simt/mem.hpp"

namespace support
{
class ByteWriter;
class ByteReader;
namespace trace
{
class Buffer;
} // namespace trace
} // namespace support

namespace simt
{

/** Functional result of one RV32A read-modify-write. */
uint32_t amoApply(isa::Op op, uint32_t old, uint32_t operand);

/**
 * One SM's private copy-on-write view of the shared base memory. Mirrors
 * the MainMemory accessors the SM uses; every access lands in a private
 * overlay page (seeded from the base on first touch), so concurrent SMs
 * never race on shared state.
 */
class MemShard
{
  public:
    // A shard page is a MainMemory page (4 KiB).
    static constexpr uint32_t kPageShift = MainMemory::kPageShift;
    static constexpr uint32_t kPageBytes = MainMemory::kPageBytes;
    static constexpr uint32_t kPageWords = MainMemory::kPageWords;
    static constexpr uint32_t kMaskWords = MainMemory::kPageTagWords;
    static constexpr uint32_t kNumPages = MainMemory::kNumPages;

    explicit MemShard(const MainMemory &base);

    uint8_t load8(uint32_t addr);
    uint16_t load16(uint32_t addr);
    uint32_t load32(uint32_t addr);
    /** Plain (non-capability) stores: each also clears the tag of every
     *  word it covers, in the page it already holds (Section 3.4). */
    void store8(uint32_t addr, uint8_t value);
    void store16(uint32_t addr, uint16_t value);
    void store32(uint32_t addr, uint32_t value);

    bool wordTag(uint32_t addr);
    void setWordTag(uint32_t addr, bool tag);
    cap::CapMem loadCap(uint32_t addr);
    void storeCap(uint32_t addr, const cap::CapMem &value);

    /**
     * Atomic read-modify-write of the aligned word at @p addr. Tracked
     * in the atomic word set and the operation log (for the commit-time
     * mediator) instead of the plain read/write sets.
     * @p result_used records whether the instruction consumes the old
     * value (rd != x0); such operations are never mediated.
     */
    uint32_t amo32(isa::Op op, uint32_t addr, uint32_t operand,
                   bool result_used);

    /**
     * The private bytes of the 4 KiB page holding @p addr (seeded from
     * the base on first touch). The packed memory lanes move data
     * straight through it (DESIGN.md section 12) and then record the
     * words they touched with markWords().
     */
    uint8_t *pageData(uint32_t addr) { return page(addr).data.data(); }

    /**
     * Record a packed access to every aligned word of [first, last],
     * which must lie in one page: a load adds the words to the read set;
     * a non-capability store adds them to the dirty set and clears their
     * tags -- the marks the per-lane accessors leave.
     */
    void markWords(uint32_t first, uint32_t last, bool store);

    /** Drop every private page, the atomic log and the page map: the
     *  shard then reads like one freshly built over its base. */
    void reset();

    /** Pages this shard has privatised (creation order), for tests and
     *  checkpoint accounting of mid-epoch snapshots. */
    size_t numTouchedPages() const { return touched_.size(); }

    /** Page index (DRAM-relative) of the @p i'th touched page. */
    uint32_t touchedPage(size_t i) const { return touched_.at(i); }

    /** Checkpoint serialization of the overlay: touched pages with
     *  their word marks plus the atomic-operation log, in creation
     *  order (simt/checkpoint.cpp). The base memory is serialized
     *  separately; loadState requires a fresh (or reset) shard over an
     *  identical base. */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

  private:
    friend class MemorySystem;
    // Test seam for the merge's reference model; defined by test
    // translation units only.
    friend struct MemShardTestAccess;

    struct Page
    {
        std::array<uint8_t, kPageBytes> data;
        std::array<uint64_t, kMaskWords> tag{};
        std::array<uint64_t, kMaskWords> read{};
        std::array<uint64_t, kMaskWords> dirty{};
        std::array<uint64_t, kMaskWords> atomic{};
    };

    /** One logged atomic operation, in program order. */
    struct AmoRec
    {
        uint32_t addr = 0;
        uint32_t operand = 0;
        isa::Op op = isa::Op::ILLEGAL;
        bool resultUsed = false;
    };

    Page &page(uint32_t addr);

    static void
    mark(std::array<uint64_t, kMaskWords> &m, uint32_t offset_in_page)
    {
        const uint32_t wi = offset_in_page >> 2;
        m[wi >> 6] |= uint64_t{1} << (wi & 63);
    }

    static void
    unmark(std::array<uint64_t, kMaskWords> &m, uint32_t offset_in_page)
    {
        const uint32_t wi = offset_in_page >> 2;
        m[wi >> 6] &= ~(uint64_t{1} << (wi & 63));
    }

    static bool
    marked(const std::array<uint64_t, kMaskWords> &m,
           uint32_t offset_in_page)
    {
        const uint32_t wi = offset_in_page >> 2;
        return (m[wi >> 6] >> (wi & 63)) & 1;
    }

    const MainMemory &base_;
    std::vector<int32_t> map_; // page index -> pages_ slot, or -1
    std::vector<std::unique_ptr<Page>> pages_;
    std::vector<uint32_t> touched_; // page indices, creation order
    std::vector<AmoRec> amoLog_;
};

/**
 * The device's memory system: the authoritative base memory and one
 * shard per SM, both owned here for the device's lifetime, plus the
 * deterministic merge of a launch epoch.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(unsigned num_shards);

    /** Outcome of commitEpoch(). */
    struct MergeReport
    {
        bool conflict = false;
        uint32_t conflictAddr = 0;
        const char *reason = "";
        uint64_t wordsCommitted = 0;
        uint64_t amosMediated = 0;
        uint64_t pagesTouched = 0;
    };

    MainMemory &base() { return base_; }
    const MainMemory &base() const { return base_; }

    /** Attach (or detach) an observational trace buffer: commitEpoch()
     *  reports every epoch commit / merge conflict into it. */
    void attachTrace(support::trace::Buffer *buf) { trace_ = buf; }

    /** Start a launch epoch: reset every shard to a fresh view of the
     *  base memory. */
    void beginEpoch();

    MemShard &shard(unsigned i) { return *shards_.at(i); }
    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /**
     * Merge every shard into the base memory in SM index order. On a
     * cross-SM conflict nothing at all is committed and the report
     * carries the lowest conflicting word address; the caller is
     * expected to rerun the launch serially against the base.
     */
    MergeReport commitEpoch();

  private:
    /** Emit the epoch-commit / merge-conflict trace event. */
    void traceCommit(const MergeReport &report);

    MainMemory base_;
    std::vector<std::unique_ptr<MemShard>> shards_;
    support::trace::Buffer *trace_ = nullptr;
};

} // namespace simt

#endif // CHERI_SIMT_SIMT_MEMSYS_HPP_
