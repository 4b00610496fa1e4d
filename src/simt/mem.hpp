/**
 * @file
 * Memory subsystem of the simulated SoC: main memory with per-word tag
 * bits, the tag controller with its tag cache, the DRAM timing model, and
 * the coalescing unit.
 *
 * Following Section 3.4 of the paper, the memory subsystem is natively
 * 32-bit: a 1-bit tag is maintained for every naturally aligned 32-bit
 * word, and a 64-bit capability is valid only if the tags of both halves
 * are set. Capability accesses are two-flit transactions.
 */

#ifndef CHERI_SIMT_SIMT_MEM_HPP_
#define CHERI_SIMT_SIMT_MEM_HPP_

#include <array>
#include <cstdint>
#include <vector>

#include "cap/cheri_concentrate.hpp"
#include "simt/config.hpp"
#include "support/stats.hpp"

namespace support
{
class ByteWriter;
class ByteReader;
} // namespace support

namespace simt
{

/**
 * Functional main-memory storage: kDramSize bytes of data plus one tag bit
 * per aligned 32-bit word. Addresses are absolute (kDramBase-relative
 * translation happens internally).
 *
 * Both arrays live in private anonymous mappings that the host kernel
 * zero-fills on first touch, so a fresh memory reads as all-zero and
 * untagged while costing no resident pages until it is written
 * (DESIGN.md section 7). A memory cannot be copied; every object owns
 * its own mappings for its whole lifetime.
 *
 * The memory also keeps the set of 4 KiB pages written since it was
 * built or last reset, with one invariant: a page outside the set is
 * all-zero and its tags are clear. Every host-side walk over DRAM (the
 * checkpoint serialiser, the content and data hashes) visits only the
 * pages in the set.
 */
class MainMemory
{
  public:
    static constexpr uint32_t kPageShift = 12;
    static constexpr uint32_t kPageBytes = 1u << kPageShift; // 4 KiB
    static constexpr uint32_t kPageWords = kPageBytes / 4;
    /** Tag-bitmap entries per page: one bit per word, 64 per entry. */
    static constexpr uint32_t kPageTagWords = kPageWords / 64;
    static constexpr uint32_t kNumPages = kDramSize / kPageBytes;

    MainMemory();
    MainMemory(const MainMemory &) = delete;
    MainMemory(MainMemory &&other) noexcept;
    MainMemory &operator=(const MainMemory &) = delete;
    MainMemory &operator=(MainMemory &&other) noexcept;
    ~MainMemory();

    static bool
    contains(uint32_t addr)
    {
        return addr >= kDramBase && addr < kDramBase + kDramSize;
    }

    /** Page index (DRAM-relative) of @p addr, which must be in DRAM. */
    static uint32_t
    pageOf(uint32_t addr)
    {
        return (addr - kDramBase) >> kPageShift;
    }

    uint8_t load8(uint32_t addr) const;
    uint16_t load16(uint32_t addr) const;
    uint32_t load32(uint32_t addr) const;
    void store8(uint32_t addr, uint8_t value);
    void store16(uint32_t addr, uint16_t value);
    void store32(uint32_t addr, uint32_t value);

    /** Word-tag accessors (addr is rounded down to a word boundary). */
    bool wordTag(uint32_t addr) const;
    void setWordTag(uint32_t addr, bool tag);

    /**
     * Capability load/store: 64 bits at an 8-byte-aligned address plus the
     * combined tag (both word tags must be set for the load tag to be set;
     * stores set or clear both).
     */
    cap::CapMem loadCap(uint32_t addr) const;
    void storeCap(uint32_t addr, const cap::CapMem &value);

    /** Non-capability stores clear the covering word tag. */
    void clearTagForStore(uint32_t addr, unsigned bytes);

    /**
     * Host-side bulk write of the page at @p page_addr (page-aligned):
     * copies the data word and the tag bit of every word in @p mask
     * from @p data (kPageBytes, little-endian) and @p tags
     * (kPageTagWords entries, packed like copyTagsOut). A null @p mask
     * writes the whole page.
     */
    void writePage(uint32_t page_addr, const uint8_t *data,
                   const uint64_t *tags, const uint64_t *mask = nullptr);

    /** Host-side bulk copy of @p bytes from @p src to @p addr, as a
     *  run of store8 calls would write it: tags are left unchanged. */
    void writeData(uint32_t addr, const void *src, uint32_t bytes);

    /** Zero the data bytes of [addr, addr+bytes), tags unchanged; pages
     *  outside the written set are zero already and are skipped. */
    void zeroData(uint32_t addr, uint32_t bytes);

    /** Whether page @p page_index is in the written set. */
    bool
    pageWritten(uint32_t page_index) const
    {
        return (written_[page_index / 64] >> (page_index % 64)) & 1;
    }

    /** Order-dependent hash of all bytes and word tags (parity tests). */
    uint64_t contentHash() const;

    /**
     * Data-only hash of [addr, addr+bytes), skipping the (optional)
     * exclusion window [exclude_addr, exclude_addr+exclude_bytes) and
     * every byte outside DRAM. Tag bits are not hashed. Used by the
     * fault-injection campaign to compare architectural output while
     * masking out the word the fault itself corrupted.
     */
    uint64_t dataHash(uint32_t addr, uint32_t bytes,
                      uint32_t exclude_addr = 0,
                      uint32_t exclude_bytes = 0) const;

    /** Host-side bulk copy of @p bytes at @p addr into @p out
     *  (seeds MemShard overlay pages; see simt/memsys.hpp). */
    void copyOut(uint32_t addr, uint8_t *out, uint32_t bytes) const;

    /** The word tags of the same kind of span, packed like the backing
     *  bitmap: word w of the span is bit w % 64 of @p out[w / 64]. Both
     *  @p addr and @p bytes must be multiples of 256 (64 words). */
    void copyTagsOut(uint32_t addr, uint64_t *out, uint32_t bytes) const;

    /** Checkpoint serialization: sparse by 4 KiB page (all-zero,
     *  tag-free pages are skipped). Defined in simt/checkpoint.cpp. */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

  private:
    /** Tag bitmap length: one bit per 32-bit word, 64 words per entry. */
    static constexpr size_t kTagWords = kDramSize / 4 / 64;
    /** Written-set length: one bit per page, 64 pages per entry. */
    static constexpr size_t kWrittenWords = kNumPages / 64;

    size_t index(uint32_t addr) const;

    void
    markWritten(size_t index)
    {
        const size_t page = index >> kPageShift;
        written_[page / 64] |= uint64_t{1} << (page % 64);
    }

    /** The first page at or after @p page_index in the written set, or
     *  kNumPages when there is none. */
    uint32_t nextWritten(uint32_t page_index) const;

    /** Reset every byte and tag to zero, releasing all resident pages. */
    void zeroAll();

    uint8_t *data_;  // kDramSize bytes, demand-zero
    uint64_t *tags_; // kTagWords entries, demand-zero; word w is bit w % 64
                     // of entry w / 64
    // Pages written since the last reset: page p is bit p % 64 of entry
    // p / 64. A page outside the set is all-zero and tag-free.
    std::array<uint64_t, kWrittenWords> written_{};
};

/**
 * DRAM timing: fixed service latency plus a bandwidth-limited channel.
 * Transactions occupy the channel for bytes/bandwidth cycles; responses
 * arrive after the channel occupancy plus the access latency.
 */
class DramTimer
{
  public:
    DramTimer(unsigned latency, unsigned bytes_per_cycle)
        : latency_(latency), bytesPerCycle_(bytes_per_cycle)
    {
    }

    /** Issue a transaction at @p now; returns its completion time. */
    uint64_t
    access(uint64_t now, unsigned bytes)
    {
        const uint64_t start = now > busyUntil_ ? now : busyUntil_;
        const uint64_t occupancy =
            (bytes + bytesPerCycle_ - 1) / bytesPerCycle_;
        busyUntil_ = start + (occupancy ? occupancy : 1);
        // Deterministic service-time jitter (bank conflicts, refresh):
        // keeps lockstep warps from resonating into artificial convoys.
        const uint64_t jitter = (seq_++ * 7) % 37;
        return busyUntil_ + latency_ + jitter;
    }

    uint64_t busyUntil() const { return busyUntil_; }

    void
    reset()
    {
        busyUntil_ = 0;
        seq_ = 0;
    }

    /** Checkpoint serialization (simt/checkpoint.cpp). */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

  private:
    unsigned latency_;
    unsigned bytesPerCycle_;
    uint64_t busyUntil_ = 0;
    uint64_t seq_ = 0;
};

/** A coalesced memory transaction: one aligned segment of DRAM. */
struct MemTransaction
{
    uint32_t segment = 0; ///< segment-aligned base address
    unsigned bytes = 0;

    bool operator==(const MemTransaction &) const = default;
};

/**
 * Coalescing unit: packs per-lane accesses into aligned segments in the
 * style of early NVIDIA Tesla devices -- every distinct naturally aligned
 * segment touched by the active lanes becomes one wide transaction.
 */
class Coalescer
{
  public:
    explicit Coalescer(unsigned segment_bytes)
        : segmentBytes_(segment_bytes)
    {
    }

    /**
     * Compute the transactions for a set of per-lane accesses.
     * @param addrs      per-lane addresses (only active entries are read)
     * @param active     per-lane enable mask
     * @param accessBytes bytes accessed per lane
     */
    std::vector<MemTransaction>
    coalesce(const LaneArray<uint32_t> &addrs, LaneMask active,
             unsigned access_bytes) const;

  private:
    unsigned segmentBytes_;
};

/**
 * Compressed stack cache (SIMTight's proof-of-concept, Section 4.4 of
 * the paper). Per-thread stacks are strided in memory, so a warp's
 * access to one stack slot touches 32 widely separated addresses and
 * coalesces terribly. Because the 32 addresses are affine (uniform slot
 * offset, per-thread stride) the cache stores one *compressed* entry per
 * (warp, slot granule): a hit serves the whole warp in one cycle, a miss
 * transfers the warp's full slot data to/from DRAM. Only timing is
 * modelled here -- functional data lives in MainMemory.
 */
class StackCache
{
  public:
    /** @p entries == 0 builds a disabled cache (access() is an error). */
    StackCache(unsigned entries, unsigned fill_bytes, DramTimer &dram,
               support::StatSet &stats);

    /** Whether the cache exists at all (SmConfig::stackCacheLines > 0). */
    bool enabled() const { return !lines_.empty(); }

    /**
     * Account one warp access to slot granule @p key (a compressed-entry
     * identifier built from warp and slot offset); returns its
     * completion time.
     */
    uint64_t access(uint64_t now, uint32_t key, bool is_write);

    void reset();

    /** Checkpoint serialization (simt/checkpoint.cpp). */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint32_t key = 0;
    };

    unsigned fillBytes_;
    DramTimer &dram_;
    support::StatSet &stats_;
    support::StatSet::Handle statHits_;
    support::StatSet::Handle statMisses_;
    support::StatSet::Handle statBytesWritten_;
    support::StatSet::Handle statBytesRead_;
    std::vector<Line> lines_;
};

/**
 * Tag controller: sits in front of main memory and serves the tag bit of
 * every transaction. Tags live in a reserved region of DRAM; a small
 * direct-mapped tag cache plus a root "any capabilities here?" bitmap per
 * 8 KiB region (after Joannou et al., Efficient Tagged Memory) reduce the
 * extra DRAM traffic to almost zero for capability-free data.
 */
class TagController
{
  public:
    TagController(const SmConfig &cfg, DramTimer &dram,
                  support::StatSet &stats);

    /**
     * Account the tag lookup for a data transaction at @p addr.
     * @param now         current cycle
     * @param is_write    the data transaction is a store
     * @param writes_cap  the store writes at least one valid capability
     * @returns the cycle at which the tag access completes (>= now)
     */
    uint64_t access(uint64_t now, uint32_t addr, bool is_write,
                    bool writes_cap);

    void reset();

    /** Checkpoint serialization (simt/checkpoint.cpp). */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

  private:
    static constexpr uint32_t kRegionBytes = 8192;

    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint32_t tagAddr = 0; // aligned tag-region address
    };

    /** Data bytes covered by one tag-cache line. */
    uint32_t
    lineCoverage() const
    {
        return cfg_.tagCacheLineBytes * 8 * 4;
    }

    const SmConfig &cfg_;
    DramTimer &dram_;
    support::StatSet &stats_;
    support::StatSet::Handle statRootFiltered_;
    support::StatSet::Handle statHits_;
    support::StatSet::Handle statMisses_;
    support::StatSet::Handle statBytesWritten_;
    support::StatSet::Handle statBytesRead_;
    std::vector<Line> lines_;
    std::vector<bool> regionHasCaps_; // per 8 KiB DRAM region
};

} // namespace simt

#endif // CHERI_SIMT_SIMT_MEM_HPP_
