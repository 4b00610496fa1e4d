#include "simt/mem.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>

#include <sys/mman.h>

#include "support/logging.hpp"

namespace simt
{

namespace
{

constexpr size_t kTagBytes = kDramSize / 4 / 8;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** kFnvPrime to the @p n (mod 2^64): what FNV-1a does to a hash over @p n
 *  zero bytes (or zero chunks), since h ^ 0 == h. */
uint64_t
fnvPrimePow(uint64_t n)
{
    uint64_t result = 1;
    for (uint64_t base = kFnvPrime; n != 0; n >>= 1, base *= base) {
        if (n & 1)
            result *= base;
    }
    return result;
}

/**
 * A private anonymous mapping of @p bytes. The host kernel zero-fills
 * each page on first touch; reads of an untouched page map the shared
 * zero page, so only written pages become resident. Transparent huge
 * pages are declined so that residency grows in 4 KiB steps whatever
 * the host's THP policy (a 2 MiB first touch would zero-fill and pin a
 * whole huge page for one written word).
 */
void *
mapZeroed(size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    panic_if(p == MAP_FAILED, "cannot map %zu bytes of simulated DRAM",
             bytes);
    madvise(p, bytes, MADV_NOHUGEPAGE); // advisory; failure is harmless
    return p;
}

} // namespace

MainMemory::MainMemory()
    : data_(static_cast<uint8_t *>(mapZeroed(kDramSize))),
      tags_(static_cast<uint64_t *>(mapZeroed(kTagBytes)))
{
}

// Moves swap mappings, so a moved-from memory is still a valid (empty)
// memory rather than a dangling one.
MainMemory::MainMemory(MainMemory &&other) noexcept : MainMemory()
{
    std::swap(data_, other.data_);
    std::swap(tags_, other.tags_);
    std::swap(written_, other.written_);
}

MainMemory &
MainMemory::operator=(MainMemory &&other) noexcept
{
    std::swap(data_, other.data_);
    std::swap(tags_, other.tags_);
    std::swap(written_, other.written_);
    return *this;
}

MainMemory::~MainMemory()
{
    munmap(data_, kDramSize);
    munmap(tags_, kTagBytes);
}

void
MainMemory::zeroAll()
{
    // Returning the pages to the host kernel is the reset: a private
    // anonymous page reads as zero again after MADV_DONTNEED.
    panic_if(madvise(data_, kDramSize, MADV_DONTNEED) != 0 ||
                 madvise(tags_, kTagBytes, MADV_DONTNEED) != 0,
             "cannot release simulated DRAM pages");
    written_.fill(0);
}

uint32_t
MainMemory::nextWritten(uint32_t page_index) const
{
    if (page_index >= kNumPages)
        return kNumPages;
    size_t e = page_index / 64;
    uint64_t bits = written_[e] & (~uint64_t{0} << (page_index % 64));
    while (bits == 0) {
        if (++e == kWrittenWords)
            return kNumPages;
        bits = written_[e];
    }
    return static_cast<uint32_t>(e * 64 + std::countr_zero(bits));
}

size_t
MainMemory::index(uint32_t addr) const
{
    panic_if(!contains(addr), "DRAM address 0x%08x out of range", addr);
    return addr - kDramBase;
}

uint8_t
MainMemory::load8(uint32_t addr) const
{
    return data_[index(addr)];
}

uint16_t
MainMemory::load16(uint32_t addr) const
{
    const size_t i = index(addr);
    return static_cast<uint16_t>(data_[i] | (data_[i + 1] << 8));
}

uint32_t
MainMemory::load32(uint32_t addr) const
{
    const size_t i = index(addr);
    return static_cast<uint32_t>(data_[i]) |
           (static_cast<uint32_t>(data_[i + 1]) << 8) |
           (static_cast<uint32_t>(data_[i + 2]) << 16) |
           (static_cast<uint32_t>(data_[i + 3]) << 24);
}

void
MainMemory::store8(uint32_t addr, uint8_t value)
{
    const size_t i = index(addr);
    data_[i] = value;
    markWritten(i);
}

void
MainMemory::store16(uint32_t addr, uint16_t value)
{
    const size_t i = index(addr);
    data_[i] = static_cast<uint8_t>(value);
    data_[i + 1] = static_cast<uint8_t>(value >> 8);
    markWritten(i);
    markWritten(i + 1);
}

void
MainMemory::store32(uint32_t addr, uint32_t value)
{
    const size_t i = index(addr);
    data_[i] = static_cast<uint8_t>(value);
    data_[i + 1] = static_cast<uint8_t>(value >> 8);
    data_[i + 2] = static_cast<uint8_t>(value >> 16);
    data_[i + 3] = static_cast<uint8_t>(value >> 24);
    markWritten(i);
    markWritten(i + 3);
}

bool
MainMemory::wordTag(uint32_t addr) const
{
    const size_t w = index(addr) / 4;
    return (tags_[w / 64] >> (w % 64)) & 1;
}

void
MainMemory::setWordTag(uint32_t addr, bool tag)
{
    const size_t w = index(addr) / 4;
    const uint64_t bit = uint64_t{1} << (w % 64);
    uint64_t &entry = tags_[w / 64];
    // Clearing an already-clear tag must not write: a write would back
    // the tag page of capability-free data with a resident page. Nor
    // need it mark the page: a set tag lies in a written page already.
    if (tag) {
        entry |= bit;
        markWritten(w * 4);
    } else if (entry & bit) {
        entry &= ~bit;
    }
}

cap::CapMem
MainMemory::loadCap(uint32_t addr) const
{
    panic_if(addr % 8 != 0, "misaligned capability load at 0x%08x", addr);
    cap::CapMem c;
    c.bits = static_cast<uint64_t>(load32(addr)) |
             (static_cast<uint64_t>(load32(addr + 4)) << 32);
    // The invariant of Section 3.4: a capability is valid only if the tag
    // bits of both its 32-bit halves are set.
    c.tag = wordTag(addr) && wordTag(addr + 4);
    return c;
}

void
MainMemory::storeCap(uint32_t addr, const cap::CapMem &value)
{
    panic_if(addr % 8 != 0, "misaligned capability store at 0x%08x", addr);
    store32(addr, static_cast<uint32_t>(value.bits));
    store32(addr + 4, static_cast<uint32_t>(value.bits >> 32));
    setWordTag(addr, value.tag);
    setWordTag(addr + 4, value.tag);
}

void
MainMemory::clearTagForStore(uint32_t addr, unsigned bytes)
{
    const uint32_t first = addr & ~3u;
    const uint32_t last = (addr + bytes - 1) & ~3u;
    for (uint32_t a = first; a <= last; a += 4)
        setWordTag(a, false);
}

void
MainMemory::writePage(uint32_t page_addr, const uint8_t *data,
                      const uint64_t *tags, const uint64_t *mask)
{
    panic_if(page_addr % kPageBytes != 0,
             "page write at 0x%08x is not page-aligned", page_addr);
    const size_t i = index(page_addr);
    uint8_t *dst = data_ + i;
    uint64_t *dst_tags = tags_ + i / 256;
    bool any = false;
    for (uint32_t mw = 0; mw < kPageTagWords; ++mw) {
        const uint64_t m = mask != nullptr ? mask[mw] : ~uint64_t{0};
        if (m == 0)
            continue;
        any = true;
        const uint32_t off = mw * 256; // 64 words
        if (m == ~uint64_t{0}) {
            std::memcpy(dst + off, data + off, 256);
        } else {
            for (uint64_t bits = m; bits != 0; bits &= bits - 1) {
                const uint32_t o = off + 4 * std::countr_zero(bits);
                std::memcpy(dst + o, data + o, 4);
            }
        }
        // As in setWordTag: leave an unchanged tag entry unwritten.
        const uint64_t t = (dst_tags[mw] & ~m) | (tags[mw] & m);
        if (t != dst_tags[mw])
            dst_tags[mw] = t;
    }
    if (any)
        markWritten(i);
}

void
MainMemory::writeData(uint32_t addr, const void *src, uint32_t bytes)
{
    if (bytes == 0)
        return;
    const size_t i = index(addr);
    panic_if(i + bytes > kDramSize, "write past the end of DRAM");
    std::memcpy(data_ + i, src, bytes);
    for (size_t page = i >> kPageShift; page <= (i + bytes - 1) >> kPageShift;
         ++page)
        markWritten(page << kPageShift);
}

void
MainMemory::zeroData(uint32_t addr, uint32_t bytes)
{
    if (bytes == 0)
        return;
    const size_t i = index(addr);
    panic_if(i + bytes > kDramSize, "zero-fill past the end of DRAM");
    const size_t end = i + bytes;
    const uint32_t last = static_cast<uint32_t>((end - 1) >> kPageShift);
    for (uint32_t p = nextWritten(static_cast<uint32_t>(i >> kPageShift));
         p <= last; p = nextWritten(p + 1)) {
        const size_t lo = std::max(i, size_t{p} << kPageShift);
        const size_t hi = std::min(end, size_t{p + 1} << kPageShift);
        std::memset(data_ + lo, 0, hi - lo);
    }
}

void
MainMemory::copyOut(uint32_t addr, uint8_t *out, uint32_t bytes) const
{
    panic_if(bytes == 0, "zero-length copy");
    const size_t i = index(addr);
    panic_if(i + bytes > kDramSize, "copy past the end of DRAM");
    std::memcpy(out, data_ + i, bytes);
}

void
MainMemory::copyTagsOut(uint32_t addr, uint64_t *out, uint32_t bytes) const
{
    panic_if(bytes == 0 || addr % 256 != 0 || bytes % 256 != 0,
             "tag copy of %u bytes at 0x%08x is not 64-word aligned", bytes,
             addr);
    const size_t i = index(addr);
    panic_if(i + bytes > kDramSize, "copy past the end of DRAM");
    std::memcpy(out, tags_ + i / 256, bytes / 256 * sizeof(uint64_t));
}

uint64_t
MainMemory::contentHash() const
{
    // FNV-1a over the data bytes, 8 at a time as little-endian chunks,
    // and then the indices of the set word tags. A page outside the
    // written set is 512 zero chunks and carries no tags.
    static_assert(std::endian::native == std::endian::little);
    constexpr uint32_t chunks_per_page = kPageBytes / 8;
    uint64_t h = kFnvOffset;
    uint32_t next = 0; // first page not yet folded in
    for (uint32_t p = nextWritten(0); p < kNumPages; p = nextWritten(p + 1)) {
        h *= fnvPrimePow(uint64_t{chunks_per_page} * (p - next));
        const uint8_t *page = data_ + size_t{p} * kPageBytes;
        for (uint32_t c = 0; c < chunks_per_page; ++c) {
            uint64_t chunk;
            std::memcpy(&chunk, page + c * 8, 8);
            h = (h ^ chunk) * kFnvPrime;
        }
        next = p + 1;
    }
    h *= fnvPrimePow(uint64_t{chunks_per_page} * (kNumPages - next));
    for (uint32_t p = nextWritten(0); p < kNumPages; p = nextWritten(p + 1)) {
        for (uint32_t g = 0; g < kPageTagWords; ++g) {
            const size_t e = size_t{p} * kPageTagWords + g;
            for (uint64_t bits = tags_[e]; bits != 0; bits &= bits - 1) {
                const size_t w = e * 64 + std::countr_zero(bits);
                h = (h ^ (w + 1)) * kFnvPrime;
            }
        }
    }
    return h;
}

uint64_t
MainMemory::dataHash(uint32_t addr, uint32_t bytes, uint32_t exclude_addr,
                     uint32_t exclude_bytes) const
{
    // FNV-1a over 64-bit words: each aligned 8-byte word of DRAM holding
    // a hashed byte -- one in [addr, addr+bytes), in DRAM and outside
    // the exclusion window -- in address order, little-endian, with its
    // other bytes read as zero. Both windows end where their uint32_t
    // sum ends, so one that wraps past 2^32 is empty. A word in a page
    // outside the written set is zero, which only multiplies the hash,
    // so a run of such words folds in as one power of the prime.
    static_assert(std::endian::native == std::endian::little);
    uint64_t h = kFnvOffset;
    const uint32_t end = addr + bytes;
    if (end <= addr)
        return h;
    const uint32_t lo = std::max(addr, kDramBase);
    const uint32_t hi = std::min(end, kDramBase + kDramSize);
    if (lo >= hi)
        return h;
    uint32_t xlo = exclude_addr, xhi = exclude_addr + exclude_bytes;
    if (exclude_bytes == 0 || xhi <= xlo)
        xlo = xhi = 0;
    const auto hashed = [&](uint32_t a) {
        return a >= lo && a < hi && (a < xlo || a >= xhi);
    };

    // The whole words [w, run_end), all hashed, page by page.
    const auto hash_run = [&](uint32_t w, uint32_t run_end) {
        while (w < run_end) {
            const uint32_t page = pageOf(w);
            const uint32_t next = nextWritten(page);
            const uint32_t zero_end =
                next == kNumPages
                    ? run_end
                    : std::min(run_end, kDramBase + next * kPageBytes);
            if (zero_end > w) {
                h *= fnvPrimePow((zero_end - w) / 8);
                w = zero_end;
                continue;
            }
            const uint32_t page_end =
                std::min(run_end, kDramBase + (page + 1) * kPageBytes);
            for (const uint8_t *b = data_ + (w - kDramBase),
                               *e = data_ + (page_end - kDramBase);
                 b != e; b += 8) {
                uint64_t word;
                std::memcpy(&word, b, 8);
                h = (h ^ word) * kFnvPrime;
            }
            w = page_end;
        }
    };

    for (uint32_t w = lo & ~7u; w < hi;) {
        if (w >= xlo && w + 8 <= xhi) {
            w = xhi & ~7u; // every byte excluded
        } else if (w >= lo && w + 8 <= hi && (w + 8 <= xlo || w >= xhi)) {
            // Whole words up to the window's end or the exclusion.
            uint32_t run_end = hi & ~7u;
            if (w < xlo)
                run_end = std::min(run_end, xlo & ~7u);
            hash_run(w, run_end);
            w = run_end;
        } else {
            // A word the windows cut: its hashed bytes, the rest zero.
            uint64_t word = 0;
            bool any = false;
            for (unsigned k = 0; k < 8; ++k) {
                if (hashed(w + k)) {
                    any = true;
                    word |= uint64_t{data_[w + k - kDramBase]} << (8 * k);
                }
            }
            if (any)
                h = (h ^ word) * kFnvPrime;
            w += 8;
        }
    }
    return h;
}

std::vector<MemTransaction>
Coalescer::coalesce(const LaneArray<uint32_t> &addrs, LaneMask active,
                    unsigned access_bytes) const
{
    std::vector<MemTransaction> txns;
    forLanes(active, [&](unsigned lane) {
        // An access may straddle a segment boundary; cover both segments.
        const uint32_t first = addrs[lane] & ~(segmentBytes_ - 1);
        const uint32_t last =
            (addrs[lane] + access_bytes - 1) & ~(segmentBytes_ - 1);
        for (uint32_t seg = first;; seg += segmentBytes_) {
            bool found = false;
            for (const auto &t : txns) {
                if (t.segment == seg) {
                    found = true;
                    break;
                }
            }
            if (!found)
                txns.push_back(MemTransaction{seg, segmentBytes_});
            if (seg == last)
                break;
        }
    });
    std::sort(txns.begin(), txns.end(),
              [](const MemTransaction &a, const MemTransaction &b) {
                  return a.segment < b.segment;
              });
    return txns;
}

StackCache::StackCache(unsigned entries, unsigned fill_bytes,
                       DramTimer &dram, support::StatSet &stats)
    : fillBytes_(fill_bytes), dram_(dram), stats_(stats),
      statHits_(stats.handle("stack_cache_hits")),
      statMisses_(stats.handle("stack_cache_misses")),
      statBytesWritten_(stats.handle("stack_dram_bytes_written")),
      statBytesRead_(stats.handle("stack_dram_bytes_read")),
      lines_(entries)
{
}

void
StackCache::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
}

uint64_t
StackCache::access(uint64_t now, uint32_t key, bool is_write)
{
    panic_if(lines_.empty(), "access to a disabled stack cache");
    Line &line = lines_[key % lines_.size()];

    uint64_t done = now + 1;
    if (line.valid && line.key == key) {
        statHits_.add();
    } else {
        statMisses_.add();
        if (line.valid && line.dirty) {
            done = dram_.access(done, fillBytes_);
            statBytesWritten_.add(fillBytes_);
        }
        done = dram_.access(done, fillBytes_);
        statBytesRead_.add(fillBytes_);
        line.valid = true;
        line.dirty = false;
        line.key = key;
    }
    if (is_write)
        line.dirty = true;
    return done;
}

TagController::TagController(const SmConfig &cfg, DramTimer &dram,
                             support::StatSet &stats)
    : cfg_(cfg), dram_(dram), stats_(stats),
      statRootFiltered_(stats.handle("tag_root_filtered")),
      statHits_(stats.handle("tag_cache_hits")),
      statMisses_(stats.handle("tag_cache_misses")),
      statBytesWritten_(stats.handle("tag_dram_bytes_written")),
      statBytesRead_(stats.handle("tag_dram_bytes_read")),
      lines_(cfg.tagCacheLines),
      regionHasCaps_(kDramSize / kRegionBytes, false)
{
}

void
TagController::reset()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    std::fill(regionHasCaps_.begin(), regionHasCaps_.end(), false);
}

uint64_t
TagController::access(uint64_t now, uint32_t addr, bool is_write,
                      bool writes_cap)
{
    if (!cfg_.taggedMem)
        return now;

    const uint32_t offset = addr - kDramBase;
    const uint32_t region = offset / kRegionBytes;

    // Root-table filter: regions that have never held a capability need no
    // tag traffic at all -- reads return all-zero tags, and non-capability
    // writes leave the (already zero) tags unchanged.
    if (cfg_.tagRootFilter && !regionHasCaps_[region]) {
        if (!writes_cap) {
            statRootFiltered_.add();
            return now;
        }
        regionHasCaps_[region] = true;
    }

    const uint32_t tag_line_addr = offset / lineCoverage();
    const uint32_t set = tag_line_addr % cfg_.tagCacheLines;
    Line &line = lines_[set];

    uint64_t done = now;
    if (line.valid && line.tagAddr == tag_line_addr) {
        statHits_.add();
    } else {
        statMisses_.add();
        if (line.valid && line.dirty) {
            // Write back the victim tag line.
            done = dram_.access(done, cfg_.tagCacheLineBytes);
            statBytesWritten_.add(cfg_.tagCacheLineBytes);
        }
        done = dram_.access(done, cfg_.tagCacheLineBytes);
        statBytesRead_.add(cfg_.tagCacheLineBytes);
        line.valid = true;
        line.dirty = false;
        line.tagAddr = tag_line_addr;
    }
    if (is_write)
        line.dirty = true;
    return done;
}

} // namespace simt
