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
}

MainMemory &
MainMemory::operator=(MainMemory &&other) noexcept
{
    std::swap(data_, other.data_);
    std::swap(tags_, other.tags_);
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
    data_[index(addr)] = value;
}

void
MainMemory::store16(uint32_t addr, uint16_t value)
{
    const size_t i = index(addr);
    data_[i] = static_cast<uint8_t>(value);
    data_[i + 1] = static_cast<uint8_t>(value >> 8);
}

void
MainMemory::store32(uint32_t addr, uint32_t value)
{
    const size_t i = index(addr);
    data_[i] = static_cast<uint8_t>(value);
    data_[i + 1] = static_cast<uint8_t>(value >> 8);
    data_[i + 2] = static_cast<uint8_t>(value >> 16);
    data_[i + 3] = static_cast<uint8_t>(value >> 24);
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
    // the tag page of capability-free data with a resident page.
    if (tag)
        entry |= bit;
    else if (entry & bit)
        entry &= ~bit;
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

uint8_t *
MainMemory::rawData(uint32_t addr)
{
    return &data_[index(addr)];
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
    // FNV-1a over the data bytes (word-at-a-time for speed) and the
    // indices of the set word tags.
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 1469598103934665603ull;
    const size_t words = kDramSize / 8;
    for (size_t i = 0; i < words; ++i) {
        uint64_t chunk = 0;
        for (unsigned b = 0; b < 8; ++b)
            chunk |= static_cast<uint64_t>(data_[i * 8 + b]) << (8 * b);
        h = (h ^ chunk) * kPrime;
    }
    for (size_t e = 0; e < kTagWords; ++e) {
        for (uint64_t bits = tags_[e]; bits != 0; bits &= bits - 1) {
            const size_t w = e * 64 + std::countr_zero(bits);
            h = (h ^ (w + 1)) * kPrime;
        }
    }
    return h;
}

uint64_t
MainMemory::dataHash(uint32_t addr, uint32_t bytes, uint32_t exclude_addr,
                     uint32_t exclude_bytes) const
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 1469598103934665603ull;
    for (uint32_t a = addr; a < addr + bytes; ++a) {
        if (exclude_bytes != 0 && a >= exclude_addr &&
            a < exclude_addr + exclude_bytes)
            continue;
        if (!contains(a))
            continue;
        h = (h ^ load8(a)) * kPrime;
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
