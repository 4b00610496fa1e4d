#include "simt/scratchpad.hpp"

#include <algorithm>

#include "simt/faultinject.hpp"
#include "support/logging.hpp"

namespace simt
{

Scratchpad::Scratchpad(const SmConfig &cfg)
    : cfg_(cfg), words_(kSharedSize / 4, 0), tags_(kSharedSize / 4, false)
{
}

void
Scratchpad::reset()
{
    std::fill(words_.begin(), words_.end(), 0);
    std::fill(tags_.begin(), tags_.end(), false);
}

size_t
Scratchpad::index(uint32_t addr) const
{
    panic_if(!contains(addr), "scratchpad address 0x%08x out of range",
             addr);
    return (addr - kSharedBase) / 4;
}

uint8_t
Scratchpad::load8(uint32_t addr) const
{
    const uint32_t w = words_[index(addr)];
    return static_cast<uint8_t>(w >> ((addr & 3) * 8));
}

uint16_t
Scratchpad::load16(uint32_t addr) const
{
    const uint32_t w = words_[index(addr)];
    return static_cast<uint16_t>(w >> ((addr & 2) * 8));
}

uint32_t
Scratchpad::load32(uint32_t addr) const
{
    return words_[index(addr)];
}

void
Scratchpad::store8(uint32_t addr, uint8_t value)
{
    if (injector_ && injector_->shouldDropStore())
        return;
    uint32_t &w = words_[index(addr)];
    const unsigned shift = (addr & 3) * 8;
    w = (w & ~(0xffu << shift)) | (static_cast<uint32_t>(value) << shift);
}

void
Scratchpad::store16(uint32_t addr, uint16_t value)
{
    if (injector_ && injector_->shouldDropStore())
        return;
    uint32_t &w = words_[index(addr)];
    const unsigned shift = (addr & 2) * 8;
    w = (w & ~(0xffffu << shift)) | (static_cast<uint32_t>(value) << shift);
}

void
Scratchpad::store32(uint32_t addr, uint32_t value)
{
    if (injector_ && injector_->shouldDropStore())
        return;
    words_[index(addr)] = value;
}

bool
Scratchpad::wordTag(uint32_t addr) const
{
    return tags_[index(addr)];
}

void
Scratchpad::setWordTag(uint32_t addr, bool tag)
{
    tags_[index(addr)] = tag;
}

cap::CapMem
Scratchpad::loadCap(uint32_t addr) const
{
    panic_if(addr % 8 != 0, "misaligned capability load at 0x%08x", addr);
    cap::CapMem c;
    c.bits = static_cast<uint64_t>(load32(addr)) |
             (static_cast<uint64_t>(load32(addr + 4)) << 32);
    c.tag = wordTag(addr) && wordTag(addr + 4);
    return c;
}

void
Scratchpad::storeCap(uint32_t addr, const cap::CapMem &value)
{
    panic_if(addr % 8 != 0, "misaligned capability store at 0x%08x", addr);
    store32(addr, static_cast<uint32_t>(value.bits));
    store32(addr + 4, static_cast<uint32_t>(value.bits >> 32));
    setWordTag(addr, value.tag);
    setWordTag(addr + 4, value.tag);
}

void
Scratchpad::clearTagForStore(uint32_t addr, unsigned bytes)
{
    const uint32_t first = addr & ~3u;
    const uint32_t last = (addr + bytes - 1) & ~3u;
    for (uint32_t a = first; a <= last; a += 4)
        setWordTag(a, false);
}

unsigned
Scratchpad::conflictCycles(const LaneArray<uint32_t> &addrs,
                           LaneMask active) const
{
    // For each bank, count distinct word addresses accessed. A word
    // maps to exactly one bank, so per-bank distinctness equals
    // warp-wide distinctness and one deduplicated word list suffices.
    const unsigned banks = cfg_.scratchpadBanks;
    if (ccCounts_.size() < banks)
        ccCounts_.resize(banks);
    std::fill(ccCounts_.begin(), ccCounts_.begin() + banks, 0u);
    ccWords_.clear();
    forLanes(active, [&](unsigned lane) {
        const uint32_t word = addrs[lane] / 4;
        if (std::find(ccWords_.begin(), ccWords_.end(), word) ==
            ccWords_.end()) {
            ccWords_.push_back(word);
            ++ccCounts_[word % banks];
        }
    });
    uint32_t worst = 1;
    for (unsigned b = 0; b < banks; ++b)
        worst = std::max(worst, ccCounts_[b]);
    return worst;
}

} // namespace simt
