/**
 * @file
 * Banked scratchpad memory (CUDA __shared__ / OpenCL __local).
 *
 * Modelled as numBanks word-interleaved SRAM banks, each 33 bits wide so
 * that capabilities can be stored in shared memory (Section 3.4). A warp
 * access costs as many cycles as the worst per-bank conflict count;
 * lanes reading the same word in the same bank broadcast in one cycle.
 */

#ifndef CHERI_SIMT_SIMT_SCRATCHPAD_HPP_
#define CHERI_SIMT_SIMT_SCRATCHPAD_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cap/cheri_concentrate.hpp"
#include "simt/config.hpp"

namespace support
{
class ByteWriter;
class ByteReader;
} // namespace support

namespace simt
{

class Scratchpad
{
  public:
    explicit Scratchpad(const SmConfig &cfg);

    static bool
    contains(uint32_t addr)
    {
        return addr >= kSharedBase && addr < kSharedBase + kSharedSize;
    }

    uint8_t load8(uint32_t addr) const;
    uint16_t load16(uint32_t addr) const;
    uint32_t load32(uint32_t addr) const;
    void store8(uint32_t addr, uint8_t value);
    void store16(uint32_t addr, uint16_t value);
    void store32(uint32_t addr, uint32_t value);

    bool wordTag(uint32_t addr) const;
    void setWordTag(uint32_t addr, bool tag);

    cap::CapMem loadCap(uint32_t addr) const;
    void storeCap(uint32_t addr, const cap::CapMem &value);
    void clearTagForStore(uint32_t addr, unsigned bytes);

    /**
     * Cycles needed to serve a warp's accesses: the maximum number of
     * distinct words any single bank must serve (same-word accesses
     * broadcast, distinct words in the same bank serialise).
     */
    unsigned conflictCycles(const LaneArray<uint32_t> &addrs,
                            LaneMask active) const;

    /** Order-dependent hash of all words and tags (parity tests). */
    uint64_t
    contentHash() const
    {
        constexpr uint64_t kPrime = 1099511628211ull;
        uint64_t h = 1469598103934665603ull;
        for (size_t i = 0; i < words_.size(); ++i) {
            const uint64_t v =
                (static_cast<uint64_t>(tags_[i]) << 32) | words_[i];
            h = (h ^ v) * kPrime;
        }
        return h;
    }

    void reset();

    /** Checkpoint serialization (simt/checkpoint.cpp). */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

    /**
     * Arm the ScratchpadDropWrite fault site (see simt/faultinject.hpp):
     * the injector may silently discard a store8/16/32. nullptr -- the
     * default -- is fault-free.
     */
    void attachFaultInjector(FaultInjector *inj) { injector_ = inj; }

  private:
    size_t index(uint32_t addr) const;

    const SmConfig &cfg_;
    std::vector<uint32_t> words_;
    std::vector<bool> tags_;

    // conflictCycles scratch (persistent so the hot path never
    // allocates); mutable because the query is logically const.
    mutable std::vector<uint32_t> ccWords_;
    mutable std::vector<uint32_t> ccCounts_;
    FaultInjector *injector_ = nullptr;
};

} // namespace simt

#endif // CHERI_SIMT_SIMT_SCRATCHPAD_HPP_
