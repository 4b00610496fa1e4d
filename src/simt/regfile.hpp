/**
 * @file
 * The compressed register-file system (Sections 3.1 and 3.2 of the paper).
 *
 * Two architectural register files are modelled:
 *
 *  - a 32-bit general-purpose file with dynamic scalarisation: vector
 *    registers that are uniform or affine across the warp live compactly
 *    in a scalar register file (SRF); general vectors are allocated
 *    on demand in a size-constrained vector register file (VRF) whose
 *    overflow spills to main memory;
 *
 *  - a 33-bit capability-metadata file (pure-capability mode). Depending
 *    on configuration it is either uncompressed (the paper's plain CHERI
 *    configuration, 103% storage overhead) or compressed with
 *    uniform-only detection, an optional shared VRF, and the null-value
 *    optimisation (NVO): a partially-null vector is held in the SRF as a
 *    uniform value plus a per-lane null mask.
 *
 * The class also implements the structural-hazard accounting the paper
 * describes: the single-read-port metadata SRF makes CSC pay one extra
 * operand-fetch cycle, and an instruction needing both an uncompressed
 * data vector and an uncompressed metadata vector stalls one cycle on the
 * shared VRF.
 */

#ifndef CHERI_SIMT_SIMT_REGFILE_HPP_
#define CHERI_SIMT_SIMT_REGFILE_HPP_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "simt/config.hpp"
#include "support/stats.hpp"

namespace support
{
class ByteWriter;
class ByteReader;
} // namespace support

namespace simt
{

/** The 33 bits of capability metadata attached to a 32-bit register. */
struct CapMeta
{
    uint32_t meta = 0;
    bool tag = false;

    bool isNull() const { return meta == 0 && !tag; }
    bool operator==(const CapMeta &) const = default;
};

namespace detail
{

/**
 * kGapClass[t]: the lane offsets p in 1..31 whose lowest set bit is bit
 * t, i.e. p = 2^t * odd. Every such p has t <= 4.
 */
inline constexpr LaneMask kGapClass[5] = {0xaaaaaaaau, 0x44444444u,
                                          0x10101010u, 0x01000100u,
                                          0x00010000u};

/** kOddInverse[o]: o's multiplicative inverse mod 2^32, for odd o < 32
 *  (Newton's iteration doubles the correct low bits from 3 to 48). */
inline constexpr std::array<uint32_t, kMaxLanes> kOddInverse = [] {
    std::array<uint32_t, kMaxLanes> inv{};
    for (uint32_t o = 1; o < kMaxLanes; o += 2) {
        uint32_t x = o;
        for (int i = 0; i < 4; ++i)
            x *= 2 - o * x;
        inv[o] = x;
    }
    return inv;
}();

} // namespace detail

/**
 * Lazy operand descriptor for a data register read: either a closed-form
 * affine sequence (base + stride * lane; uniform when stride == 0) or a
 * pointer to fully-expanded per-lane values. Descriptor reads have
 * side effects identical to readData/readMeta -- only the expansion of
 * compressed (scalar) registers into per-lane arrays is elided.
 *
 * Contract: a descriptor describes its step's active lanes; inactive
 * lanes are unspecified. A register read describes every lane, and the
 * accelerated engine then narrows the descriptors of a divergent step
 * (narrowTo), so an Affine base can be an extrapolated lane-0 value that
 * no lane holds. Consumers read active lanes only, through at().
 */
struct DataDesc
{
    enum class Kind : uint8_t
    {
        Affine, ///< lane value = base + stride * lane
        Lanes,  ///< per-lane values in @ref lanes
    };

    Kind kind = Kind::Affine;
    uint32_t base = 0;
    int32_t stride = 0;
    const uint32_t *lanes = nullptr; ///< kMaxLanes values

    bool isUniform() const { return kind == Kind::Affine && stride == 0; }
    bool isRegular() const { return kind == Kind::Affine; }

    uint32_t
    at(unsigned lane) const
    {
        return kind == Kind::Affine
                   ? base + static_cast<uint32_t>(stride) * lane
                   : lanes[lane];
    }

    /**
     * Re-describe a Lanes descriptor over the @p active lanes alone: when
     * they hold base + stride * lane (32-bit wraparound), become that
     * Affine form. Exact: any affine fit of the active lanes is found.
     *
     * The stride comes from the lowest active lane l0 and a partner l1
     * whose gap g = l1 - l0 = 2^t * odd has the fewest factors of two.
     * stride * g == diff (mod 2^32) fixes the stride's low 32 - t bits:
     * arithmetic-shift diff by t and multiply by odd's inverse. Every
     * other gap is a multiple of 2^t, so the t free high bits move no
     * lane, and the sign-extending shift keeps small strides small. One
     * branch-free pass over the 32 lanes then checks every active lane.
     */
    void
    narrowTo(LaneMask active)
    {
        if (kind != Kind::Lanes || active == 0)
            return;
        const unsigned l0 = static_cast<unsigned>(std::countr_zero(active));
        const LaneMask rest = (active >> l0) & ~LaneMask{1};
        uint32_t s = 0;
        if (rest != 0) {
            unsigned t = 0;
            while ((rest & detail::kGapClass[t]) == 0)
                ++t;
            const unsigned gap = static_cast<unsigned>(
                std::countr_zero(rest & detail::kGapClass[t]));
            const uint32_t diff = lanes[l0 + gap] - lanes[l0];
            if ((diff & ((uint32_t{1} << t) - 1)) != 0)
                return; // no stride times 2^t * odd gives diff
            s = static_cast<uint32_t>(static_cast<int32_t>(diff) >> t) *
                detail::kOddInverse[gap >> t];
        }
        const uint32_t b = lanes[l0] - s * l0;
        uint32_t bad = 0, line = b;
        for (unsigned i = 0; i < kMaxLanes; ++i) {
            bad |= (lanes[i] ^ line) & laneWord(active, i);
            line += s;
        }
        if (bad != 0)
            return;
        kind = Kind::Affine;
        base = b;
        stride = static_cast<int32_t>(s);
    }

    /**
     * Expand into @p out (the reference per-lane buffer). A Lanes
     * descriptor pointing at @p out itself is a no-op; engine handlers
     * and the per-lane fallback paths share this exact expansion, so
     * operand values are bit-identical across engines by construction.
     */
    void
    materialiseTo(LaneArray<uint32_t> &out) const
    {
        if (kind == Kind::Lanes) {
            if (lanes != out.data())
                std::copy(lanes, lanes + kMaxLanes, out.begin());
            return;
        }
        // A running sum, which vectorises without a multiply.
        uint32_t v = base;
        for (unsigned lane = 0; lane < kMaxLanes; ++lane) {
            out[lane] = v;
            v += static_cast<uint32_t>(stride);
        }
    }
};

/**
 * Lazy operand descriptor for a capability-metadata register read, under
 * DataDesc's contract: it describes the step's active lanes.
 */
struct MetaDesc
{
    enum class Kind : uint8_t
    {
        Uniform,     ///< every lane holds @ref value
        PartialNull, ///< @ref value except the nullMask lanes (NVO)
        Lanes,       ///< per-lane values in @ref lanes
    };

    Kind kind = Kind::Uniform;
    CapMeta value{};
    LaneMask nullMask = 0;
    const CapMeta *lanes = nullptr; ///< kMaxLanes values

    bool isUniform() const { return kind == Kind::Uniform; }

    CapMeta
    at(unsigned lane) const
    {
        switch (kind) {
          case Kind::Uniform:
            return value;
          case Kind::PartialNull:
            return (nullMask >> lane) & 1 ? CapMeta{} : value;
          default:
            return lanes[lane];
        }
    }

    /**
     * Re-describe over the @p active lanes alone: Uniform when they all
     * hold one value -- a PartialNull whose null lanes are all inactive,
     * or all the active ones, or Lanes that agree on the active lanes.
     */
    void
    narrowTo(LaneMask active)
    {
        if (kind == Kind::PartialNull) {
            const LaneMask nulls = nullMask & active;
            if (nulls == active)
                value = CapMeta{};
            if (nulls == 0 || nulls == active)
                kind = Kind::Uniform;
            return;
        }
        if (kind != Kind::Lanes || active == 0)
            return;
        const CapMeta v = lanes[std::countr_zero(active)];
        uint32_t bad = 0;
        for (unsigned i = 0; i < kMaxLanes; ++i)
            bad |= ((lanes[i].meta ^ v.meta) |
                    static_cast<uint32_t>(lanes[i].tag != v.tag)) &
                   laneWord(active, i);
        if (bad == 0) {
            kind = Kind::Uniform;
            value = v;
        }
    }
};

/** Cost/event report for one architectural register-file access. */
struct RfAccess
{
    bool dataFromVrf = false;
    bool metaFromVrf = false;
    unsigned spills = 0;
    unsigned reloads = 0;
    unsigned dramBytes = 0; ///< spill/reload traffic

    void
    merge(const RfAccess &other)
    {
        dataFromVrf |= other.dataFromVrf;
        metaFromVrf |= other.metaFromVrf;
        spills += other.spills;
        reloads += other.reloads;
        dramBytes += other.dramBytes;
    }
};

class RegFileSystem
{
  public:
    RegFileSystem(const SmConfig &cfg, support::StatSet &stats);

    // ---- Architectural access ----

    void readData(unsigned warp, unsigned reg, LaneArray<uint32_t> &out,
                  RfAccess &acc);
    void writeData(unsigned warp, unsigned reg,
                   const LaneArray<uint32_t> &vals, LaneMask mask,
                   RfAccess &acc);

    void readMeta(unsigned warp, unsigned reg, LaneArray<CapMeta> &out,
                  RfAccess &acc);
    void writeMeta(unsigned warp, unsigned reg,
                   const LaneArray<CapMeta> &vals, LaneMask mask,
                   RfAccess &acc);

    // ---- Descriptor access (warp-regularity fast path) ----
    //
    // Side-effect-identical to readData/readMeta and to writeData/
    // writeMeta of the expanded values: the same unspills, spills, LRU
    // touches and stat events occur in the same order; only the per-lane
    // expansion of compressed registers is elided. Expanded (vector)
    // registers are copied into @p scratch immediately so the returned
    // view stays valid across later reads that may spill the slot.

    void readDataDesc(unsigned warp, unsigned reg,
                      LaneArray<uint32_t> &scratch, DataDesc &desc,
                      RfAccess &acc);
    void readMetaDesc(unsigned warp, unsigned reg,
                      LaneArray<CapMeta> &scratch, MetaDesc &desc,
                      RfAccess &acc);

    /** Affine write of base + stride * lane to the @p mask lanes: equals
     *  writeData of the expanded sequence. A partial write merges into
     *  the entry without expanding it. */
    void writeDataAffine(unsigned warp, unsigned reg, uint32_t base,
                         int32_t stride, LaneMask mask, RfAccess &acc);

    /** Uniform write of @p value to the @p mask lanes: equals writeMeta
     *  of the broadcast value. A partial write into a compressed entry
     *  merges in closed form. */
    void writeMetaUniform(unsigned warp, unsigned reg, const CapMeta &value,
                          LaneMask mask, RfAccess &acc);

    /** Reset all architectural registers to zero (kernel launch). */
    void reset();

    /** Checkpoint serialization (simt/checkpoint.cpp). */
    void saveState(support::ByteWriter &w) const;
    bool loadState(support::ByteReader &r);

    /** Order-dependent hash of the full architectural register state
     *  (both files, VRF-resident and spilled alike). */
    uint64_t archStateHash() const;

    /**
     * Arm runtime fault injection on the write paths (MetaRfFlip /
     * StuckLane sites; see simt/faultinject.hpp). nullptr -- the default
     * -- is the fault-free configuration and costs one pointer check.
     */
    void attachFaultInjector(FaultInjector *inj) { injector_ = inj; }

    // ---- Occupancy, for Figure 10 and Table 2 ----

    /** Vector registers of each file currently resident in the VRF. */
    unsigned dataVectorsInVrf() const { return dataVecCount_; }
    unsigned metaVectorsInVrf() const { return metaVecCount_; }
    unsigned vrfSlotsInUse() const { return usedSlots_; }

    /** Registers that have ever held a valid capability (Figure 11). */
    uint32_t capRegMask() const { return capRegMask_; }

    // ---- Storage model, for Tables 2 and 3 ----

    uint64_t dataStorageBits() const;
    uint64_t metaStorageBits() const;

    /** Storage of an uncompressed (flat) register file for comparison. */
    uint64_t flatDataStorageBits() const;
    uint64_t flatMetaStorageBits() const;

  private:
    enum class Kind : uint8_t
    {
        Scalar,      ///< data: base+stride in SRF; meta: uniform value
        PartialNull, ///< meta only: uniform value + null mask (NVO)
        Vector,      ///< resident in the VRF
        Spilled,     ///< spilled to main memory
        Flat,        ///< meta only: uncompressed dedicated storage
    };

    /**
     * One SRF entry, 16 bytes. As in the paper's SRF, a data scalar keeps
     * an 8-bit stride (compressData refuses wider ones). One index serves
     * both non-SRF kinds: a Vector's VRF slot, a Spilled entry's spill
     * id; it is -1 for every other kind.
     */
    struct Entry
    {
        uint32_t base = 0;     ///< data scalar base / meta uniform value
        LaneMask nullMask = 0; ///< meta PartialNull: the null lanes (NVO)
        int32_t index = -1;    ///< Vector: VRF slot; Spilled: spill id
        int8_t stride = 0;     ///< data scalar stride
        Kind kind = Kind::Scalar;
        bool tag = false; ///< meta uniform tag

        static Entry
        dataScalar(uint32_t base, int32_t stride)
        {
            Entry e;
            e.base = base;
            e.stride = static_cast<int8_t>(stride);
            return e;
        }

        /** A uniform metadata value, or with @p nulls a PartialNull. */
        static Entry
        metaScalar(const CapMeta &value, LaneMask nulls = 0)
        {
            Entry e;
            e.base = value.meta;
            e.tag = value.tag;
            e.nullMask = nulls;
            e.kind = nulls != 0 ? Kind::PartialNull : Kind::Scalar;
            return e;
        }
    };
    static_assert(sizeof(Entry) == 16);

    struct SlotInfo
    {
        bool isMeta = false;
        unsigned warp = 0;
        unsigned reg = 0;
        uint64_t lastUse = 0;
    };

    unsigned entryIndex(unsigned warp, unsigned reg) const;

    // VRF slot management (shared or split depending on configuration).
    int allocSlot(bool for_meta, RfAccess &acc);
    void freeSlot(int slot, bool for_meta);
    void spillVictim(bool for_meta, RfAccess &acc);

    void expandData(const Entry &e, LaneArray<uint32_t> &out) const;
    void expandMeta(const Entry &e, LaneArray<CapMeta> &out) const;

    /** Give @p e, not yet a Vector, a VRF slot as @p warp's @p reg,
     *  freeing its spill vector if it had one. */
    void allocVector(Entry &e, bool for_meta, unsigned warp, unsigned reg,
                     RfAccess &acc);

    /** Make @p e the compressed entry @p value, freeing its VRF slot or
     *  spill vector. */
    void compressTo(Entry &e, bool for_meta, const Entry &value);

    /** Record that @p reg holds a capability (capRegMask), refusing a
     *  register beyond the metadata SRF's tracked ones. */
    void noteCapWrite(unsigned reg);

    /**
     * Merge a write of @p value to the @p written lanes (within
     * allLanes_) into the compressed (Scalar or PartialNull) metadata
     * entry @p e in closed form, as the classification of the expanded
     * and blended lanes would. Returns false, changing nothing, where
     * the lanes need a vector: two distinct non-null values, or mixed
     * nulls without NVO.
     */
    bool mergeMeta(Entry &e, const CapMeta &value, LaneMask written);

    /**
     * Write the @p mask lanes of @p vals to data entry @p e (a partial
     * write), as expanding @p e, blending and classifying would: the old
     * lanes come straight from a Vector entry's slot or a Scalar
     * entry's line, and only a result that stays a vector is stored.
     */
    void mergeData(Entry &e, unsigned warp, unsigned reg,
                   const LaneArray<uint32_t> &vals, LaneMask mask,
                   RfAccess &acc);

    /** writeMeta after its fault injection: store @p vals to the
     *  @p mask lanes. */
    void storeMeta(unsigned warp, unsigned reg,
                   const LaneArray<CapMeta> &vals, LaneMask mask,
                   RfAccess &acc);

    /** Reload a spilled entry into the VRF, charging traffic. */
    void unspill(Entry &e, bool for_meta, unsigned warp, unsigned reg,
                 RfAccess &acc);

    // Test seam for the entry representation; defined by test
    // translation units only.
    friend struct RegFileTestAccess;

    const SmConfig cfg_;
    /** Every lane of a register: a write under this mask is full. */
    const LaneMask allLanes_;
    support::StatSet &stats_;

    // Hot-loop counter handles (never consult the name-keyed registry
    // from per-instruction code).
    support::StatSet::Handle statDataSpills_;
    support::StatSet::Handle statMetaSpills_;
    support::StatSet::Handle statDataReloads_;
    support::StatSet::Handle statMetaReloads_;
    support::StatSet::Handle statNvoHits_;
    support::StatSet::Handle statVrfPeak_;

    std::vector<Entry> dataEntries_;
    std::vector<Entry> metaEntries_;

    // VRF storage: one buffer of lane values per slot id, in the file
    // the slot was last allocated to (SlotInfo::isMeta). Data lanes are
    // 32 bits; metadata packs {tag, meta} into the low 33 bits of 64.
    // Each file's table grows to the highest slot id it has used, so
    // the ids, LRU and occupancy stay shared.
    std::vector<LaneArray<uint32_t>> dataSlots_;
    std::vector<LaneArray<uint64_t>> metaSlots_;
    std::vector<SlotInfo> slotInfo_;
    std::vector<int> freeSlots_;
    unsigned usedSlots_ = 0;

    // Separate allocator bookkeeping for the split-VRF configuration.
    unsigned dataCapacity_ = 0;
    unsigned metaCapacity_ = 0;
    unsigned dataSlotsUsed_ = 0;
    unsigned metaSlotsUsed_ = 0;

    // Uncompressed metadata storage (plain CHERI configuration), one
    // lane array per register.
    std::vector<LaneArray<CapMeta>> flatMeta_;

    // Spill backing store, each lane widened to 64 bits as saved.
    std::vector<LaneArray<uint64_t>> spillStore_;
    std::vector<int> freeSpillIds_;

    unsigned dataVecCount_ = 0;
    unsigned metaVecCount_ = 0;
    uint32_t capRegMask_ = 0;
    uint64_t useClock_ = 0;

    // Runtime fault injection (disarmed by default).
    FaultInjector *injector_ = nullptr;
};

} // namespace simt

#endif // CHERI_SIMT_SIMT_REGFILE_HPP_
