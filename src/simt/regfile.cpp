#include "simt/regfile.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/bits.hpp"
#include "support/logging.hpp"

namespace simt
{

namespace
{

/** Pack a CapMeta into a 64-bit lane value for VRF/spill storage. */
uint64_t
packMeta(const CapMeta &m)
{
    return (static_cast<uint64_t>(m.tag) << 32) | m.meta;
}

CapMeta
unpackMeta(uint64_t v)
{
    return CapMeta{static_cast<uint32_t>(v), ((v >> 32) & 1) != 0};
}

/** Does the first @p n lanes' data compress to base+stride with an
 *  8-bit stride? (Equal steps between neighbours is the closed form.)
 *  The line is a running sum, which vectorises without a multiply. */
bool
compressData(const LaneArray<uint32_t> &vals, unsigned n, uint32_t &base,
             int32_t &stride)
{
    base = vals[0];
    stride = n > 1 ? static_cast<int32_t>(vals[1] - vals[0]) : 0;
    if (stride < -128 || stride > 127)
        return false;
    uint32_t diff = 0, line = base;
    for (unsigned i = 0; i < kMaxLanes; ++i) {
        diff |= (vals[i] ^ line) & -static_cast<uint32_t>(i < n);
        line += static_cast<uint32_t>(stride);
    }
    return diff == 0;
}

/** The lanes of @p vals equal to @p v. */
LaneMask
lanesEqual(const LaneArray<CapMeta> &vals, const CapMeta &v)
{
    const uint64_t pv = packMeta(v);
    LaneMask m = 0;
    for (unsigned i = 0; i < kMaxLanes; ++i)
        m |= LaneMask{packMeta(vals[i]) == pv} << i;
    return m;
}

void
blend(LaneArray<CapMeta> &dst, const LaneArray<CapMeta> &src,
      LaneMask mask)
{
    forLanes(mask, [&](unsigned i) { dst[i] = src[i]; });
}

} // namespace

RegFileSystem::RegFileSystem(const SmConfig &cfg, support::StatSet &stats)
    : cfg_(cfg), allLanes_(lowLanes(cfg.numLanes)), stats_(stats),
      statDataSpills_(stats.handle("vrf_data_spills")),
      statMetaSpills_(stats.handle("vrf_meta_spills")),
      statDataReloads_(stats.handle("vrf_data_reloads")),
      statMetaReloads_(stats.handle("vrf_meta_reloads")),
      statNvoHits_(stats.handle("meta_nvo_hits")),
      statVrfPeak_(stats.handle("vrf_peak_used"))
{
    const unsigned entries = cfg_.numVectorRegs();
    dataEntries_.resize(entries);

    if (cfg_.purecap) {
        metaEntries_.resize(entries);
        if (!cfg_.metaCompressed) {
            flatMeta_.resize(entries);
            for (auto &e : metaEntries_)
                e.kind = Kind::Flat;
        }
    }

    if (cfg_.sharedVrf || !cfg_.purecap || !cfg_.metaCompressed) {
        dataCapacity_ = cfg_.vrfCapacity;
        metaCapacity_ = cfg_.sharedVrf ? cfg_.vrfCapacity : 0;
    } else {
        // Split-VRF configuration: each file gets its own allocator of the
        // configured capacity.
        dataCapacity_ = cfg_.vrfCapacity;
        metaCapacity_ = cfg_.vrfCapacity;
    }
}

void
RegFileSystem::reset()
{
    for (auto &e : dataEntries_)
        e = Entry{};
    if (cfg_.purecap) {
        for (auto &e : metaEntries_) {
            e = Entry{};
            if (!cfg_.metaCompressed)
                e.kind = Kind::Flat;
        }
        std::fill(flatMeta_.begin(), flatMeta_.end(), LaneArray<CapMeta>{});
    }
    dataSlots_.clear();
    metaSlots_.clear();
    slotInfo_.clear();
    freeSlots_.clear();
    spillStore_.clear();
    freeSpillIds_.clear();
    usedSlots_ = 0;
    dataSlotsUsed_ = 0;
    metaSlotsUsed_ = 0;
    dataVecCount_ = 0;
    metaVecCount_ = 0;
    capRegMask_ = 0;
    useClock_ = 0;
}

unsigned
RegFileSystem::entryIndex(unsigned warp, unsigned reg) const
{
    return warp * cfg_.numRegs + reg;
}

int
RegFileSystem::allocSlot(bool for_meta, RfAccess &acc)
{
    const bool shared = cfg_.sharedVrf;
    for (;;) {
        if (shared) {
            if (usedSlots_ < cfg_.vrfCapacity)
                break;
        } else {
            const unsigned used = for_meta ? metaSlotsUsed_ : dataSlotsUsed_;
            const unsigned cap = for_meta ? metaCapacity_ : dataCapacity_;
            if (used < cap)
                break;
        }
        spillVictim(for_meta, acc);
    }

    int slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<int>(slotInfo_.size());
        slotInfo_.emplace_back();
    }
    // Only the file the slot now serves needs storage under its id.
    if (for_meta) {
        if (static_cast<size_t>(slot) >= metaSlots_.size())
            metaSlots_.resize(static_cast<size_t>(slot) + 1);
    } else if (static_cast<size_t>(slot) >= dataSlots_.size()) {
        dataSlots_.resize(static_cast<size_t>(slot) + 1);
    }
    ++usedSlots_;
    if (for_meta)
        ++metaSlotsUsed_;
    else
        ++dataSlotsUsed_;
    slotInfo_[slot].isMeta = for_meta;
    slotInfo_[slot].lastUse = ++useClock_;
    statVrfPeak_.trackMax(usedSlots_);
    return slot;
}

void
RegFileSystem::freeSlot(int slot, bool for_meta)
{
    freeSlots_.push_back(slot);
    --usedSlots_;
    if (for_meta)
        --metaSlotsUsed_;
    else
        --dataSlotsUsed_;
}

void
RegFileSystem::spillVictim(bool for_meta, RfAccess &acc)
{
    // Choose the least-recently-used resident vector. In the shared-VRF
    // configuration any resident vector may be evicted; with split VRFs
    // only vectors of the requesting file free usable space.
    int victim = -1;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (size_t s = 0; s < slotInfo_.size(); ++s) {
        if (std::find(freeSlots_.begin(), freeSlots_.end(),
                      static_cast<int>(s)) != freeSlots_.end())
            continue;
        if (!cfg_.sharedVrf && slotInfo_[s].isMeta != for_meta)
            continue;
        if (slotInfo_[s].lastUse < best) {
            best = slotInfo_[s].lastUse;
            victim = static_cast<int>(s);
        }
    }
    panic_if(victim < 0, "VRF full with no evictable slot");

    const SlotInfo &info = slotInfo_[victim];
    Entry &e = (info.isMeta ? metaEntries_ : dataEntries_)
        [entryIndex(info.warp, info.reg)];
    panic_if(e.kind != Kind::Vector || e.index != victim,
             "inconsistent VRF slot mapping");

    int spill_id;
    if (!freeSpillIds_.empty()) {
        spill_id = freeSpillIds_.back();
        freeSpillIds_.pop_back();
    } else {
        spill_id = static_cast<int>(spillStore_.size());
        spillStore_.emplace_back();
    }
    LaneArray<uint64_t> &spill = spillStore_[spill_id];
    if (info.isMeta) {
        spill = metaSlots_[victim];
    } else {
        const LaneArray<uint32_t> &v = dataSlots_[victim];
        for (unsigned i = 0; i < kMaxLanes; ++i)
            spill[i] = v[i];
    }

    e.kind = Kind::Spilled;
    e.index = spill_id;
    if (info.isMeta)
        --metaVecCount_;
    else
        --dataVecCount_;
    freeSlot(victim, info.isMeta);

    ++acc.spills;
    acc.dramBytes += cfg_.numLanes * (info.isMeta ? 8 : 4);
    (info.isMeta ? statMetaSpills_ : statDataSpills_).add();
}

void
RegFileSystem::expandData(const Entry &e, LaneArray<uint32_t> &out) const
{
    switch (e.kind) {
      case Kind::Scalar: {
        // Same closed-form expansion as a descriptor read's
        // DataDesc::materialiseTo, so eager and lazy reads agree.
        DataDesc d;
        d.base = e.base;
        d.stride = e.stride;
        d.materialiseTo(out);
        break;
      }
      case Kind::Vector:
        out = dataSlots_[e.index];
        break;
      case Kind::Spilled: {
        const LaneArray<uint64_t> &v = spillStore_[e.index];
        for (unsigned i = 0; i < kMaxLanes; ++i)
            out[i] = static_cast<uint32_t>(v[i]);
        break;
      }
      default:
        panic("bad data entry kind");
    }
}

void
RegFileSystem::expandMeta(const Entry &e, LaneArray<CapMeta> &out) const
{
    switch (e.kind) {
      case Kind::Scalar:
      case Kind::PartialNull: {
        const CapMeta value{e.base, e.tag};
        const LaneMask nulls = e.kind == Kind::Scalar ? 0 : e.nullMask;
        for (unsigned i = 0; i < kMaxLanes; ++i)
            out[i] = (nulls >> i) & 1 ? CapMeta{} : value;
        break;
      }
      case Kind::Vector:
      case Kind::Spilled: {
        const LaneArray<uint64_t> &v = e.kind == Kind::Vector
                                           ? metaSlots_[e.index]
                                           : spillStore_[e.index];
        for (unsigned i = 0; i < kMaxLanes; ++i)
            out[i] = unpackMeta(v[i]);
        break;
      }
      default:
        panic("bad meta entry kind");
    }
}

void
RegFileSystem::allocVector(Entry &e, bool for_meta, unsigned warp,
                           unsigned reg, RfAccess &acc)
{
    const int slot = allocSlot(for_meta, acc);
    if (e.kind == Kind::Spilled)
        freeSpillIds_.push_back(e.index);
    e.kind = Kind::Vector;
    e.index = slot;
    slotInfo_[slot].warp = warp;
    slotInfo_[slot].reg = reg;
    ++(for_meta ? metaVecCount_ : dataVecCount_);
}

[[gnu::always_inline]] inline void
RegFileSystem::compressTo(Entry &e, bool for_meta, const Entry &value)
{
    if (e.kind == Kind::Vector) {
        freeSlot(e.index, for_meta);
        --(for_meta ? metaVecCount_ : dataVecCount_);
    } else if (e.kind == Kind::Spilled) {
        freeSpillIds_.push_back(e.index);
    }
    e = value;
}

void
RegFileSystem::unspill(Entry &e, bool for_meta, unsigned warp, unsigned reg,
                       RfAccess &acc)
{
    const int spill_id = e.index;
    allocVector(e, for_meta, warp, reg, acc);
    const LaneArray<uint64_t> &spill = spillStore_[spill_id];
    if (for_meta) {
        metaSlots_[e.index] = spill;
    } else {
        LaneArray<uint32_t> &v = dataSlots_[e.index];
        for (unsigned i = 0; i < kMaxLanes; ++i)
            v[i] = static_cast<uint32_t>(spill[i]);
    }
    ++acc.reloads;
    acc.dramBytes += cfg_.numLanes * (for_meta ? 8 : 4);
    (for_meta ? statMetaReloads_ : statDataReloads_).add();
}

void
RegFileSystem::readData(unsigned warp, unsigned reg,
                        LaneArray<uint32_t> &out, RfAccess &acc)
{
    Entry &e = dataEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspill(e, false, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.dataFromVrf = true;
        slotInfo_[e.index].lastUse = ++useClock_;
    }
    expandData(e, out);
}

void
RegFileSystem::mergeData(Entry &e, unsigned warp, unsigned reg,
                         const LaneArray<uint32_t> &vals, LaneMask mask,
                         RfAccess &acc)
{
    if (e.kind == Kind::Spilled)
        unspill(e, false, warp, reg, acc);
    // The old lanes -- a Vector entry's slot, or a Scalar entry's line --
    // with the written lanes blended in, in one pass.
    LaneArray<uint32_t> merged;
    if (e.kind == Kind::Vector) {
        const LaneArray<uint32_t> &slot = dataSlots_[e.index];
        for (unsigned i = 0; i < kMaxLanes; ++i)
            merged[i] = (slot[i] & ~laneWord(mask, i)) |
                        (vals[i] & laneWord(mask, i));
    } else {
        uint32_t line = e.base;
        for (unsigned i = 0; i < kMaxLanes; ++i) {
            merged[i] = (line & ~laneWord(mask, i)) |
                        (vals[i] & laneWord(mask, i));
            line += static_cast<uint32_t>(e.stride);
        }
    }

    uint32_t base;
    int32_t stride;
    if (compressData(merged, cfg_.numLanes, base, stride)) {
        compressTo(e, false, Entry::dataScalar(base, stride));
        return;
    }
    if (e.kind != Kind::Vector)
        allocVector(e, false, warp, reg, acc);
    slotInfo_[e.index].lastUse = ++useClock_;
    acc.dataFromVrf = true;
    dataSlots_[e.index] = merged;
}

void
RegFileSystem::writeData(unsigned warp, unsigned reg,
                         const LaneArray<uint32_t> &vals, LaneMask mask,
                         RfAccess &acc)
{
    if (reg == 0)
        return; // x0 is hardwired to zero

    const LaneArray<uint32_t> *src = &vals;
    LaneArray<uint32_t> faulty;
    if (injector_ && injector_->stuckLaneActive()) {
        const unsigned lane = injector_->plan().lane % cfg_.numLanes;
        if ((mask >> lane) & 1) {
            faulty = vals;
            injector_->corruptLaneValue(faulty[lane]);
            src = &faulty;
        }
    }

    Entry &e = dataEntries_[entryIndex(warp, reg)];
    if (mask != allLanes_) {
        mergeData(e, warp, reg, *src, mask, acc);
        return;
    }

    uint32_t base;
    int32_t stride;
    if (compressData(*src, cfg_.numLanes, base, stride)) {
        compressTo(e, false, Entry::dataScalar(base, stride));
        return;
    }

    if (e.kind != Kind::Vector)
        allocVector(e, false, warp, reg, acc);
    slotInfo_[e.index].lastUse = ++useClock_;
    acc.dataFromVrf = true;
    dataSlots_[e.index] = *src;
}

void
RegFileSystem::readMeta(unsigned warp, unsigned reg,
                        LaneArray<CapMeta> &out, RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (!cfg_.metaCompressed) {
        out = flatMeta_[entryIndex(warp, reg)];
        return;
    }
    Entry &e = metaEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspill(e, true, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.metaFromVrf = true;
        slotInfo_[e.index].lastUse = ++useClock_;
    }
    expandMeta(e, out);
}

void
RegFileSystem::writeMeta(unsigned warp, unsigned reg,
                         const LaneArray<CapMeta> &vals, LaneMask mask,
                         RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (reg == 0)
        return;
    if (injector_ && injector_->shouldCorruptMetaWrite(warp, reg)) {
        LaneArray<CapMeta> faulty = vals;
        injector_->corruptMeta(faulty[injector_->plan().lane % cfg_.numLanes]);
        storeMeta(warp, reg, faulty, mask, acc);
        return;
    }
    storeMeta(warp, reg, vals, mask, acc);
}

void
RegFileSystem::storeMeta(unsigned warp, unsigned reg,
                         const LaneArray<CapMeta> &vals, LaneMask mask,
                         RfAccess &acc)
{
    bool any_nonnull = false;
    for (LaneMask m = mask; m != 0 && !any_nonnull; m &= m - 1)
        any_nonnull = !vals[std::countr_zero(m)].isNull();
    if (any_nonnull)
        noteCapWrite(reg);

    if (!cfg_.metaCompressed) {
        blend(flatMeta_[entryIndex(warp, reg)], vals, mask);
        return;
    }

    Entry &e = metaEntries_[entryIndex(warp, reg)];

    // Every written lane carries the null capability and the entry is
    // already the uniform null scalar: merging and re-classifying would
    // rebuild exactly this representation, with no occupancy-counter or
    // RfAccess side effects, so the write is a no-op. (A Scalar entry
    // always has index == -1, and nullMask is ignored for scalars.)
    if (!any_nonnull && e.kind == Kind::Scalar && !e.tag && e.base == 0)
        return;

    // A partial write of one value into a compressed entry merges in
    // closed form.
    if (mask != allLanes_ &&
        (e.kind == Kind::Scalar || e.kind == Kind::PartialNull)) {
        const LaneMask written = mask & allLanes_;
        const CapMeta value =
            written != 0 ? vals[std::countr_zero(written)] : CapMeta{};
        bool one = true;
        for (LaneMask m = written; m != 0 && one; m &= m - 1)
            one = vals[std::countr_zero(m)] == value;
        if (one && mergeMeta(e, value, written))
            return;
    }

    // Merge through a pointer: the full-mask write (the common case)
    // uses the caller's buffer directly instead of copying it.
    LaneArray<CapMeta> merge;
    const LaneArray<CapMeta> *mergedp = &vals;
    if (mask != allLanes_) {
        if (e.kind == Kind::Spilled)
            unspill(e, true, warp, reg, acc);
        expandMeta(e, merge);
        blend(merge, vals, mask);
        mergedp = &merge;
    }
    const LaneArray<CapMeta> &merged = *mergedp;

    // Classify: uniform; else (with NVO) one non-null value plus nulls;
    // else a general vector.
    if ((lanesEqual(merged, merged[0]) & allLanes_) == allLanes_) {
        compressTo(e, true, Entry::metaScalar(merged[0]));
        return;
    }

    if (cfg_.nvo) {
        // Not uniform, so some lane is non-null.
        const LaneMask nulls = lanesEqual(merged, CapMeta{}) & allLanes_;
        const CapMeta value = merged[std::countr_zero(allLanes_ & ~nulls)];
        if (((lanesEqual(merged, value) | nulls) & allLanes_) ==
            allLanes_) {
            compressTo(e, true, Entry::metaScalar(value, nulls));
            statNvoHits_.add();
            return;
        }
    }

    if (e.kind != Kind::Vector)
        allocVector(e, true, warp, reg, acc);
    slotInfo_[e.index].lastUse = ++useClock_;
    acc.metaFromVrf = true;
    LaneArray<uint64_t> &slot = metaSlots_[e.index];
    for (unsigned i = 0; i < kMaxLanes; ++i)
        slot[i] = packMeta(merged[i]);
}

void
RegFileSystem::noteCapWrite(unsigned reg)
{
    panic_if(reg >= cfg_.metaRegsTracked,
             "capability written to x%u, beyond the metadata SRF's %u "
             "tracked registers",
             reg, cfg_.metaRegsTracked);
    capRegMask_ |= uint32_t{1} << reg;
}

bool
RegFileSystem::mergeMeta(Entry &e, const CapMeta &value, LaneMask written)
{
    // The lanes keeping the old non-null value, then those carrying the
    // written one; every other lane is null.
    const CapMeta old{e.base, e.tag};
    const LaneMask old_nulls = e.kind == Kind::PartialNull ? e.nullMask : 0;
    LaneMask held = old.isNull() ? 0 : allLanes_ & ~written & ~old_nulls;
    CapMeta v = old;
    if (!value.isNull() && written != 0) {
        if (held != 0 && !(value == old))
            return false;
        v = value;
        held |= written;
    }
    const LaneMask nulls = allLanes_ & ~held;
    if (held == 0) {
        e = Entry::metaScalar(CapMeta{});
    } else if (nulls == 0) {
        e = Entry::metaScalar(v);
    } else {
        if (!cfg_.nvo)
            return false;
        e = Entry::metaScalar(v, nulls);
        statNvoHits_.add();
    }
    return true;
}

void
RegFileSystem::readDataDesc(unsigned warp, unsigned reg,
                            LaneArray<uint32_t> &scratch, DataDesc &desc,
                            RfAccess &acc)
{
    Entry &e = dataEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspill(e, false, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.dataFromVrf = true;
        slotInfo_[e.index].lastUse = ++useClock_;
        scratch = dataSlots_[e.index];
        desc.kind = DataDesc::Kind::Lanes;
        desc.lanes = scratch.data();
        return;
    }
    desc.kind = DataDesc::Kind::Affine;
    desc.base = e.base;
    desc.stride = e.stride;
    desc.lanes = nullptr;
}

void
RegFileSystem::readMetaDesc(unsigned warp, unsigned reg,
                            LaneArray<CapMeta> &scratch, MetaDesc &desc,
                            RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (!cfg_.metaCompressed) {
        // Uncompressed file: detect uniformity on the fly so the plain
        // CHERI configuration also benefits from the fast path.
        const LaneArray<CapMeta> &flat = flatMeta_[entryIndex(warp, reg)];
        if ((lanesEqual(flat, flat[0]) & allLanes_) == allLanes_) {
            desc.kind = MetaDesc::Kind::Uniform;
            desc.value = flat[0];
            desc.lanes = nullptr;
        } else {
            desc.kind = MetaDesc::Kind::Lanes;
            desc.lanes = flat.data();
        }
        return;
    }
    Entry &e = metaEntries_[entryIndex(warp, reg)];
    if (e.kind == Kind::Spilled)
        unspill(e, true, warp, reg, acc);
    if (e.kind == Kind::Vector) {
        acc.metaFromVrf = true;
        slotInfo_[e.index].lastUse = ++useClock_;
        expandMeta(e, scratch);
        desc.kind = MetaDesc::Kind::Lanes;
        desc.lanes = scratch.data();
        return;
    }
    if (e.kind == Kind::PartialNull) {
        desc.kind = MetaDesc::Kind::PartialNull;
        desc.value = CapMeta{e.base, e.tag};
        desc.nullMask = e.nullMask;
        desc.lanes = nullptr;
        return;
    }
    desc.kind = MetaDesc::Kind::Uniform;
    desc.value = CapMeta{e.base, e.tag};
    desc.lanes = nullptr;
}

void
RegFileSystem::writeDataAffine(unsigned warp, unsigned reg, uint32_t base,
                               int32_t stride, LaneMask mask, RfAccess &acc)
{
    if (reg == 0)
        return; // x0 is hardwired to zero

    if (injector_ && injector_->stuckLaneActive()) {
        // A stuck lane breaks the affine form: expand the sequence and
        // take the general write path, which stores the corrupted lane.
        LaneArray<uint32_t> vals;
        DataDesc{DataDesc::Kind::Affine, base, stride}.materialiseTo(vals);
        writeData(warp, reg, vals, mask, acc);
        return;
    }

    Entry &e = dataEntries_[entryIndex(warp, reg)];

    // compressData of the expanded sequence: single-lane vectors always
    // compress with stride 0; otherwise the affine stride must fit 8 bits.
    const int32_t eff_stride = cfg_.numLanes > 1 ? stride : 0;
    if (mask != allLanes_) {
        // The same line into a Scalar entry leaves it as it is.
        if (e.kind == Kind::Scalar && e.base == base &&
            e.stride == eff_stride)
            return;
        LaneArray<uint32_t> vals;
        DataDesc{DataDesc::Kind::Affine, base, stride}.materialiseTo(vals);
        mergeData(e, warp, reg, vals, mask, acc);
        return;
    }
    if (eff_stride >= -128 && eff_stride <= 127) {
        compressTo(e, false, Entry::dataScalar(base, eff_stride));
        return;
    }

    if (e.kind != Kind::Vector)
        allocVector(e, false, warp, reg, acc);
    slotInfo_[e.index].lastUse = ++useClock_;
    acc.dataFromVrf = true;
    DataDesc{DataDesc::Kind::Affine, base, stride}.materialiseTo(
        dataSlots_[e.index]);
}

void
RegFileSystem::writeMetaUniform(unsigned warp, unsigned reg,
                                const CapMeta &value, LaneMask mask,
                                RfAccess &acc)
{
    panic_if(!cfg_.purecap, "metadata access without purecap");
    if (reg == 0)
        return;

    if (mask != allLanes_) {
        // A partial write: the closed-form merge where the entry is
        // compressed and no fault is armed, else the general path.
        Entry &e = metaEntries_[entryIndex(warp, reg)];
        if (!injector_ && cfg_.metaCompressed &&
            (e.kind == Kind::Scalar || e.kind == Kind::PartialNull)) {
            if (!value.isNull() && mask != 0)
                noteCapWrite(reg);
            if (mergeMeta(e, value, mask & allLanes_))
                return;
        }
        LaneArray<CapMeta> vals;
        vals.fill(value);
        writeMeta(warp, reg, vals, mask, acc);
        return;
    }

    if (injector_ && injector_->shouldCorruptMetaWrite(warp, reg)) {
        // The flip strikes one lane, as it does through writeMeta.
        LaneArray<CapMeta> vals;
        vals.fill(value);
        injector_->corruptMeta(vals[injector_->plan().lane % cfg_.numLanes]);
        storeMeta(warp, reg, vals, allLanes_, acc);
        return;
    }

    if (!value.isNull())
        noteCapWrite(reg);

    if (!cfg_.metaCompressed) {
        flatMeta_[entryIndex(warp, reg)].fill(value);
        return;
    }

    compressTo(metaEntries_[entryIndex(warp, reg)], true,
               Entry::metaScalar(value));
}

uint64_t
RegFileSystem::dataStorageBits() const
{
    // SRF: two identical two-read-port instances of
    // (32-bit base + 8-bit stride + 2-bit kind) per vector register.
    const uint64_t srf = uint64_t{cfg_.numVectorRegs()} * 2 * (32 + 8 + 2);
    // VRF data plane (the shared-VRF width extension is charged to the
    // metadata file).
    const uint64_t vrf = uint64_t{cfg_.vrfCapacity} * cfg_.numLanes * 32;
    // Free stack: one slot index per VRF location.
    const uint64_t stack =
        uint64_t{cfg_.vrfCapacity} * support::ceilLog2(cfg_.vrfCapacity);
    return srf + vrf + stack;
}

uint64_t
RegFileSystem::metaStorageBits() const
{
    if (!cfg_.purecap)
        return 0;
    if (!cfg_.metaCompressed)
        return flatMetaStorageBits();

    // Metadata SRF: a single instance (one read port; CSC pays a cycle):
    // 33-bit uniform value + 2-bit kind + the NVO null mask. Only
    // metaRegsTracked registers per thread need entries (Section 4.3).
    const uint64_t entry_bits = 33 + 2 + (cfg_.nvo ? cfg_.numLanes : 0);
    const uint64_t entries =
        uint64_t{cfg_.numWarps} *
        std::min(cfg_.metaRegsTracked, cfg_.numRegs);
    uint64_t total = entries * entry_bits;

    if (cfg_.sharedVrf) {
        // Widening the shared VRF from 32 to 33 bits.
        total += uint64_t{cfg_.vrfCapacity} * cfg_.numLanes;
    } else {
        total += uint64_t{metaCapacity_} * cfg_.numLanes * 33 +
                 uint64_t{metaCapacity_} * support::ceilLog2(metaCapacity_);
    }
    return total;
}

uint64_t
RegFileSystem::flatDataStorageBits() const
{
    return uint64_t{cfg_.numVectorRegs()} * cfg_.numLanes * 32;
}

uint64_t
RegFileSystem::flatMetaStorageBits() const
{
    return uint64_t{cfg_.numVectorRegs()} * cfg_.numLanes * 33;
}

} // namespace simt
