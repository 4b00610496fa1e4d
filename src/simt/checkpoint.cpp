/**
 * @file
 * Checkpoint serialization of the simulated device (DESIGN.md section
 * 13). This translation unit defines the saveState/loadState members
 * declared across the component headers plus the image container
 * helpers, keeping the on-disk format in one place.
 *
 * Format discipline: every field is written in a fixed order with
 * fixed-width little-endian encodings (support::ByteWriter). Loaders
 * validate structural invariants (sizes implied by the SmConfig) and
 * fail the reader with a message instead of asserting, so a corrupt or
 * mismatched image surfaces as a structured error.
 */

#include "simt/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "simt/faultinject.hpp"
#include "simt/mem.hpp"
#include "simt/memsys.hpp"
#include "simt/regfile.hpp"
#include "simt/scratchpad.hpp"
#include "simt/sm.hpp"
#include "support/serialize.hpp"

namespace simt
{

using support::ByteReader;
using support::ByteWriter;

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv64(const uint8_t *p, size_t n, uint64_t h = kFnvOffset)
{
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

void
putCapPipe(ByteWriter &w, const cap::CapPipe &c)
{
    w.b(c.tag);
    w.u8(c.perms);
    w.b(c.flag);
    w.u8(c.otype);
    w.u8(c.reserved);
    w.u32(c.addr);
    w.u8(c.exponent);
    w.b(c.internalExp);
    w.u16(c.b);
    w.u16(c.t);
}

cap::CapPipe
getCapPipe(ByteReader &r)
{
    cap::CapPipe c;
    c.tag = r.b();
    c.perms = r.u8();
    c.flag = r.b();
    c.otype = r.u8();
    c.reserved = r.u8();
    c.addr = r.u32();
    c.exponent = r.u8();
    c.internalExp = r.b();
    c.b = r.u16();
    c.t = r.u16();
    return c;
}

/** A lane mask as its lane count and one 0/1 byte per lane. */
void
putLaneMask(ByteWriter &w, LaneMask m, unsigned lanes)
{
    w.u32(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        w.u8((m >> i) & 1);
}

bool
getLaneMask(ByteReader &r, LaneMask &m, unsigned expect)
{
    if (r.u32() != expect) {
        r.failWith("lane mask size mismatch");
        return false;
    }
    m = 0;
    for (unsigned i = 0; i < expect; ++i) {
        const uint8_t bit = r.u8();
        if (bit > 1) {
            r.failWith("lane mask byte is neither 0 nor 1");
            return false;
        }
        m |= LaneMask{bit} << i;
    }
    return !r.failed();
}

void
putTrapInfo(ByteWriter &w, const TrapInfo &t)
{
    w.b(t.trapped);
    w.u32(t.pc);
    w.u32(t.addr);
    w.u32(t.warp);
    w.u32(t.lane);
    w.u16(static_cast<uint16_t>(t.op));
    w.u8(static_cast<uint8_t>(t.kind));
    w.b(t.hasInstr);
    w.u16(static_cast<uint16_t>(t.instr.op));
    w.u8(t.instr.rd);
    w.u8(t.instr.rs1);
    w.u8(t.instr.rs2);
    w.u32(static_cast<uint32_t>(t.instr.imm));
    w.b(t.hasCap);
    w.b(t.capTag);
    w.u32(t.capPerms);
    w.u32(t.capBase);
    w.u64(t.capTop);
}

void
getTrapInfo(ByteReader &r, TrapInfo &t)
{
    t.trapped = r.b();
    t.pc = r.u32();
    t.addr = r.u32();
    t.warp = r.u32();
    t.lane = r.u32();
    t.op = static_cast<isa::Op>(r.u16());
    t.kind = static_cast<TrapKind>(r.u8());
    t.hasInstr = r.b();
    t.instr.op = static_cast<isa::Op>(r.u16());
    t.instr.rd = r.u8();
    t.instr.rs1 = r.u8();
    t.instr.rs2 = r.u8();
    t.instr.imm = static_cast<int32_t>(r.u32());
    t.hasCap = r.b();
    t.capTag = r.b();
    t.capPerms = r.u32();
    t.capBase = r.u32();
    t.capTop = r.u64();
}

void
putU64Vec(ByteWriter &w, const std::vector<uint64_t> &v)
{
    w.u32(static_cast<uint32_t>(v.size()));
    for (uint64_t x : v)
        w.u64(x);
}

bool
getU64Vec(ByteReader &r, std::vector<uint64_t> &v)
{
    const uint32_t n = r.u32();
    if (static_cast<uint64_t>(n) * 8 > r.remaining()) {
        r.failWith("u64 vector length exceeds remaining input");
        return false;
    }
    v.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        v[i] = r.u64();
    return !r.failed();
}

void
putI32Vec(ByteWriter &w, const std::vector<int> &v)
{
    w.u32(static_cast<uint32_t>(v.size()));
    for (int x : v)
        w.u32(static_cast<uint32_t>(x));
}

bool
getI32Vec(ByteReader &r, std::vector<int> &v)
{
    const uint32_t n = r.u32();
    if (static_cast<uint64_t>(n) * 4 > r.remaining()) {
        r.failWith("i32 vector length exceeds remaining input");
        return false;
    }
    v.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        v[i] = static_cast<int>(r.u32());
    return !r.failed();
}

} // namespace

// ---------------------------------------------------------------------
// ckpt container
// ---------------------------------------------------------------------

namespace ckpt
{

uint64_t
configHash(const SmConfig &cfg)
{
    ByteWriter w;
    w.u32(cfg.numWarps);
    w.u32(cfg.numLanes);
    w.u32(cfg.numRegs);
    w.b(cfg.purecap);
    w.u32(cfg.vrfCapacity);
    w.b(cfg.metaCompressed);
    w.b(cfg.sharedVrf);
    w.b(cfg.nvo);
    w.u32(cfg.metaRegsTracked);
    w.b(cfg.metaSrfSinglePort);
    w.b(cfg.sfuCheriOffload);
    w.b(cfg.staticPcMeta);
    // hostFastPath is deliberately excluded: both engines produce the
    // same state, so an image saved under one restores under the other.
    w.u32(cfg.pipelineDepth);
    w.u32(cfg.divLatency);
    w.u32(cfg.sfuCyclesPerElem);
    w.u32(cfg.dramLatency);
    w.u32(cfg.dramBytesPerCycle);
    w.u32(cfg.coalesceBytes);
    w.u32(cfg.scratchpadBanks);
    w.b(cfg.taggedMem);
    w.u32(cfg.tagCacheLines);
    w.u32(cfg.tagCacheLineBytes);
    w.b(cfg.tagRootFilter);
    w.u32(cfg.stackCacheLines);
    w.u32(cfg.stackCacheLineBytes);
    w.u32(cfg.stackBytesPerThread);
    w.u32(cfg.numSms);
    // smId is deliberately excluded: the per-SM configs of one device
    // differ only in smId, and the header hashes the device config.
    const FaultPlan &fp = cfg.faultPlan;
    w.u8(static_cast<uint8_t>(fp.site));
    w.u64(fp.cycleMin);
    w.u64(fp.cycleMax);
    w.u64(fp.nthEvent);
    w.u32(fp.addr);
    w.u32(fp.bit);
    w.u32(fp.stuckValue);
    w.u32(fp.warp);
    w.u32(fp.reg);
    w.u32(fp.lane);
    w.u32(fp.smMask);
    return fnv64(w.data().data(), w.size());
}

void
writeHeader(ByteWriter &w, const Header &h)
{
    w.u64(h.configHash);
    w.str(h.kernelKey);
    w.u32(h.numSms);
    w.u32(h.warpsPerBlock);
    w.u32(h.memoryFaults);
    w.u32(h.heapNext);
}

bool
readHeader(ByteReader &r, Header &h)
{
    h.configHash = r.u64();
    h.kernelKey = r.str();
    h.numSms = r.u32();
    h.warpsPerBlock = r.u32();
    h.memoryFaults = r.u32();
    h.heapNext = r.u32();
    return !r.failed();
}

void
writeSection(ByteWriter &image, uint32_t id,
             const std::vector<uint8_t> &payload)
{
    image.u32(id);
    image.u64(payload.size());
    image.u32(support::crc32(payload.data(), payload.size()));
    image.bytes(payload.data(), payload.size());
}

Error
readImage(const std::vector<uint8_t> &image, std::vector<Section> &out)
{
    out.clear();
    ByteReader r(image);
    if (r.remaining() < kMagicLen ||
        std::memcmp(r.cursor(), kMagic, kMagicLen) != 0)
        return Error::failure("not a cheri-simt checkpoint image "
                              "(bad magic)");
    r.skip(kMagicLen);
    const uint32_t version = r.u32();
    if (version != kVersion)
        return Error::failure(
            "unsupported checkpoint version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kVersion) +
            ")");
    while (r.remaining() > 0) {
        Section s;
        s.id = r.u32();
        const uint64_t len = r.u64();
        const uint32_t crc = r.u32();
        if (r.failed() || len > r.remaining())
            return Error::failure("truncated checkpoint image inside "
                                  "section framing");
        s.payload.resize(static_cast<size_t>(len));
        r.bytes(s.payload.data(), s.payload.size());
        if (r.failed())
            return Error::failure("truncated checkpoint section payload");
        const uint32_t got =
            support::crc32(s.payload.data(), s.payload.size());
        if (got != crc)
            return Error::failure(
                "checkpoint section " + std::to_string(s.id) +
                " CRC mismatch (image corrupt)");
        out.push_back(std::move(s));
    }
    if (out.empty() || out[0].id != kSectionHeader)
        return Error::failure("checkpoint image has no header section");
    return Error{};
}

} // namespace ckpt

// ---------------------------------------------------------------------
// MainMemory (sparse by 4 KiB page)
// ---------------------------------------------------------------------

void
MainMemory::saveState(ByteWriter &w) const
{
    static const uint8_t zero_page[kPageBytes] = {};

    // First pass: count non-trivial pages (all-zero, tag-free pages are
    // implied by the loader's reset). Only a written page can be one; a
    // written page may have been written back to zero, so it is tested.
    std::vector<uint32_t> live;
    for (uint32_t p = nextWritten(0); p < kNumPages; p = nextWritten(p + 1)) {
        const uint64_t *tags = tags_ + size_t{p} * kPageTagWords;
        bool interesting = false;
        for (uint32_t g = 0; g < kPageTagWords && !interesting; ++g)
            interesting = tags[g] != 0;
        if (!interesting)
            interesting = std::memcmp(data_ + size_t{p} * kPageBytes,
                                      zero_page, kPageBytes) != 0;
        if (interesting)
            live.push_back(p);
    }

    w.u32(kNumPages);
    w.u32(static_cast<uint32_t>(live.size()));
    for (uint32_t p : live) {
        w.u32(p);
        w.bytes(data_ + size_t{p} * kPageBytes, kPageBytes);
        for (uint32_t g = 0; g < kPageTagWords; ++g)
            w.u64(tags_[size_t{p} * kPageTagWords + g]);
    }
}

bool
MainMemory::loadState(ByteReader &r)
{
    const uint32_t num_pages = r.u32();
    if (num_pages != kNumPages) {
        r.failWith("main-memory geometry mismatch");
        return false;
    }
    // Only the image's live pages below become resident again.
    zeroAll();
    const uint32_t live = r.u32();
    for (uint32_t k = 0; k < live; ++k) {
        const uint32_t p = r.u32();
        if (p >= num_pages) {
            r.failWith("main-memory page index out of range");
            return false;
        }
        const size_t base = size_t{p} * kPageBytes;
        markWritten(base);
        if (!r.bytes(data_ + base, kPageBytes))
            return false;
        for (uint32_t g = 0; g < kPageTagWords; ++g) {
            const uint64_t bits = r.u64();
            if (bits != 0)
                tags_[size_t{p} * kPageTagWords + g] = bits;
        }
    }
    return !r.failed();
}

// ---------------------------------------------------------------------
// DramTimer / StackCache / TagController
// ---------------------------------------------------------------------

void
DramTimer::saveState(ByteWriter &w) const
{
    w.u64(busyUntil_);
    w.u64(seq_);
}

bool
DramTimer::loadState(ByteReader &r)
{
    busyUntil_ = r.u64();
    seq_ = r.u64();
    return !r.failed();
}

void
StackCache::saveState(ByteWriter &w) const
{
    w.u32(static_cast<uint32_t>(lines_.size()));
    for (const Line &l : lines_) {
        w.b(l.valid);
        w.b(l.dirty);
        w.u32(l.key);
    }
}

bool
StackCache::loadState(ByteReader &r)
{
    const uint32_t n = r.u32();
    if (n != lines_.size()) {
        r.failWith("stack-cache geometry mismatch");
        return false;
    }
    for (Line &l : lines_) {
        l.valid = r.b();
        l.dirty = r.b();
        l.key = r.u32();
    }
    return !r.failed();
}

void
TagController::saveState(ByteWriter &w) const
{
    w.u32(static_cast<uint32_t>(lines_.size()));
    for (const Line &l : lines_) {
        w.b(l.valid);
        w.b(l.dirty);
        w.u32(l.tagAddr);
    }
    w.u32(static_cast<uint32_t>(regionHasCaps_.size()));
    for (size_t i = 0; i < regionHasCaps_.size(); ++i)
        w.b(regionHasCaps_[i]);
}

bool
TagController::loadState(ByteReader &r)
{
    const uint32_t n = r.u32();
    if (n != lines_.size()) {
        r.failWith("tag-cache geometry mismatch");
        return false;
    }
    for (Line &l : lines_) {
        l.valid = r.b();
        l.dirty = r.b();
        l.tagAddr = r.u32();
    }
    const uint32_t regions = r.u32();
    if (regions != regionHasCaps_.size()) {
        r.failWith("tag-controller region-table mismatch");
        return false;
    }
    for (uint32_t i = 0; i < regions; ++i)
        regionHasCaps_[i] = r.b();
    return !r.failed();
}

// ---------------------------------------------------------------------
// Scratchpad
// ---------------------------------------------------------------------

void
Scratchpad::saveState(ByteWriter &w) const
{
    w.u32(static_cast<uint32_t>(words_.size()));
    for (size_t i = 0; i < words_.size(); ++i)
        w.u32(words_[i]);
    for (size_t i = 0; i < tags_.size(); ++i)
        w.b(tags_[i]);
}

bool
Scratchpad::loadState(ByteReader &r)
{
    const uint32_t n = r.u32();
    if (n != words_.size()) {
        r.failWith("scratchpad geometry mismatch");
        return false;
    }
    for (size_t i = 0; i < words_.size(); ++i)
        words_[i] = r.u32();
    for (size_t i = 0; i < tags_.size(); ++i)
        tags_[i] = r.b();
    return !r.failed();
}

// ---------------------------------------------------------------------
// RegFileSystem
// ---------------------------------------------------------------------

void
RegFileSystem::saveState(ByteWriter &w) const
{
    const auto put_entries = [&w](const std::vector<Entry> &es) {
        w.u32(static_cast<uint32_t>(es.size()));
        for (const Entry &e : es) {
            w.u8(static_cast<uint8_t>(e.kind));
            w.u32(e.base);
            w.u32(static_cast<uint32_t>(int32_t{e.stride}));
            w.b(e.tag);
            w.u32(e.nullMask);
            // The image keeps a slot and a spill id field per entry.
            w.u32(static_cast<uint32_t>(e.kind == Kind::Vector ? e.index
                                                               : -1));
            w.u32(static_cast<uint32_t>(e.kind == Kind::Spilled ? e.index
                                                                : -1));
        }
    };
    put_entries(dataEntries_);
    put_entries(metaEntries_);

    const auto put_lanes = [&](const auto &v) {
        w.u32(cfg_.numLanes);
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            w.u64(v[i]);
    };
    // Each slot is saved in the file it was last allocated to, its data
    // lanes widened to 64 bits.
    w.u32(static_cast<uint32_t>(slotInfo_.size()));
    for (size_t s = 0; s < slotInfo_.size(); ++s) {
        if (slotInfo_[s].isMeta)
            put_lanes(metaSlots_[s]);
        else
            put_lanes(dataSlots_[s]);
    }
    w.u32(static_cast<uint32_t>(slotInfo_.size()));
    for (const SlotInfo &si : slotInfo_) {
        w.b(si.isMeta);
        w.u32(si.warp);
        w.u32(si.reg);
        w.u64(si.lastUse);
    }
    putI32Vec(w, freeSlots_);
    w.u32(usedSlots_);
    w.u32(dataSlotsUsed_);
    w.u32(metaSlotsUsed_);

    w.u32(static_cast<uint32_t>(flatMeta_.size() * cfg_.numLanes));
    for (const LaneArray<CapMeta> &reg : flatMeta_) {
        for (unsigned i = 0; i < cfg_.numLanes; ++i) {
            w.u32(reg[i].meta);
            w.b(reg[i].tag);
        }
    }

    w.u32(static_cast<uint32_t>(spillStore_.size()));
    for (const auto &s : spillStore_)
        put_lanes(s);
    putI32Vec(w, freeSpillIds_);

    w.u32(dataVecCount_);
    w.u32(metaVecCount_);
    w.u32(capRegMask_);
    w.u64(useClock_);
}

bool
RegFileSystem::loadState(ByteReader &r)
{
    // The saved fields are checked before they are narrowed into an
    // Entry: a data stride must fit its 8 bits, and the slot or spill id
    // the kind follows must index its table (checked below, once the
    // tables are read); the other one must be -1.
    struct Saved
    {
        Kind kind;
        uint32_t base;
        int32_t stride;
        bool tag;
        LaneMask nullMask;
        int32_t slot, spillId;
    };
    std::vector<Saved> saved[2];
    const auto get_entries = [&r](std::vector<Saved> &out, size_t want) {
        const uint32_t n = r.u32();
        if (n != want) {
            r.failWith("register-file entry table mismatch");
            return false;
        }
        out.resize(n);
        for (Saved &e : out) {
            e.kind = static_cast<Kind>(r.u8());
            e.base = r.u32();
            e.stride = static_cast<int32_t>(r.u32());
            e.tag = r.b();
            e.nullMask = r.u32();
            e.slot = static_cast<int32_t>(r.u32());
            e.spillId = static_cast<int32_t>(r.u32());
        }
        return !r.failed();
    };
    if (!get_entries(saved[0], dataEntries_.size()) ||
        !get_entries(saved[1], metaEntries_.size()))
        return false;
    // A saved VRF vector is its lane count plus one u64 per lane.
    const uint64_t vec_bytes = 4 + 8 * uint64_t{cfg_.numLanes};
    const auto get_lanes = [&](LaneArray<uint64_t> &v) {
        if (r.u32() != cfg_.numLanes) {
            r.failWith("VRF vector lane count mismatch");
            return false;
        }
        v = {};
        for (unsigned i = 0; i < cfg_.numLanes; ++i)
            v[i] = r.u64();
        return !r.failed();
    };

    // The slot and slot-info tables grow on demand during a run, so a
    // restore rebuilds them at the saved size (a fresh device and one
    // that already ran a kernel both restore correctly).
    const uint32_t num_slots = r.u32();
    if (num_slots * vec_bytes > r.remaining()) {
        r.failWith("VRF slot table implausibly large");
        return false;
    }
    std::vector<LaneArray<uint64_t>> slot_lanes(num_slots);
    for (auto &s : slot_lanes) {
        if (!get_lanes(s))
            return false;
    }
    const uint32_t num_info = r.u32();
    if (num_info != num_slots) {
        r.failWith("VRF slot-info table mismatch");
        return false;
    }
    slotInfo_.assign(num_info, {});
    for (SlotInfo &si : slotInfo_) {
        si.isMeta = r.b();
        si.warp = r.u32();
        si.reg = r.u32();
        si.lastUse = r.u64();
        // A spill finds the slot's entry from its owner.
        if (si.warp >= cfg_.numWarps || si.reg >= cfg_.numRegs) {
            r.failWith("VRF slot owner out of range");
            return false;
        }
    }
    // Each slot goes to the file it serves; a data lane must fit 32 bits.
    dataSlots_.assign(num_slots, {});
    metaSlots_.assign(num_slots, {});
    for (size_t s = 0; s < num_slots; ++s) {
        if (slotInfo_[s].isMeta) {
            metaSlots_[s] = slot_lanes[s];
            continue;
        }
        for (unsigned i = 0; i < kMaxLanes; ++i) {
            if (slot_lanes[s][i] >> 32 != 0) {
                r.failWith("VRF data lane wider than 32 bits");
                return false;
            }
            dataSlots_[s][i] = static_cast<uint32_t>(slot_lanes[s][i]);
        }
    }
    if (!getI32Vec(r, freeSlots_))
        return false;
    usedSlots_ = r.u32();
    dataSlotsUsed_ = r.u32();
    metaSlotsUsed_ = r.u32();

    const uint32_t num_flat = r.u32();
    if (num_flat != flatMeta_.size() * cfg_.numLanes) {
        r.failWith("flat metadata table mismatch");
        return false;
    }
    for (LaneArray<CapMeta> &reg : flatMeta_) {
        for (unsigned i = 0; i < cfg_.numLanes; ++i) {
            reg[i].meta = r.u32();
            reg[i].tag = r.b();
        }
    }

    const uint32_t num_spill = r.u32();
    if (num_spill * vec_bytes > r.remaining()) {
        r.failWith("VRF spill store implausibly large");
        return false;
    }
    spillStore_.resize(num_spill);
    for (auto &s : spillStore_) {
        if (!get_lanes(s))
            return false;
    }
    if (!getI32Vec(r, freeSpillIds_))
        return false;

    dataVecCount_ = r.u32();
    metaVecCount_ = r.u32();
    capRegMask_ = r.u32();
    useClock_ = r.u64();

    // Every kind and index the register file follows must be valid: a
    // bad kind reaches a panic, a bad index reads out of bounds.
    const auto refuse = [&r](const char *why) {
        r.failWith(why);
        return false;
    };
    // Negative ids wrap to huge unsigned ones.
    const auto in = [](int id, size_t n) { return unsigned(id) < n; };
    for (const bool meta : {false, true}) {
        std::vector<Entry> &es = meta ? metaEntries_ : dataEntries_;
        for (size_t i = 0; i < es.size(); ++i) {
            const Saved &e = saved[meta][i];
            // Data entries are never PartialNull or Flat; metadata
            // entries are Flat exactly in the uncompressed file.
            if (e.kind > Kind::Flat ||
                (!meta && e.kind == Kind::PartialNull) ||
                (e.kind == Kind::Flat) != (meta && !cfg_.metaCompressed))
                return refuse("bad register-file entry kind");
            if (e.stride < std::numeric_limits<int8_t>::min() ||
                e.stride > std::numeric_limits<int8_t>::max())
                return refuse("register-file stride wider than 8 bits");
            const bool vector = e.kind == Kind::Vector;
            const bool spilled = e.kind == Kind::Spilled;
            if (vector ? !in(e.slot, slotInfo_.size()) : e.slot != -1)
                return refuse("register-file VRF slot out of range");
            if (spilled ? !in(e.spillId, spillStore_.size())
                        : e.spillId != -1)
                return refuse("register-file spill id out of range");
            Entry &out = es[i];
            out.kind = e.kind;
            out.base = e.base;
            out.stride = static_cast<int8_t>(e.stride);
            out.tag = e.tag;
            out.nullMask = e.nullMask;
            out.index = vector ? e.slot : spilled ? e.spillId : -1;
        }
    }
    for (const int id : freeSlots_)
        if (!in(id, slotInfo_.size()))
            return refuse("VRF free-list id out of range");
    for (const int id : freeSpillIds_)
        if (!in(id, spillStore_.size()))
            return refuse("VRF free-list id out of range");
    return !r.failed();
}

uint64_t
RegFileSystem::archStateHash() const
{
    ByteWriter w;
    saveState(w);
    return fnv64(w.data().data(), w.size());
}

// ---------------------------------------------------------------------
// MemShard (COW overlay)
// ---------------------------------------------------------------------

void
MemShard::saveState(ByteWriter &w) const
{
    w.u32(static_cast<uint32_t>(touched_.size()));
    for (uint32_t idx : touched_) {
        const int32_t slot = map_[idx];
        const Page &pg = *pages_[static_cast<size_t>(slot)];
        w.u32(idx);
        w.bytes(pg.data.data(), pg.data.size());
        for (uint64_t x : pg.tag)
            w.u64(x);
        for (uint64_t x : pg.read)
            w.u64(x);
        for (uint64_t x : pg.dirty)
            w.u64(x);
        for (uint64_t x : pg.atomic)
            w.u64(x);
    }
    w.u32(static_cast<uint32_t>(amoLog_.size()));
    for (const AmoRec &rec : amoLog_) {
        w.u32(rec.addr);
        w.u32(rec.operand);
        w.u16(static_cast<uint16_t>(rec.op));
        w.b(rec.resultUsed);
    }
}

bool
MemShard::loadState(ByteReader &r)
{
    if (!touched_.empty()) {
        r.failWith("shard restore requires a fresh epoch shard");
        return false;
    }
    const uint32_t n = r.u32();
    for (uint32_t k = 0; k < n; ++k) {
        const uint32_t idx = r.u32();
        if (idx >= kNumPages || map_[idx] >= 0) {
            r.failWith("shard page index invalid or duplicated");
            return false;
        }
        map_[idx] = static_cast<int32_t>(pages_.size());
        pages_.push_back(std::make_unique<Page>());
        touched_.push_back(idx);
        Page &pg = *pages_.back();
        if (!r.bytes(pg.data.data(), pg.data.size()))
            return false;
        for (uint64_t &x : pg.tag)
            x = r.u64();
        for (uint64_t &x : pg.read)
            x = r.u64();
        for (uint64_t &x : pg.dirty)
            x = r.u64();
        for (uint64_t &x : pg.atomic)
            x = r.u64();
    }
    const uint32_t amos = r.u32();
    if (static_cast<uint64_t>(amos) * 11 > r.remaining()) {
        r.failWith("shard atomic log length exceeds remaining input");
        return false;
    }
    amoLog_.resize(amos);
    for (AmoRec &rec : amoLog_) {
        rec.addr = r.u32();
        rec.operand = r.u32();
        rec.op = static_cast<isa::Op>(r.u16());
        rec.resultUsed = r.b();
    }
    return !r.failed();
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

void
FaultInjector::saveState(ByteWriter &w) const
{
    w.u64(now_);
    w.u64(events_);
    w.u64(fires_);
    w.b(done_);
}

bool
FaultInjector::loadState(ByteReader &r)
{
    now_ = r.u64();
    events_ = r.u64();
    fires_ = r.u64();
    done_ = r.b();
    return !r.failed();
}

// ---------------------------------------------------------------------
// Sm
// ---------------------------------------------------------------------

void
Sm::saveState(ByteWriter &w) const
{
    // Program identity (the image itself).
    w.u32(static_cast<uint32_t>(code_.size()));
    for (uint32_t word : code_)
        w.u32(word);

    // Scheduler / launch geometry.
    w.u32(warpsPerBlock_);
    w.u32(rrPtr_);
    w.u32(liveWarps_);
    w.u64(now_);
    w.u64(sfuBusyUntil_);

    for (const auto &scr : scrs_)
        putCapPipe(w, scr);

    w.u32(static_cast<uint32_t>(warps_.size()));
    const unsigned lanes = cfg_.numLanes;
    for (const Warp &warp : warps_) {
        w.u32(lanes);
        LaneArray<uint32_t> pc, nest;
        warp.laneKeys(pc, nest);
        for (unsigned i = 0; i < lanes; ++i)
            w.u32(pc[i]);
        for (unsigned i = 0; i < lanes; ++i)
            w.u32(nest[i]);
        putLaneMask(w, warp.halted, lanes);
        for (unsigned i = 0; i < lanes; ++i)
            putCapPipe(w, warp.pcc[i]);
        w.u64(warp.readyAt);
        w.b(warp.atBarrier);
        w.u32(warp.liveThreads);
        // Host-only: every live lane at one (nest, pc). Restore rebuilds
        // the groups from the lanes' keys and ignores it.
        w.b(warp.numGroups <= 1);
        w.b(warp.pccUniform);
        putCapPipe(w, warp.fetchCap);
        w.u32(warp.fetchLo);
        w.u64(warp.fetchHi);
    }

    putTrapInfo(w, firstTrap_);
    w.u64(dataOccAccum_);
    w.u64(metaOccAccum_);
    putU64Vec(w, opCounts_);

    // Unflushed per-step counters (zero when the snapshot is taken at a
    // runUntil() boundary, but serialized so any boundary is safe).
    w.u64(ctrInstrs_);
    w.u64(ctrCheriInstrs_);
    w.u64(ctrIssueSlots_);
    w.u64(ctrFastpath_);
    w.u64(ctrPackedMem_);
    w.u64(ctrFused_);

    // Stat counters by name.
    const auto &counters = stats_.all();
    w.u32(static_cast<uint32_t>(counters.size()));
    for (const auto &[name, value] : counters) {
        w.str(name);
        w.u64(value);
    }

    regfile_.saveState(w);
    scratchpad_.saveState(w);
    dramTimer_.saveState(w);
    tagController_.saveState(w);
    stackCache_.saveState(w);

    w.b(injector_ != nullptr);
    if (injector_)
        injector_->saveState(w);
}

bool
Sm::loadState(ByteReader &r)
{
    // Program image (rebuilds the shared decode via loadProgram, which
    // also installs the fallback key; the saved key then overrides it).
    const uint32_t code_words = r.u32();
    if (static_cast<uint64_t>(code_words) * 4 > kTcimSize) {
        r.failWith("checkpoint program exceeds TCIM size");
        return false;
    }
    std::vector<uint32_t> code(code_words);
    for (uint32_t &word : code)
        word = r.u32();
    if (r.failed())
        return false;
    loadProgram(code);

    warpsPerBlock_ = r.u32();
    rrPtr_ = r.u32();
    liveWarps_ = r.u32();
    now_ = r.u64();
    sfuBusyUntil_ = r.u64();

    for (auto &scr : scrs_)
        scr = getCapPipe(r);

    const uint32_t num_warps = r.u32();
    if (num_warps != cfg_.numWarps) {
        r.failWith("warp count mismatch");
        return false;
    }
    warps_.assign(cfg_.numWarps, Warp{});
    for (Warp &warp : warps_) {
        const uint32_t lanes = r.u32();
        if (lanes != cfg_.numLanes) {
            r.failWith("lane count mismatch");
            return false;
        }
        LaneArray<uint32_t> pc{}, nest{};
        for (unsigned i = 0; i < lanes; ++i)
            pc[i] = r.u32();
        for (unsigned i = 0; i < lanes; ++i)
            nest[i] = r.u32();
        if (!getLaneMask(r, warp.halted, lanes))
            return false;
        for (unsigned i = 0; i < lanes; ++i)
            warp.pcc[i] = getCapPipe(r);
        warp.readyAt = r.u64();
        warp.atBarrier = r.b();
        warp.liveThreads = r.u32();
        // The full-warp shortcuts trust this count, so it must be the
        // number of lanes not halted.
        if (warp.liveThreads !=
            static_cast<unsigned>(
                std::popcount(lowLanes(lanes) & ~warp.halted))) {
            r.failWith("warp live-thread count disagrees with its halted "
                       "lanes");
            return false;
        }
        warp.setLaneKeys(pc, nest, lowLanes(lanes) & ~warp.halted);
        r.b(); // the host-only convergence flag
        warp.pccUniform = r.b();
        warp.fetchCap = getCapPipe(r);
        warp.fetchLo = r.u32();
        warp.fetchHi = r.u64();
        // fetchLanes is not saved and stays empty: the first fetch after
        // a restore takes the full check.
    }

    getTrapInfo(r, firstTrap_);
    dataOccAccum_ = r.u64();
    metaOccAccum_ = r.u64();
    if (!getU64Vec(r, opCounts_) ||
        opCounts_.size() != static_cast<size_t>(isa::Op::NUM_OPS)) {
        r.failWith("per-op count table mismatch");
        return false;
    }

    ctrInstrs_ = r.u64();
    ctrCheriInstrs_ = r.u64();
    ctrIssueSlots_ = r.u64();
    ctrFastpath_ = r.u64();
    ctrPackedMem_ = r.u64();
    ctrFused_ = r.u64();

    stats_.clear();
    const uint32_t num_stats = r.u32();
    for (uint32_t i = 0; i < num_stats; ++i) {
        const std::string name = r.str();
        const uint64_t value = r.u64();
        if (r.failed())
            return false;
        stats_.set(name, value);
    }

    if (!regfile_.loadState(r) || !scratchpad_.loadState(r) ||
        !dramTimer_.loadState(r) || !tagController_.loadState(r) ||
        !stackCache_.loadState(r))
        return false;

    const bool has_injector = r.b();
    if (has_injector != (injector_ != nullptr)) {
        r.failWith("fault-injector presence mismatch (config hash "
                   "should have caught this)");
        return false;
    }
    if (injector_ && !injector_->loadState(r))
        return false;

    // Rebuild derived state: the dense issue mirror and the lazy
    // result-metadata invariant (forcing a null refill on the next step
    // is always safe).
    sched_.assign(cfg_.numWarps, 0);
    for (unsigned wid = 0; wid < cfg_.numWarps; ++wid)
        schedUpdate(wid);
    resultMetaDirty_ = true;
    hostNanos_ = 0;
    return !r.failed();
}

uint64_t
Sm::archStateHash() const
{
    // Architectural subset only: everything here is engine-invariant by
    // the bit-identity contract (stats_ would be too, except for its
    // simhost_* host-throughput counters, so it is excluded).
    ByteWriter w;
    w.u32(warpsPerBlock_);
    w.u32(rrPtr_);
    w.u32(liveWarps_);
    w.u64(now_);
    w.u64(sfuBusyUntil_);
    for (const auto &scr : scrs_)
        putCapPipe(w, scr);
    const unsigned lanes = cfg_.numLanes;
    for (const Warp &warp : warps_) {
        LaneArray<uint32_t> pc, nest;
        warp.laneKeys(pc, nest);
        for (unsigned i = 0; i < lanes; ++i)
            w.u32(pc[i]);
        for (unsigned i = 0; i < lanes; ++i)
            w.u32(nest[i]);
        putLaneMask(w, warp.halted, lanes);
        for (unsigned i = 0; i < lanes; ++i)
            putCapPipe(w, warp.pcc[i]);
        w.u64(warp.readyAt);
        w.b(warp.atBarrier);
        w.u32(warp.liveThreads);
    }
    putTrapInfo(w, firstTrap_);
    putU64Vec(w, opCounts_);
    w.u64(dataOccAccum_);
    w.u64(metaOccAccum_);
    regfile_.saveState(w);
    scratchpad_.saveState(w);
    dramTimer_.saveState(w);
    tagController_.saveState(w);
    stackCache_.saveState(w);
    return fnv64(w.data().data(), w.size());
}

} // namespace simt
