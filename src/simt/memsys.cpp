#include "simt/memsys.hpp"

#include <algorithm>
#include <bit>

#include "support/logging.hpp"
#include "support/trace.hpp"

namespace simt
{

uint32_t
amoApply(isa::Op op, uint32_t old, uint32_t operand)
{
    using isa::Op;
    switch (op) {
      case Op::AMOADD_W: return old + operand;
      case Op::AMOSWAP_W: return operand;
      case Op::AMOAND_W: return old & operand;
      case Op::AMOOR_W: return old | operand;
      case Op::AMOXOR_W: return old ^ operand;
      case Op::AMOMIN_W:
        return static_cast<int32_t>(old) < static_cast<int32_t>(operand)
                   ? old
                   : operand;
      case Op::AMOMAX_W:
        return static_cast<int32_t>(old) > static_cast<int32_t>(operand)
                   ? old
                   : operand;
      case Op::AMOMINU_W: return old < operand ? old : operand;
      case Op::AMOMAXU_W: return old > operand ? old : operand;
      default: panic("not an atomic op");
    }
}

namespace
{

/**
 * Atomic kinds whose final value is independent of operation order when
 * no operation consumes its result: the commit-time mediator may replay
 * them in any fixed order. AMOSWAP is excluded (last writer wins -- order
 * matters).
 */
bool
isOrderInsensitive(isa::Op op)
{
    using isa::Op;
    switch (op) {
      case Op::AMOADD_W:
      case Op::AMOAND_W:
      case Op::AMOOR_W:
      case Op::AMOXOR_W:
      case Op::AMOMIN_W:
      case Op::AMOMAX_W:
      case Op::AMOMINU_W:
      case Op::AMOMAXU_W: return true;
      default: return false;
    }
}

} // namespace

MemShard::MemShard(const MainMemory &base)
    : base_(base), map_(kNumPages, -1)
{
}

MemShard::Page &
MemShard::page(uint32_t addr)
{
    panic_if(!MainMemory::contains(addr),
             "shard address 0x%08x out of DRAM range", addr);
    const uint32_t pi = (addr - kDramBase) >> kPageShift;
    int32_t slot = map_[pi];
    if (slot < 0) {
        slot = static_cast<int32_t>(pages_.size());
        map_[pi] = slot;
        touched_.push_back(pi);
        auto p = std::make_unique<Page>();
        const uint32_t page_base = kDramBase + pi * kPageBytes;
        base_.copyOut(page_base, p->data.data(), kPageBytes);
        base_.copyTagsOut(page_base, p->tag.data(), kPageBytes);
        pages_.push_back(std::move(p));
    }
    return *pages_[slot];
}

uint8_t
MemShard::load8(uint32_t addr)
{
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.read, off);
    return p.data[off];
}

uint16_t
MemShard::load16(uint32_t addr)
{
    // A 16-bit access may straddle a page boundary; fall back to bytes.
    if (((addr - kDramBase) & (kPageBytes - 1)) > kPageBytes - 2)
        return static_cast<uint16_t>(load8(addr) | (load8(addr + 1) << 8));
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.read, off);
    mark(p.read, off + 1);
    return static_cast<uint16_t>(p.data[off] | (p.data[off + 1] << 8));
}

uint32_t
MemShard::load32(uint32_t addr)
{
    if (((addr - kDramBase) & (kPageBytes - 1)) > kPageBytes - 4) {
        return static_cast<uint32_t>(load8(addr)) |
               (static_cast<uint32_t>(load8(addr + 1)) << 8) |
               (static_cast<uint32_t>(load8(addr + 2)) << 16) |
               (static_cast<uint32_t>(load8(addr + 3)) << 24);
    }
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.read, off);
    mark(p.read, off + 3);
    return static_cast<uint32_t>(p.data[off]) |
           (static_cast<uint32_t>(p.data[off + 1]) << 8) |
           (static_cast<uint32_t>(p.data[off + 2]) << 16) |
           (static_cast<uint32_t>(p.data[off + 3]) << 24);
}

void
MemShard::store8(uint32_t addr, uint8_t value)
{
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.dirty, off);
    unmark(p.tag, off);
    p.data[off] = value;
}

void
MemShard::store16(uint32_t addr, uint16_t value)
{
    if (((addr - kDramBase) & (kPageBytes - 1)) > kPageBytes - 2) {
        store8(addr, static_cast<uint8_t>(value));
        store8(addr + 1, static_cast<uint8_t>(value >> 8));
        return;
    }
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.dirty, off);
    mark(p.dirty, off + 1);
    unmark(p.tag, off);
    unmark(p.tag, off + 1);
    p.data[off] = static_cast<uint8_t>(value);
    p.data[off + 1] = static_cast<uint8_t>(value >> 8);
}

void
MemShard::store32(uint32_t addr, uint32_t value)
{
    if (((addr - kDramBase) & (kPageBytes - 1)) > kPageBytes - 4) {
        store8(addr, static_cast<uint8_t>(value));
        store8(addr + 1, static_cast<uint8_t>(value >> 8));
        store8(addr + 2, static_cast<uint8_t>(value >> 16));
        store8(addr + 3, static_cast<uint8_t>(value >> 24));
        return;
    }
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.dirty, off);
    mark(p.dirty, off + 3);
    unmark(p.tag, off);
    unmark(p.tag, off + 3);
    p.data[off] = static_cast<uint8_t>(value);
    p.data[off + 1] = static_cast<uint8_t>(value >> 8);
    p.data[off + 2] = static_cast<uint8_t>(value >> 16);
    p.data[off + 3] = static_cast<uint8_t>(value >> 24);
}

bool
MemShard::wordTag(uint32_t addr)
{
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.read, off);
    return marked(p.tag, off);
}

void
MemShard::setWordTag(uint32_t addr, bool tag)
{
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    mark(p.dirty, off);
    const uint32_t wi = off >> 2;
    if (tag)
        p.tag[wi >> 6] |= uint64_t{1} << (wi & 63);
    else
        p.tag[wi >> 6] &= ~(uint64_t{1} << (wi & 63));
}

cap::CapMem
MemShard::loadCap(uint32_t addr)
{
    panic_if(addr % 8 != 0, "misaligned capability load at 0x%08x", addr);
    cap::CapMem c;
    c.bits = static_cast<uint64_t>(load32(addr)) |
             (static_cast<uint64_t>(load32(addr + 4)) << 32);
    c.tag = wordTag(addr) && wordTag(addr + 4);
    return c;
}

void
MemShard::storeCap(uint32_t addr, const cap::CapMem &value)
{
    panic_if(addr % 8 != 0, "misaligned capability store at 0x%08x", addr);
    store32(addr, static_cast<uint32_t>(value.bits));
    store32(addr + 4, static_cast<uint32_t>(value.bits >> 32));
    setWordTag(addr, value.tag);
    setWordTag(addr + 4, value.tag);
}

uint32_t
MemShard::amo32(isa::Op op, uint32_t addr, uint32_t operand,
                bool result_used)
{
    panic_if(addr % 4 != 0, "misaligned atomic at 0x%08x", addr);
    Page &p = page(addr);
    const uint32_t off = (addr - kDramBase) & (kPageBytes - 1);
    // Tracked only in the atomic word set: a word that is exclusively
    // atomic across all shards stays eligible for commit-time mediation.
    mark(p.atomic, off);
    const uint32_t old = static_cast<uint32_t>(p.data[off]) |
                         (static_cast<uint32_t>(p.data[off + 1]) << 8) |
                         (static_cast<uint32_t>(p.data[off + 2]) << 16) |
                         (static_cast<uint32_t>(p.data[off + 3]) << 24);
    const uint32_t next = amoApply(op, old, operand);
    p.data[off] = static_cast<uint8_t>(next);
    p.data[off + 1] = static_cast<uint8_t>(next >> 8);
    p.data[off + 2] = static_cast<uint8_t>(next >> 16);
    p.data[off + 3] = static_cast<uint8_t>(next >> 24);
    const uint32_t wi = off >> 2;
    p.tag[wi >> 6] &= ~(uint64_t{1} << (wi & 63));
    amoLog_.push_back(AmoRec{addr, operand, op, result_used});
    return old;
}

void
MemShard::markWords(uint32_t first, uint32_t last, bool store)
{
    Page &p = page(first);
    const uint32_t w0 = ((first - kDramBase) & (kPageBytes - 1)) >> 2;
    const uint32_t w1 = ((last - kDramBase) & (kPageBytes - 1)) >> 2;
    auto &set = store ? p.dirty : p.read;
    for (uint32_t mw = w0 >> 6; mw <= w1 >> 6; ++mw) {
        const uint32_t lo = mw == w0 >> 6 ? w0 & 63 : 0;
        const uint32_t hi = mw == w1 >> 6 ? w1 & 63 : 63;
        const uint64_t bits =
            (~uint64_t{0} >> (63 - hi)) & (~uint64_t{0} << lo);
        set[mw] |= bits;
        if (store)
            p.tag[mw] &= ~bits;
    }
}

void
MemShard::reset()
{
    for (const uint32_t pi : touched_)
        map_[pi] = -1;
    touched_.clear();
    pages_.clear();
    amoLog_.clear();
}

MemorySystem::MemorySystem(unsigned num_shards)
{
    shards_.reserve(num_shards);
    for (unsigned i = 0; i < num_shards; ++i)
        shards_.push_back(std::make_unique<MemShard>(base_));
}

void
MemorySystem::beginEpoch()
{
    for (auto &shard : shards_)
        shard->reset();
}

MemorySystem::MergeReport
MemorySystem::commitEpoch()
{
    MergeReport report;
    const unsigned ns = numShards();

    // Both passes visit the pages some shard touched, in address order;
    // no other page can hold anything to check or commit.
    std::vector<uint32_t> pages;
    for (const auto &shard : shards_)
        pages.insert(pages.end(), shard->touched_.begin(),
                     shard->touched_.end());
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

    // The shards' private copies of page @p pi (null where untouched);
    // returns how many there are.
    std::vector<const MemShard::Page *> touchers(ns, nullptr);
    auto gather = [&](uint32_t pi) {
        unsigned num_touchers = 0;
        for (unsigned s = 0; s < ns; ++s) {
            const int32_t slot = shards_[s]->map_[pi];
            touchers[s] = slot < 0 ? nullptr : shards_[s]->pages_[slot].get();
            if (touchers[s])
                ++num_touchers;
        }
        return num_touchers;
    };

    // Pass 1: scan for cross-SM conflicts. Nothing is committed unless
    // the whole epoch is conflict-free, so a conflicting parallel run
    // leaves the base memory exactly as it was before the launch.
    //
    // Per word, with R = plainly read, W = plainly written, A = updated
    // atomically (in some shard):
    //   - W in one shard plus any touch (R, W or A) in another: conflict;
    //   - A in one shard plus R in another: conflict (the reader's value
    //     depends on the cross-SM interleaving);
    //   - A in several shards, nowhere W or R: mediated iff every logged
    //     operation on the word is the same order-insensitive kind and
    //     none consumes its result; otherwise conflict.
    for (size_t k = 0; k < pages.size() && !report.conflict; ++k) {
        const uint32_t pi = pages[k];
        if (gather(pi) < 2)
            continue;
        for (uint32_t mw = 0; mw < MemShard::kMaskWords && !report.conflict;
             ++mw) {
            // Fast skip: flag only words where one shard writes or
            // atomically updates while another touches -- read-read
            // sharing (every SM reading the same input buffer) is
            // harmless and must not trigger the per-word scan.
            uint64_t any_touch = 0, any_wa = 0, overlap = 0;
            for (unsigned s = 0; s < ns; ++s) {
                const MemShard::Page *p = touchers[s];
                if (!p)
                    continue;
                const uint64_t touch =
                    p->read[mw] | p->dirty[mw] | p->atomic[mw];
                const uint64_t wa = p->dirty[mw] | p->atomic[mw];
                overlap |= touch & any_wa;
                overlap |= wa & any_touch;
                any_touch |= touch;
                any_wa |= wa;
            }
            if (!overlap)
                continue;
            for (uint32_t b = 0; b < 64; ++b) {
                if (!((overlap >> b) & 1))
                    continue;
                const uint32_t wi = mw * 64 + b;
                const uint32_t addr = kDramBase + pi * MemShard::kPageBytes +
                                      wi * 4;
                unsigned writers = 0, readers = 0, atomics = 0;
                for (unsigned s = 0; s < ns; ++s) {
                    const MemShard::Page *p = touchers[s];
                    if (!p)
                        continue;
                    if ((p->dirty[mw] >> b) & 1)
                        ++writers;
                    if ((p->read[mw] >> b) & 1)
                        ++readers;
                    if ((p->atomic[mw] >> b) & 1)
                        ++atomics;
                }
                const unsigned touches = writers + readers + atomics;
                if (touches < 2)
                    continue;
                if (writers > 0) {
                    report.conflict = true;
                    report.conflictAddr = addr;
                    report.reason = "cross-SM write to a shared word";
                    break;
                }
                if (atomics > 0 && readers > 0) {
                    report.conflict = true;
                    report.conflictAddr = addr;
                    report.reason =
                        "cross-SM plain read of an atomically updated word";
                    break;
                }
                // Atomics only: check the logs for mediability.
                isa::Op kind = isa::Op::ILLEGAL;
                for (unsigned s = 0; s < ns && !report.conflict; ++s) {
                    for (const auto &rec : shards_[s]->amoLog_) {
                        if (rec.addr != addr)
                            continue;
                        if (rec.resultUsed) {
                            report.conflict = true;
                            report.conflictAddr = addr;
                            report.reason =
                                "cross-SM atomic consumes its result";
                            break;
                        }
                        if (!isOrderInsensitive(rec.op)) {
                            report.conflict = true;
                            report.conflictAddr = addr;
                            report.reason =
                                "cross-SM order-sensitive atomic";
                            break;
                        }
                        if (kind == isa::Op::ILLEGAL) {
                            kind = rec.op;
                        } else if (kind != rec.op) {
                            report.conflict = true;
                            report.conflictAddr = addr;
                            report.reason = "cross-SM mixed atomic kinds";
                            break;
                        }
                    }
                }
                if (report.conflict)
                    break;
            }
        }
    }
    if (report.conflict) {
        traceCommit(report);
        return report;
    }

    // Pass 2: commit, in SM index order within each page, pages in
    // address order -- a fixed order independent of host scheduling.
    // Pass 1 guarantees that a plainly written word has a single writer
    // and that an atomic word is neither written nor read by another
    // shard, so every committed word has exactly one source (a shard's
    // page, or the mediator) and the copies below commute.
    report.pagesTouched = pages.size();
    for (const uint32_t pi : pages) {
        gather(pi);
        const uint32_t page_base = kDramBase + pi * MemShard::kPageBytes;
        // Atomic words of one shard (`sole`) commit that shard's local
        // value; those of several (`shared`) are mediated below.
        std::array<uint64_t, MemShard::kMaskWords> seen{}, shared{};
        for (const MemShard::Page *p : touchers) {
            if (!p)
                continue;
            for (uint32_t mw = 0; mw < MemShard::kMaskWords; ++mw) {
                shared[mw] |= seen[mw] & p->atomic[mw];
                seen[mw] |= p->atomic[mw];
            }
        }
        // Each shard's plainly written and sole atomic words: one masked
        // copy of its data and tag words. A word in both sets counts
        // twice in wordsCommitted.
        for (const MemShard::Page *p : touchers) {
            if (!p)
                continue;
            std::array<uint64_t, MemShard::kMaskWords> mask;
            for (uint32_t mw = 0; mw < MemShard::kMaskWords; ++mw) {
                const uint64_t sole = p->atomic[mw] & ~shared[mw];
                mask[mw] = p->dirty[mw] | sole;
                report.wordsCommitted +=
                    std::popcount(p->dirty[mw]) + std::popcount(sole);
            }
            base_.writePage(page_base, p->data.data(), p->tag.data(),
                            mask.data());
        }
        // Shared atomic words: replay every log entry against the base
        // value in (smId, program) order.
        for (uint32_t mw = 0; mw < MemShard::kMaskWords; ++mw) {
            for (uint64_t bits = shared[mw]; bits != 0; bits &= bits - 1) {
                const uint32_t addr =
                    page_base + (mw * 64 + std::countr_zero(bits)) * 4;
                uint32_t v = base_.load32(addr);
                for (unsigned s = 0; s < ns; ++s) {
                    for (const auto &rec : shards_[s]->amoLog_) {
                        if (rec.addr == addr) {
                            v = amoApply(rec.op, v, rec.operand);
                            ++report.amosMediated;
                        }
                    }
                }
                base_.store32(addr, v);
                base_.setWordTag(addr, false);
                ++report.wordsCommitted;
            }
        }
    }
    traceCommit(report);
    return report;
}

void
MemorySystem::traceCommit(const MergeReport &report)
{
    using namespace support::trace;
    if (trace_ == nullptr || !trace_->wants(kCatEpoch))
        return;
    using support::json::Value;
    Event &e = trace_->emit(EventKind::Instant, kCatEpoch,
                            report.conflict ? "merge-conflict"
                                            : "epoch-commit");
    e.args.emplace_back("shards", Value::integer(numShards()));
    if (report.conflict) {
        e.args.emplace_back(
            "addr", Value::str(support::strprintf("0x%08x",
                                                  report.conflictAddr)));
        e.args.emplace_back("reason", Value::str(report.reason));
    } else {
        e.args.emplace_back("words_committed",
                            Value::integer(report.wordsCommitted));
        e.args.emplace_back("amos_mediated",
                            Value::integer(report.amosMediated));
        e.args.emplace_back("pages_touched",
                            Value::integer(report.pagesTouched));
    }
}

} // namespace simt
