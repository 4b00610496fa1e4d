#include "simt/engine.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "isa/encoding.hpp"
#include "simt/alu.hpp"

namespace simt
{
namespace engine
{

namespace
{

using isa::Op;

/** The scalar handler of table op @p O. Inactive lanes keep their old
 *  result_ values, as the per-lane reference loop never touches them. */
template <Op O>
void
laneLoop(const AluCtx &c)
{
    const DataDesc &r1 = *c.rs1;
    const DataDesc &r2 = *c.rs2;
    forLanes(c.active, [&](unsigned lane) {
        c.result[lane] = alu::lane(O, r1.at(lane), r2.at(lane), c.imm);
    });
}

/** The scalar handler table, indexed by opcode: laneLoop of each row
 *  of the table, nullptr for every other op. */
template <size_t... I>
constexpr std::array<AluLoopFn, sizeof...(I)>
scalarTable(std::index_sequence<I...>)
{
    return {(alu::covers(static_cast<Op>(I)) ? &laneLoop<static_cast<Op>(I)>
                                             : nullptr)...};
}

constexpr auto kScalarHandlers = scalarTable(
    std::make_index_sequence<static_cast<size_t>(Op::NUM_OPS)>{});

bool
envForcesScalar()
{
    const char *v = std::getenv("CHERI_SIMT_FORCE_SCALAR");
    if (!v || !*v)
        return false;
    return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
           std::strcmp(v, "OFF") != 0;
}

// ---- Packed memory lanes: the portable scalar backend ----
//
// Byte assembly is written out little-endian exactly like
// MemShard::load32/store32, so these loops are bit-identical to the
// per-lane loadValue/storeValue reference on any host endianness.

inline const uint8_t *
lanePtr(const MemCtx &c, unsigned lane)
{
    return c.ram +
           (c.addr0 + static_cast<uint32_t>(c.stride) * lane);
}

inline uint8_t *
lanePtrMut(const MemCtx &c, unsigned lane)
{
    return c.ram +
           (c.addr0 + static_cast<uint32_t>(c.stride) * lane);
}

template <typename F>
void
scalarMemLoadLoop(const MemCtx &c, F f)
{
    forLanes(c.active,
             [&](unsigned lane) { c.result[lane] = f(lanePtr(c, lane)); });
}

template <typename F>
void
scalarMemStoreLoop(const MemCtx &c, F f)
{
    forLanes(c.active, [&](unsigned lane) {
        f(lanePtrMut(c, lane), c.rs2->at(lane));
    });
}

#define MEM_LOAD_HANDLER(expr)                                            \
    +[](const MemCtx &c) {                                                \
        scalarMemLoadLoop(c, [](const uint8_t *p) -> uint32_t             \
                          { return (expr); });                            \
    }
#define MEM_STORE_HANDLER(body)                                           \
    +[](const MemCtx &c) {                                                \
        scalarMemStoreLoop(c, [](uint8_t *p, uint32_t v) { body });       \
    }

MemLoopFn
scalarMemHandler(Op op)
{
    switch (op) {
      case Op::LW:
        return MEM_LOAD_HANDLER(
            static_cast<uint32_t>(p[0]) |
            (static_cast<uint32_t>(p[1]) << 8) |
            (static_cast<uint32_t>(p[2]) << 16) |
            (static_cast<uint32_t>(p[3]) << 24));
      case Op::LHU:
        return MEM_LOAD_HANDLER(static_cast<uint32_t>(p[0]) |
                                (static_cast<uint32_t>(p[1]) << 8));
      case Op::LH:
        return MEM_LOAD_HANDLER(static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int16_t>(static_cast<uint16_t>(
                p[0] | (p[1] << 8))))));
      case Op::LBU:
        return MEM_LOAD_HANDLER(static_cast<uint32_t>(p[0]));
      case Op::LB:
        return MEM_LOAD_HANDLER(static_cast<uint32_t>(
            static_cast<int32_t>(static_cast<int8_t>(p[0]))));
      case Op::SW:
        return MEM_STORE_HANDLER({
            p[0] = static_cast<uint8_t>(v);
            p[1] = static_cast<uint8_t>(v >> 8);
            p[2] = static_cast<uint8_t>(v >> 16);
            p[3] = static_cast<uint8_t>(v >> 24);
        });
      case Op::SH:
        return MEM_STORE_HANDLER({
            p[0] = static_cast<uint8_t>(v);
            p[1] = static_cast<uint8_t>(v >> 8);
        });
      case Op::SB:
        return MEM_STORE_HANDLER({ p[0] = static_cast<uint8_t>(v); });
      default:
        return nullptr;
    }
}

#undef MEM_LOAD_HANDLER
#undef MEM_STORE_HANDLER

// ---- Superinstruction fusion: idiom classification ----

bool
isPlainLoad(Op op)
{
    switch (op) {
      case Op::LB: case Op::LH: case Op::LW: case Op::LBU: case Op::LHU:
        return true;
      default:
        return false;
    }
}

bool
isPlainStore(Op op)
{
    return op == Op::SB || op == Op::SH || op == Op::SW;
}

/** Ops that commonly materialise a lane address (or a stored value)
 *  one instruction before the access consuming it. */
bool
isAddrGen(Op op)
{
    switch (op) {
      case Op::ADD: case Op::ADDI: case Op::SUB: case Op::SLLI:
      case Op::CINCOFFSET: case Op::CINCOFFSETIMM:
        return true;
      default:
        return false;
    }
}

bool
isCompare(Op op)
{
    return op == Op::SLT || op == Op::SLTU || op == Op::SLTI ||
           op == Op::SLTIU;
}

bool
isCondBranch(Op op)
{
    switch (op) {
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
        return true;
      default:
        return false;
    }
}

/** Does @p in consume register @p r through a source it actually
 *  reads? */
bool
consumes(const isa::Instr &in, uint8_t r)
{
    return (isa::usesRs1(in.op) && in.rs1 == r) ||
           (isa::usesRs2(in.op) && in.rs2 == r);
}

/**
 * The fusion pass: a greedy forward scan recognising the hot 2-4
 * instruction idioms and annotating their members. Pure function of
 * the instruction list (and the latched fusionSelected() gate), so the
 * fused program is identical across repeats, SM counts and processes
 * with the same environment.
 */
void
fuseProgram(DecodedProgram &p)
{
    const size_t n = p.instrs.size();
    p.memLoop.assign(n, nullptr);
    p.fusedId.assign(n, 0);
    p.fusedKind.assign(n, 0);
    p.fusedLen.assign(n, 0);
    if (!fusionSelected())
        return;

    uint32_t next_id = 1;
    size_t i = 0;
    while (i < n) {
        const isa::Instr &a = p.instrs[i];
        size_t len = 0;
        FusedKind kind = FusedKind::None;

        const auto have = [&](size_t k) { return i + k < n; };
        const auto at = [&](size_t k) -> const isa::Instr & {
            return p.instrs[i + k];
        };

        if (have(1) && isCompare(a.op) && a.rd != 0 &&
            isCondBranch(at(1).op) &&
            (at(1).rs1 == a.rd || at(1).rs2 == a.rd)) {
            kind = FusedKind::CmpBranch;
            len = 2;
        } else if (have(1) && isAddrGen(a.op) && a.rd != 0 &&
                   isPlainLoad(at(1).op) && at(1).rs1 == a.rd) {
            kind = FusedKind::AddrGenLoad;
            len = 2;
            // Extend through ALU ops consuming the loaded value (and
            // then that result), up to the 4-instruction ceiling. A
            // trailing store of the chain's result also joins (the
            // `out[i] = f(in[i])` idiom), so its packed handler is
            // installed.
            if (have(2) && at(1).rd != 0 && alu::packed(at(2).op) &&
                consumes(at(2), at(1).rd)) {
                len = 3;
                if (have(3) && at(2).rd != 0 &&
                    alu::packed(at(3).op) &&
                    consumes(at(3), at(2).rd))
                    len = 4;
                else if (have(3) && at(2).rd != 0 &&
                         isPlainStore(at(3).op) && at(3).rs2 == at(2).rd)
                    len = 4;
            }
        } else if (have(1) && isAddrGen(a.op) && a.rd != 0 &&
                   isPlainStore(at(1).op) &&
                   (at(1).rs1 == a.rd || at(1).rs2 == a.rd)) {
            kind = FusedKind::AddrGenStore;
            len = 2;
        } else if (isPlainLoad(a.op) && a.rd != 0) {
            if (have(2) && isPlainLoad(at(1).op) && at(1).rd != 0 &&
                alu::packed(at(2).op) && consumes(at(2), a.rd) &&
                consumes(at(2), at(1).rd)) {
                // Two loads feeding one ALU op (the a[i] OP b[i] idiom).
                kind = FusedKind::LoadAlu;
                len = 3;
            } else if (have(1) && alu::packed(at(1).op) &&
                       consumes(at(1), a.rd)) {
                kind = FusedKind::LoadAlu;
                len = 2;
                if (have(2) && at(1).rd != 0 &&
                    alu::packed(at(2).op) &&
                    consumes(at(2), at(1).rd))
                    len = 3;
                else if (have(2) && at(1).rd != 0 &&
                         isPlainStore(at(2).op) && at(2).rs2 == at(1).rd)
                    len = 3;
            } else if (have(1) && isPlainStore(at(1).op) &&
                       at(1).rs2 == a.rd) {
                kind = FusedKind::LoadStore;
                len = 2;
            }
        }

        if (len == 0) {
            ++i;
            continue;
        }
        p.fusedKind[i] = static_cast<uint8_t>(kind);
        p.fusedLen[i] = static_cast<uint8_t>(len);
        for (size_t k = i; k < i + len; ++k) {
            p.fusedId[k] = next_id;
            const Op op = p.instrs[k].op;
            if (isPlainLoad(op) || isPlainStore(op))
                p.memLoop[k] = packedMemHandler(op);
        }
        ++next_id;
        i += len;
    }
}

// Decoded-program cache, keyed by the image words (see sharedProgram).
std::mutex g_decode_cache_mutex;
std::map<std::vector<uint32_t>, std::shared_ptr<const DecodedProgram>>
    g_decode_cache;

} // namespace

#ifndef CHERI_SIMT_HAVE_AVX2
// Forced-scalar / non-AVX2 builds: no vectorised handlers exist, so the
// accelerated engine runs the scalar handlers (still bit-identical).
AluLoopFn
avx2AluHandler(Op)
{
    return nullptr;
}

MemLoopFn
avx2MemHandler(Op)
{
    return nullptr;
}
#endif

bool
avx2Compiled()
{
#ifdef CHERI_SIMT_HAVE_AVX2
    return true;
#else
    return false;
#endif
}

bool
avx2Selected()
{
    static const bool selected = [] {
        if (!avx2Compiled() || envForcesScalar())
            return false;
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }();
    return selected;
}

AluLoopFn
aluLoopHandler(Op op)
{
    return kScalarHandlers[static_cast<size_t>(op)];
}

AluLoopFn
packedAluHandler(Op op)
{
    if (avx2Selected()) {
        if (AluLoopFn fn = avx2AluHandler(op))
            return fn;
    }
    return aluLoopHandler(op);
}

bool
fusionSelected()
{
    static const bool selected = !envForcesScalar();
    return selected;
}

MemLoopFn
packedMemHandler(Op op)
{
    if (avx2Selected()) {
        if (MemLoopFn fn = avx2MemHandler(op))
            return fn;
    }
    return scalarMemHandler(op);
}

DecodedProgram
decodeProgram(const std::vector<uint32_t> &words)
{
    DecodedProgram p;
    p.instrs.resize(words.size());
    p.aluLoop.resize(words.size(), nullptr);
    for (size_t i = 0; i < words.size(); ++i) {
        p.instrs[i] = isa::decode(words[i]);
        p.aluLoop[i] = packedAluHandler(p.instrs[i].op);
    }
    fuseProgram(p);
    return p;
}

FusionSummary
fusionSummary(const DecodedProgram &p)
{
    FusionSummary s;
    for (size_t i = 0; i < p.fusedId.size(); ++i) {
        if (p.fusedLen[i] != 0)
            ++s.blocks;
        if (p.fusedId[i] != 0)
            ++s.fusedInstrs;
    }
    return s;
}

std::shared_ptr<const DecodedProgram>
sharedProgram(const std::vector<uint32_t> &words)
{
    std::lock_guard<std::mutex> lock(g_decode_cache_mutex);
    auto &slot = g_decode_cache[words];
    if (!slot)
        slot = std::make_shared<const DecodedProgram>(decodeProgram(words));
    return slot;
}

void
clearEngineDecisions()
{
    std::lock_guard<std::mutex> lock(g_decode_cache_mutex);
    g_decode_cache.clear();
}

} // namespace engine
} // namespace simt
