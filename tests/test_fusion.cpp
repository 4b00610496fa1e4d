/**
 * @file
 * Superinstruction-fusion and packed-memory-lane proofs (DESIGN.md
 * section 12):
 *
 *  - the fusion pass is a pure function of the instruction words, so
 *    repeated decodes of one program produce identical annotations
 *    (block ids, kinds, lengths and installed memory handlers);
 *  - CHERI_SIMT_FORCE_SCALAR disables fusion entirely (the ctest env
 *    leg re-runs this binary with the variable set, and the assertions
 *    flip accordingly);
 *  - packed gather/scatter keeps exact trap parity at capability
 *    boundaries: accesses at base-1, exactly at top, past top, with a
 *    misaligned address, with an aligned range straddling top, with a
 *    negative stride and under a partial warp must produce the same
 *    first trap (warp, lane, pc, address, kind), cycle count, modelled
 *    counters and memory image as the reference (per-lane) engine;
 *    -- through 1-SM plain, 2-SM plain and 1-SM stepped launches, so on
 *    every path the packed lanes run over shard pages, and across a
 *    page boundary, where they give way to the per-lane loop;
 *  - the same boundary behaviour holds through the nocl launch layer at
 *    1, 2 and 4 SMs under both engines;
 *  - multi-SM and stepped launches take the packed lanes, and their
 *    word marks are exact: two SMs storing interleaved words of one
 *    page commit without a merge fallback.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "kc/asm.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/engine.hpp"
#include "simt/sm.hpp"

namespace
{

using isa::Op;
using kc::Assembler;
using Mode = kc::CompileOptions::Mode;

bool
forcedScalar()
{
    const char *env = std::getenv("CHERI_SIMT_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** A program exercising every fused idiom: addr-gen+load (+ALU tail),
 *  load+load+ALU, compare+branch, addr-gen+store and load+store. */
std::vector<uint32_t>
fusibleProgram()
{
    Assembler a;
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 9, 9, 2);       // addr-gen...
    a.emitR(Op::CINCOFFSET, 8, 7, 9); // ...pair head
    a.emitI(Op::LW, 10, 8, 0);        // AddrGenLoad member
    a.emitI(Op::ADDI, 10, 10, 1);     // ALU tail consuming the load
    a.emit(Op::SW, 0, 8, 10, 0);      // store after the ALU tail
    a.emitI(Op::SLTI, 11, 9, 32);     // compare...
    const kc::Label done = a.newLabel();
    a.emitBranch(Op::BNE, 11, 0, done); // ...+branch pair
    a.place(done);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    return a.finalize();
}

TEST(FusionCache, AnnotationsAreDeterministicAcrossDecodes)
{
    const std::vector<uint32_t> words = fusibleProgram();
    const simt::engine::DecodedProgram p1 =
        simt::engine::decodeProgram(words);
    const simt::engine::DecodedProgram p2 =
        simt::engine::decodeProgram(words);

    ASSERT_EQ(p1.size(), p2.size());
    EXPECT_EQ(p1.fusedId, p2.fusedId);
    EXPECT_EQ(p1.fusedKind, p2.fusedKind);
    EXPECT_EQ(p1.fusedLen, p2.fusedLen);
    EXPECT_EQ(p1.memLoop, p2.memLoop);
    EXPECT_EQ(p1.aluLoop, p2.aluLoop);

    const simt::engine::FusionSummary s1 =
        simt::engine::fusionSummary(p1);
    const simt::engine::FusionSummary s2 =
        simt::engine::fusionSummary(p2);
    EXPECT_EQ(s1.blocks, s2.blocks);
    EXPECT_EQ(s1.fusedInstrs, s2.fusedInstrs);
}

TEST(FusionCache, ForceScalarDisablesFusion)
{
    const simt::engine::DecodedProgram p =
        simt::engine::decodeProgram(fusibleProgram());
    const simt::engine::FusionSummary s = simt::engine::fusionSummary(p);

    if (forcedScalar()) {
        // The env leg: no blocks form and no packed memory handler is
        // installed anywhere, so the accelerated engine runs the exact
        // unfused dispatch.
        EXPECT_EQ(s.blocks, 0u);
        EXPECT_EQ(s.fusedInstrs, 0u);
        for (size_t i = 0; i < p.size(); ++i) {
            EXPECT_EQ(p.fusedId[i], 0u) << "instr " << i;
            EXPECT_EQ(p.memLoop[i], nullptr) << "instr " << i;
        }
    } else {
        // The known idioms must fuse: the CINCOFFSET+LW+ADDI head run
        // and the SLTI+BNE pair at minimum.
        EXPECT_GE(s.blocks, 2u);
        EXPECT_GT(s.fusedInstrs, 0u);
        bool any_mem_handler = false;
        for (size_t i = 0; i < p.size(); ++i)
            any_mem_handler = any_mem_handler || p.memLoop[i] != nullptr;
        EXPECT_TRUE(any_mem_handler)
            << "no packed memory handler installed in any fused block";
    }
}

// ---- Packed gather/scatter boundary parity ----
//
// Hand-assembled purecap programs: a 64-byte (or deliberately smaller)
// capability window over DRAM, per-lane addresses formed by CINCOFFSET
// immediately before the access (so the pair fuses and the packed
// memory handler is eligible), and boundary geometry chosen per case.
// Each SM gets its own window, 8 KiB past the previous SM's, and
// SM-local thread ids, so every SM sees the same geometry. Both engines
// must produce identical architectural outcomes under every launch
// kind.

struct MemCase
{
    const char *name;
    Op access;       ///< LW/LBU/SW/SH/SB
    unsigned window; ///< CSETBOUNDS length in bytes
    int imm;         ///< access displacement
    bool negative;   ///< lane offsets descend from 28 instead of rising
    int partial;     ///< 0 = full warp, 1 = odd lanes only, 2 = even only
    simt::TrapKind expect; ///< expected first-trap kind (None = clean)
    uint32_t at;     ///< window offset from kDramBase
};

const MemCase kMemCases[] = {
    {"affine_store_in_bounds", Op::SW, 64, 0, false, 0,
     simt::TrapKind::None, 0},
    {"affine_load_in_bounds", Op::LW, 64, 0, false, 0,
     simt::TrapKind::None, 0},
    {"store_at_top", Op::SB, 64, 4, false, 0,
     simt::TrapKind::BoundsViolation, 0},
    {"load_past_top", Op::LW, 64, 4, false, 0,
     simt::TrapKind::BoundsViolation, 0},
    {"store_straddles_top_aligned", Op::SW, 62, 0, false, 0,
     simt::TrapKind::BoundsViolation, 0},
    {"store_at_base_minus_one", Op::SB, 64, -1, false, 0,
     simt::TrapKind::BoundsViolation, 0},
    {"load_at_base_minus_one", Op::LBU, 64, -1, false, 0,
     simt::TrapKind::BoundsViolation, 0},
    {"store_misaligned_word", Op::SW, 64, 2, false, 0,
     simt::TrapKind::MisalignedAccess, 0},
    {"store_negative_stride_under_base", Op::SW, 64, 0, true, 0,
     simt::TrapKind::BoundsViolation, 0},
    {"partial_odd_boundary_lane_active", Op::LW, 64, 4, false, 1,
     simt::TrapKind::BoundsViolation, 0},
    {"partial_even_boundary_lane_inactive", Op::LW, 64, 4, false, 2,
     simt::TrapKind::None, 0},
    // Warp 0's lanes straddle a page boundary (per-lane loop), warp 1's
    // lie in the next page (packed lanes).
    {"store_straddles_page", Op::SW, 64, 0, false, 0,
     simt::TrapKind::None, 0xff0},
};

/** How a boundary case is launched. */
enum class Launch
{
    Plain1,  ///< plain launch, one SM
    Plain2,  ///< plain launch, two SMs
    Stepped1 ///< stepped launch, one SM
};

struct MemRun
{
    MemCase mc;
    Launch launch;
};

std::vector<MemRun>
memRuns()
{
    std::vector<MemRun> runs;
    for (const Launch l : {Launch::Plain1, Launch::Plain2, Launch::Stepped1})
        for (const MemCase &mc : kMemCases)
            runs.push_back(MemRun{mc, l});
    return runs;
}

/** The case name, suffixed by the launch kind unless it is a 1-SM
 *  plain launch. */
std::string
runName(const MemRun &r)
{
    static const char *const kSuffix[] = {"", "_sms2", "_stepped"};
    return r.mc.name + std::string(kSuffix[static_cast<int>(r.launch)]);
}

/** gtest prints a parameter into the ctest name; without this it would
 *  dump MemCase's bytes, including the name pointer, which differ
 *  between build types and checkout paths. */
void
PrintTo(const MemRun &r, std::ostream *os)
{
    *os << runName(r);
}

/** Load @p addr into @p rd: LUI, then ADDI for the low 12 bits. */
void
emitAddr(Assembler &a, uint8_t rd, uint32_t addr)
{
    const uint32_t hi = (addr + 0x800) & ~0xfffu;
    a.emitI(Op::LUI, rd, 0, static_cast<int32_t>(hi));
    if (addr != hi)
        a.emitI(Op::ADDI, rd, rd, static_cast<int32_t>(addr - hi));
}

/** r9 = SM-local thread id (affine), r11 = the SM's first global
 *  thread id (uniform). */
void
emitThreadIds(Assembler &a)
{
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_WARPID);
    a.emitI(Op::SLLI, 9, 9, 3); // 8 lanes per warp
    a.emitI(Op::CSRRS, 10, 0, isa::CSR_LANEID);
    a.emitR(Op::ADD, 9, 9, 10);
    a.emitI(Op::CSRRS, 11, 0, isa::CSR_HARTID);
    a.emitR(Op::SUB, 11, 11, 9);
}

void
emitMemCase(Assembler &a, const MemCase &mc)
{
    emitThreadIds(a);
    a.emitI(Op::SLLI, 11, 11, 9); // 16 threads per SM: 8 KiB per SM
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    emitAddr(a, 6, simt::kDramBase + mc.at);
    a.emitR(Op::ADD, 6, 6, 11);
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, static_cast<int32_t>(mc.window));
    a.emitR(Op::CSETBOUNDS, 7, 7, 8);
    a.emitI(Op::SLLI, 9, 9, 2); // thread id * 4
    if (mc.negative) {
        a.emitI(Op::ADDI, 11, 0, 28);
        a.emitR(Op::SUB, 9, 11, 9); // offsets 28, 24, ... then negative
    }

    const auto emit_access = [&]() {
        a.emitR(Op::CINCOFFSET, 7, 7, 9); // fuses with the access below
        if (mc.access == Op::SW || mc.access == Op::SH ||
            mc.access == Op::SB)
            a.emit(mc.access, 0, 7, 9, mc.imm);
        else
            a.emitI(mc.access, 10, 7, mc.imm);
    };

    if (mc.partial != 0) {
        a.emitI(Op::CSRRS, 12, 0, isa::CSR_HARTID);
        a.emitI(Op::ANDI, 12, 12, 1);
        const kc::Label skip = a.newLabel();
        a.emit(Op::SIMT_PUSH, 0, 0, 0);
        // partial == 1: odd lanes access; partial == 2: even lanes.
        if (mc.partial == 1)
            a.emitBranch(Op::BEQ, 12, 0, skip);
        else
            a.emitBranch(Op::BNE, 12, 0, skip);
        emit_access();
        a.place(skip);
        a.emit(Op::SIMT_POP, 0, 0, 0);
    } else {
        emit_access();
    }
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

struct MemOutcome
{
    bool ok = false;
    bool trapped = false;
    simt::TrapInfo trap;
    uint64_t cycles = 0;
    uint64_t dramHash = 0;
    std::map<std::string, uint64_t> stats;
};

/** A device of @p sms SMs with 2 warps of 8 lanes each. */
simt::SmConfig
tinyCheri(unsigned sms, bool host_fast_path = true)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 2;
    cfg.numLanes = 8;
    cfg.numSms = sms;
    cfg.hostFastPath = host_fast_path;
    return cfg;
}

/** Launch a hand-assembled program as one 16-thread block per SM. */
nocl::RunResult
launchAssembled(nocl::Device &dev, Assembler &a, bool stepped)
{
    auto kernel = std::make_shared<kc::CompiledKernel>();
    kernel->name = "assembled";
    kernel->code = a.finalize();
    nocl::LaunchConfig lc;
    lc.blockDim = 16;
    if (stepped)
        return dev.beginStepped(kernel, lc, {})
            ->finish(nocl::LaunchPolicy{}.maxCycles);
    return dev.launchCompiled(kernel, lc, {});
}

MemOutcome
runMemCase(const MemRun &run, bool host_fast_path)
{
    nocl::Device dev(
        tinyCheri(run.launch == Launch::Plain2 ? 2 : 1, host_fast_path),
        Mode::Purecap);
    Assembler a;
    emitMemCase(a, run.mc);
    // 16 threads per SM: warp 1 reaches past the window.
    const nocl::RunResult r =
        launchAssembled(dev, a, run.launch == Launch::Stepped1);

    MemOutcome o;
    o.ok = r.completed;
    o.trapped = r.trapped;
    o.trap = r.trapInfo;
    o.cycles = r.cycles;
    o.dramHash = dev.dram().contentHash();
    for (const auto &[name, value] : r.stats.all())
        if (name.rfind("simhost_", 0) != 0)
            o.stats.emplace(name, value);
    return o;
}

class PackedMemBoundary : public ::testing::TestWithParam<MemRun>
{
};

TEST_P(PackedMemBoundary, TrapParityAcrossEngines)
{
    const MemCase &mc = GetParam().mc;
    const MemOutcome ref = runMemCase(GetParam(), false);
    const MemOutcome got = runMemCase(GetParam(), true);

    EXPECT_EQ(ref.trapped, mc.expect != simt::TrapKind::None);
    if (ref.trapped) {
        EXPECT_EQ(ref.trap.kind, mc.expect);
    }

    EXPECT_EQ(got.ok, ref.ok);
    EXPECT_EQ(got.trapped, ref.trapped);
    EXPECT_EQ(got.trap.trapped, ref.trap.trapped);
    EXPECT_EQ(got.trap.warp, ref.trap.warp);
    EXPECT_EQ(got.trap.lane, ref.trap.lane);
    EXPECT_EQ(got.trap.pc, ref.trap.pc);
    EXPECT_EQ(got.trap.addr, ref.trap.addr);
    EXPECT_EQ(got.trap.kind, ref.trap.kind);
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.dramHash, ref.dramHash);
    EXPECT_EQ(got.stats, ref.stats);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, PackedMemBoundary,
                         ::testing::ValuesIn(memRuns()),
                         [](const auto &info) {
                             return runName(info.param);
                         });

// ---- Packed lanes through shard pages ----

/** simhost_packed_mem_instrs of a completed, verified Small VecAdd. */
uint64_t
vecAddPackedSteps(unsigned sms, bool stepped)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numSms = sms;
    nocl::Device dev(cfg, Mode::Purecap);
    auto bench = kernels::makeBenchmark("VecAdd");
    const kernels::Prepared p = bench->prepare(dev, kernels::Size::Small);
    const auto compiled = dev.compileCached(*p.kernel, p.cfg);
    const nocl::RunResult r =
        stepped ? dev.beginStepped(compiled, p.cfg, p.args)
                      ->finish(nocl::LaunchPolicy{}.maxCycles)
                : dev.launchCompiled(compiled, p.cfg, p.args);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(p.verify(dev));
    return r.stats.get("simhost_packed_mem_instrs");
}

TEST(PackedMemShards, MultiSmAndSteppedLaunchesTakePackedLanes)
{
    // Every SM runs on its shard, so the packed lanes serve multi-SM
    // and stepped launches too. Only the env leg turns them off (no
    // fusion, so no packed handler is installed).
    EXPECT_EQ(vecAddPackedSteps(2, false) > 0, !forcedScalar());
    EXPECT_EQ(vecAddPackedSteps(1, true) > 0, !forcedScalar());
}

TEST(PackedMemShards, InterleavedStride8StoresCommitWithoutFallback)
{
    // SM 0 stores the even words and SM 1 the odd words of one page,
    // with stride 8 through packed lanes. Marking a lane span as one
    // run of words would claim the other SM's words: a false cross-SM
    // conflict and a serial rerun.
    constexpr uint32_t kPage = simt::kDramBase + 0x4000;
    nocl::Device dev(tinyCheri(2), Mode::Purecap);
    Assembler a;
    emitThreadIds(a);
    a.emitI(Op::SRLI, 11, 11, 2); // SM 1 starts one word in
    a.emitI(Op::SLLI, 9, 9, 3);   // 8 bytes per thread
    a.emitR(Op::ADD, 9, 9, 11);
    a.emitI(Op::ADDI, 12, 9, 1); // stored value: offset + 1
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    emitAddr(a, 6, kPage);
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitR(Op::CINCOFFSET, 7, 7, 9); // fuses with the store
    a.emit(Op::SW, 0, 7, 12, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
    const nocl::RunResult r = launchAssembled(dev, a, false);

    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.trapped);
    EXPECT_FALSE(r.mergeFallback) << r.mergeFallbackReason;
    EXPECT_EQ(r.stats.get("simhost_packed_mem_instrs") > 0,
              !forcedScalar());
    for (uint32_t w = 0; w < 32; ++w)
        EXPECT_EQ(dev.dram().load32(kPage + 4 * w), 4 * w + 1) << w;
}

// ---- Multi-SM boundary parity through the launch layer ----
//
// A copy kernel whose read index is shifted off the buffer edge; the
// parameter capability's bounds catch the first/last thread. The same
// outcome must hold under both engines at 1, 2 and 4 SMs.

struct EdgeCopyKernel : kc::KernelDef
{
    int off;
    explicit EdgeCopyKernel(int off) : off(off) {}

    std::string
    name() const override
    {
        return "FusionEdgeCopy" + std::to_string(off);
    }

    void
    build(kc::Kb &b) override
    {
        auto in = b.paramPtr("in", kc::Scalar::U32);
        auto out = b.paramPtr("out", kc::Scalar::U32);
        auto i = b.var(b.blockIdx() * b.blockDim() + b.threadIdx());
        out[i] = in[i + b.c(off)];
    }
};

TEST(PackedMemBoundaryMultiSm, EdgeShiftParityAcrossEnginesAndSms)
{
    constexpr unsigned kElems = 256;
    for (const int off : {0, 1, -1}) {
        std::string ref_key;
        nocl::RunResult ref;
        std::vector<uint32_t> ref_out;
        bool have_ref = false;
        for (const unsigned sms : {1u, 2u, 4u}) {
            for (const bool fast : {false, true}) {
                simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
                cfg.numSms = sms;
                cfg.hostFastPath = fast;
                nocl::Device dev(cfg, Mode::Purecap);

                nocl::Buffer in = dev.alloc(kElems * 4);
                nocl::Buffer out = dev.alloc(kElems * 4);
                std::vector<uint32_t> src(kElems);
                for (unsigned i = 0; i < kElems; ++i)
                    src[i] = 0x5eed0000u + i;
                dev.write32(in, src);

                EdgeCopyKernel k(off);
                nocl::LaunchConfig lc;
                lc.blockDim = 32;
                lc.gridDim = kElems / 32;
                const nocl::RunResult res = dev.launch(
                    k, lc,
                    {nocl::Arg::buffer(in), nocl::Arg::buffer(out)});
                const std::vector<uint32_t> got = dev.read32(out);

                const std::string key = std::string("off ") +
                                        std::to_string(off) + " sms " +
                                        std::to_string(sms);
                if (off == 0) {
                    EXPECT_TRUE(res.completed) << key;
                    EXPECT_FALSE(res.trapped) << key;
                    EXPECT_EQ(got, src) << key;
                } else {
                    EXPECT_TRUE(res.trapped) << key;
                }
                if (!have_ref) {
                    ref = res;
                    ref_out = got;
                    ref_key = key;
                    have_ref = true;
                } else {
                    // Cycles are only comparable at equal SM counts, so
                    // anchor on the universal outcomes.
                    EXPECT_EQ(res.completed, ref.completed)
                        << key << " vs " << ref_key;
                    EXPECT_EQ(res.trapped, ref.trapped)
                        << key << " vs " << ref_key;
                    EXPECT_EQ(res.trapKind, ref.trapKind)
                        << key << " vs " << ref_key;
                    EXPECT_EQ(got, ref_out) << key << " vs " << ref_key;
                }
            }
        }
    }
}

} // namespace
