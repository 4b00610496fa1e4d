/**
 * @file
 * Bit-identity proof for the execute layer (DESIGN.md section 10):
 * every benchmark of the suite, under every configuration, is simulated
 * on the reference engine (hostFastPath = false, the per-lane
 * interpreter) and on the accelerated engine (warp-regularity fast
 * paths, threaded packed/scalar ALU dispatch, packed memory lanes), and
 * every architecturally visible outcome must match the reference run
 * exactly: cycle count, every modelled perf counter, result buffers
 * (verified output plus whole-memory content hashes), and the
 * first-trap record. Only the "simhost_*" throughput counters, which
 * describe the host simulation itself, are allowed to differ between
 * the engines -- and they must not differ between a cold first launch
 * and a warm repeat on the same engine.
 *
 * The same build runs this matrix with the packed handlers on whichever
 * backend CMake selected (AVX2 or portable scalar); the simd-labelled
 * ctest leg additionally forces the scalar backend via
 * CHERI_SIMT_FORCE_SCALAR, so both backends are proven against the same
 * reference.
 *
 * BlkStencil is the adversarial case (divergent control flow and
 * per-lane capability metadata); dedicated trap tests cover partial-warp
 * faults where only some lanes of a warp go out of bounds, including a
 * fault raised inside a divergent block after handler-dispatched ALU
 * work, and baseline affine accesses whose every lane is misaligned.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "kc/asm.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/alu.hpp"
#include "simt/engine.hpp"
#include "simt/sm.hpp"

namespace
{

using isa::Op;
using kc::Assembler;
using kernels::Prepared;
using kernels::Size;
using Mode = kc::CompileOptions::Mode;

enum class Config
{
    Baseline,
    Cheri,
    CheriOptimised,
    SoftBounds,
};

const char *
configName(Config c)
{
    switch (c) {
      case Config::Baseline: return "Baseline";
      case Config::Cheri: return "Cheri";
      case Config::CheriOptimised: return "CheriOpt";
      default: return "SoftBounds";
    }
}

simt::SmConfig
smConfigOf(Config c)
{
    simt::SmConfig cfg;
    switch (c) {
      case Config::Baseline:
      case Config::SoftBounds:
        cfg = simt::SmConfig::baseline();
        break;
      case Config::Cheri:
        cfg = simt::SmConfig::cheri();
        break;
      case Config::CheriOptimised:
        cfg = simt::SmConfig::cheriOptimised();
        break;
    }
    cfg.numWarps = 16; // 512 threads keeps the Small suite quick
    cfg.vrfCapacity = 16 * 32 * 3 / 8;
    return cfg;
}

Mode
modeOf(Config c)
{
    switch (c) {
      case Config::Cheri:
      case Config::CheriOptimised:
        return Mode::Purecap;
      case Config::SoftBounds:
        return Mode::SoftBounds;
      default:
        return Mode::Baseline;
    }
}

/** Modelled counters only: the simhost_* group reports host-simulation
 *  throughput and is the one legitimate cross-engine difference. */
std::map<std::string, uint64_t>
modelledStats(const support::StatSet &stats)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : stats.all())
        if (name.rfind("simhost_", 0) != 0)
            out.emplace(name, value);
    return out;
}

void
expectSameStats(const support::StatSet &got, const support::StatSet &ref)
{
    const auto g = modelledStats(got);
    const auto r = modelledStats(ref);
    for (const auto &[name, value] : g)
        EXPECT_EQ(value, r.count(name) ? r.at(name) : 0)
            << "counter " << name;
    for (const auto &[name, value] : r)
        EXPECT_TRUE(g.count(name))
            << "counter " << name << " only exists in the reference run";
}

void
expectSameTrap(const simt::TrapInfo &got, const simt::TrapInfo &ref)
{
    EXPECT_EQ(got.trapped, ref.trapped);
    EXPECT_EQ(got.pc, ref.pc);
    EXPECT_EQ(got.addr, ref.addr);
    EXPECT_EQ(got.warp, ref.warp);
    EXPECT_EQ(got.lane, ref.lane);
    EXPECT_EQ(got.op, ref.op);
    EXPECT_EQ(got.kind, ref.kind);
    // The forensic capability: the faulting lane's, at its address.
    EXPECT_EQ(got.hasCap, ref.hasCap);
    EXPECT_EQ(got.capTag, ref.capTag);
    EXPECT_EQ(got.capPerms, ref.capPerms);
    EXPECT_EQ(got.capBase, ref.capBase);
    EXPECT_EQ(got.capTop, ref.capTop);
}

/** Everything architecturally observable about one benchmark run. */
struct Outcome
{
    nocl::RunResult run;
    bool verified = false;
    simt::TrapInfo trap;
    uint64_t dramHash = 0;
    uint64_t scratchpadHash = 0;
};

Outcome
runOnce(const std::string &bench_name, Config c, bool host_fast_path)
{
    auto bench = kernels::makeBenchmark(bench_name);
    EXPECT_NE(bench, nullptr);
    simt::SmConfig cfg = smConfigOf(c);
    cfg.hostFastPath = host_fast_path;
    nocl::Device dev(cfg, modeOf(c));
    Prepared p = bench->prepare(dev, Size::Small);

    Outcome o;
    o.run = dev.launch(*p.kernel, p.cfg, p.args);
    o.verified = p.verify(dev);
    o.trap = dev.sm().firstTrap();
    o.dramHash = dev.dram().contentHash();
    o.scratchpadHash = dev.sm().scratchpad().contentHash();
    return o;
}

void
expectSameOutcome(const Outcome &got, const Outcome &ref)
{
    EXPECT_EQ(got.run.completed, ref.run.completed);
    EXPECT_EQ(got.run.trapped, ref.run.trapped);
    EXPECT_EQ(got.run.cycles, ref.run.cycles);
    EXPECT_EQ(got.verified, ref.verified);
    EXPECT_EQ(got.run.avgDataVrf, ref.run.avgDataVrf);
    EXPECT_EQ(got.run.avgMetaVrf, ref.run.avgMetaVrf);
    EXPECT_EQ(got.run.rfCapRegMask, ref.run.rfCapRegMask);
    EXPECT_EQ(got.dramHash, ref.dramHash);
    EXPECT_EQ(got.scratchpadHash, ref.scratchpadHash);
    expectSameTrap(got.trap, ref.trap);
    expectSameStats(got.run.stats, ref.run.stats);
}

class EngineParity
    : public ::testing::TestWithParam<std::tuple<std::string, Config>>
{
};

// The three ways: the reference engine, the accelerated engine on a
// cold decoded-program cache, and the accelerated engine again on the
// warm cache. Both accelerated runs must match the reference
// architecturally, and each other on every counter, simhost_* included.
TEST_P(EngineParity, ThreeWayBitIdentical)
{
    const auto &[bench_name, config] = GetParam();
    const Outcome reference = runOnce(bench_name, config, false);
    simt::engine::clearEngineDecisions();
    const Outcome cold = runOnce(bench_name, config, true);
    const Outcome warm = runOnce(bench_name, config, true);

    expectSameOutcome(cold, reference);
    expectSameOutcome(warm, reference);
    EXPECT_EQ(warm.run.stats.all(), cold.run.stats.all());

    // The fast paths must actually engage somewhere (any kernel retires
    // at least some fully converged instructions), otherwise this test
    // only proves "off == off".
    EXPECT_GT(reference.run.stats.get("simhost_instrs"), 0u);
    EXPECT_EQ(reference.run.stats.get("simhost_fastpath_instrs"), 0u);
    EXPECT_GT(cold.run.stats.get("simhost_fastpath_instrs"), 0u);
}

std::vector<std::tuple<std::string, Config>>
allCases()
{
    std::vector<std::tuple<std::string, Config>> cases;
    for (const auto &b : kernels::makeSuite()) {
        for (Config c : {Config::Baseline, Config::Cheri,
                         Config::CheriOptimised, Config::SoftBounds}) {
            cases.emplace_back(b->name(), c);
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EngineParity, ::testing::ValuesIn(allCases()),
    [](const auto &info) {
        return std::get<0>(info.param) + std::string("_") +
               configName(std::get<1>(info.param));
    });

// ---- Trap parity ----
//
// Hand-assembled purecap programs where per-lane addresses walk out of a
// 64-byte window mid-warp, so only some lanes fault, and baseline
// programs whose affine lane addresses are all misaligned, so every lane
// takes the containment trap. The accelerated engine must commit exactly
// the same first trap (warp, lane, pc, address, kind), cycles, memory
// and counters as the reference engine.

using Preset = simt::SmConfig (*)();

simt::SmConfig
trapConfig(Preset preset, bool host_fast_path)
{
    simt::SmConfig cfg = preset();
    cfg.numWarps = 2;
    cfg.numLanes = 8;
    cfg.hostFastPath = host_fast_path;
    return cfg;
}

/** Straight-line variant: lane addresses stride past the window, lanes
 *  4+ of warp 0 go out of bounds. */
void
emitStridedTrapProgram(Assembler &a, Op access)
{
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, 64);
    a.emitR(Op::CSETBOUNDS, 7, 7, 8); // 64-byte window
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 9, 9, 4);       // thread id * 16: lanes 4+ go OOB
    a.emitR(Op::CINCOFFSET, 7, 7, 9);
    if (access == Op::LW)
        a.emitI(Op::LW, 10, 7, 0);
    else
        a.emit(Op::SW, 0, 7, 8, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

/** Divergent variant: only the odd lanes enter a branch body, do
 *  handler-dispatched ALU work there, and store through the capability;
 *  lane 5 is the first whose address leaves the window. Proves a trap
 *  raised mid-divergent-block, after engine-dispatched ALU steps under a
 *  partial active mask, is attributed identically by both engines. */
void
emitDivergentTrapProgram(Assembler &a)
{
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, 64);
    a.emitR(Op::CSETBOUNDS, 7, 7, 8); // 64-byte window
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_HARTID);
    a.emitI(Op::ANDI, 10, 9, 1);      // odd lanes take the branch body

    const kc::Label skip = a.newLabel();
    a.emit(Op::SIMT_PUSH, 0, 0, 0);
    a.emitBranch(Op::BEQ, 10, 0, skip);
    a.emitI(Op::SLLI, 9, 9, 4);       // divergent ALU: thread id * 16
    a.emitI(Op::ADDI, 9, 9, 0);       // (both run under a partial mask)
    a.emitR(Op::CINCOFFSET, 7, 7, 9); // odd offsets 16,48,80,112
    a.emit(Op::SW, 0, 7, 8, 0);       // 80 and 112 are past the window
    a.place(skip);
    a.emit(Op::SIMT_POP, 0, 0, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

/** Far variant: every lane loads 2000 bytes past a 64-byte window's
 *  base, so the whole warp faults in one verdict. setAddr to so far an
 *  address is unrepresentable, so the lane's forensic capability loses
 *  its tag and decodes bounds around the faulting address. */
void
emitFarLoadProgram(Assembler &a)
{
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, 64);
    a.emitR(Op::CSETBOUNDS, 7, 7, 8); // 64-byte window
    a.emitI(Op::LW, 10, 7, 2000);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

/**
 * Non-trapping divergent variant: only the odd lanes enter the body, so
 * lane 0 is inactive there, and every even lane's offset register holds
 * an address 1 KiB past the capability's 512-byte window. Over the odd
 * lanes the offsets (thread id * 8) are affine, so the accelerated engine
 * narrows the operands to closed forms and serves the body's cincoffset,
 * lw, sw, csc and clc through them; an inactive lane read by mistake
 * would trap or move other memory.
 */
void
emitDivergentAccessProgram(Assembler &a)
{
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, 512);
    a.emitR(Op::CSETBOUNDS, 7, 7, 8); // 512-byte window
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_HARTID);
    a.emitI(Op::ANDI, 10, 9, 1);      // odd lanes take the branch body
    a.emitI(Op::ADDI, 11, 10, -1);    // even lanes: all ones
    a.emitI(Op::ANDI, 11, 11, 1024);  // even lanes: 1024, odd: 0
    a.emitI(Op::SLLI, 12, 9, 3);
    a.emitR(Op::ADD, 11, 11, 12);     // odd: tid * 8, even: tid * 8 + 1024

    const kc::Label skip = a.newLabel();
    a.emit(Op::SIMT_PUSH, 0, 0, 0);
    a.emitBranch(Op::BEQ, 10, 0, skip);
    a.emitR(Op::CINCOFFSET, 13, 7, 11); // per-lane capability
    a.emitI(Op::LW, 14, 13, 0);
    a.emitI(Op::ADDI, 14, 14, 7);
    a.emit(Op::SW, 0, 13, 14, 4);       // 7 at tid * 8 + 4
    a.emit(Op::CSC, 0, 13, 13, 256);    // the capability at tid * 8 + 256
    a.emitI(Op::CLC, 15, 13, 256);      // reloaded, tag intact
    a.emitI(Op::LW, 16, 15, 4);
    a.emit(Op::SW, 0, 15, 16, 128);     // 7 again at tid * 8 + 128
    a.place(skip);
    a.emit(Op::SIMT_POP, 0, 0, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

/** Baseline variant: lane addresses are kDramBase + 4 * thread id, an
 *  affine warp whose every lane is 2 bytes off word alignment once the
 *  access adds its offset. No capability check applies, so each lane
 *  takes the misaligned-access containment trap. */
void
emitMisalignedProgram(Assembler &a, Op access)
{
    a.emitI(Op::LUI, 3, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 9, 9, 2);
    a.emitR(Op::ADD, 3, 3, 9);
    if (access == Op::LW)
        a.emitI(Op::LW, 4, 3, 2);
    else
        a.emit(Op::SW, 0, 3, 9, 2);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

template <typename EmitFn>
void
runProgram(simt::Sm &sm, EmitFn emit_program)
{
    Assembler a;
    emit_program(a);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 2);
    EXPECT_TRUE(sm.run());
}

/** Run @p emit_program on both engines under @p cfg: the cycles, the
 *  memory, every modelled counter and the first trap must match. The
 *  reference engine's memory and first trap are left in
 *  @p reference_mem and @p reference_trap for the caller's checks. */
template <typename EmitFn>
void
expectProgramParity(simt::SmConfig cfg, EmitFn emit_program,
                    simt::MemorySystem &reference_mem,
                    simt::TrapInfo &reference_trap)
{
    cfg.hostFastPath = false;
    simt::Sm reference(cfg, reference_mem.shard(0));
    runProgram(reference, emit_program);
    reference_trap = reference.firstTrap();

    cfg.hostFastPath = true;
    simt::MemorySystem mem(1);
    simt::Sm sm(cfg, mem.shard(0));
    runProgram(sm, emit_program);
    expectSameTrap(sm.firstTrap(), reference_trap);
    EXPECT_EQ(sm.cycles(), reference.cycles());
    mem.commitEpoch();
    reference_mem.commitEpoch();
    EXPECT_EQ(mem.base().contentHash(), reference_mem.base().contentHash());
    expectSameStats(sm.stats(), reference.stats());
}

template <typename EmitFn>
simt::TrapInfo
expectTrapParity(Preset preset, EmitFn emit_program,
                 simt::TrapKind expect_kind, unsigned expect_lane)
{
    simt::MemorySystem reference_mem(1);
    simt::TrapInfo ref;
    expectProgramParity(trapConfig(preset, false), emit_program,
                        reference_mem, ref);
    EXPECT_TRUE(ref.trapped);
    EXPECT_EQ(ref.kind, expect_kind);
    EXPECT_EQ(ref.warp, 0u);
    EXPECT_EQ(ref.lane, expect_lane);
    return ref;
}

TEST(EngineTrapParity, PartialWarpLoadFault)
{
    expectTrapParity(
        simt::SmConfig::cheriOptimised,
        [](Assembler &a) { emitStridedTrapProgram(a, Op::LW); },
        simt::TrapKind::BoundsViolation, /*expect_lane=*/4);
}

TEST(EngineTrapParity, PartialWarpStoreFault)
{
    expectTrapParity(
        simt::SmConfig::cheriOptimised,
        [](Assembler &a) { emitStridedTrapProgram(a, Op::SW); },
        simt::TrapKind::BoundsViolation, /*expect_lane=*/4);
}

TEST(EngineTrapParity, MidBlockDivergentFault)
{
    expectTrapParity(simt::SmConfig::cheriOptimised,
                     [](Assembler &a) { emitDivergentTrapProgram(a); },
                     simt::TrapKind::BoundsViolation, /*expect_lane=*/5);
}

TEST(EngineTrapParity, FarOutOfBoundsUniformLoad)
{
    const simt::TrapInfo ref = expectTrapParity(
        simt::SmConfig::cheriOptimised,
        [](Assembler &a) { emitFarLoadProgram(a); },
        simt::TrapKind::BoundsViolation, /*expect_lane=*/0);
    EXPECT_EQ(ref.addr, simt::kDramBase + 2000);
    EXPECT_TRUE(ref.hasCap);
    EXPECT_FALSE(ref.capTag);
    EXPECT_EQ(ref.capBase, simt::kDramBase + 0x700);
    EXPECT_EQ(ref.capTop, simt::kDramBase + 0x740);
}

TEST(EngineStepParity, DivergentAccessesThroughNarrowedOperands)
{
    simt::SmConfig no_nvo = simt::SmConfig::cheriOptimised();
    no_nvo.nvo = false; // the partial metadata writes need VRF vectors
    for (const simt::SmConfig &preset :
         {simt::SmConfig::cheriOptimised(), simt::SmConfig::cheri(), no_nvo}) {
        simt::SmConfig cfg = preset;
        cfg.numWarps = 2;
        cfg.numLanes = 8;
        simt::MemorySystem mem(1);
        simt::TrapInfo trap;
        expectProgramParity(
            cfg, [](Assembler &a) { emitDivergentAccessProgram(a); }, mem,
            trap);
        EXPECT_FALSE(trap.trapped);
        // The odd threads' words hold 7; the even threads' stay 0.
        for (uint32_t tid = 0; tid < 16; ++tid) {
            const uint32_t want = tid % 2 ? 7 : 0;
            EXPECT_EQ(mem.base().load32(simt::kDramBase + tid * 8 + 4), want)
                << "thread " << tid;
            EXPECT_EQ(mem.base().load32(simt::kDramBase + tid * 8 + 128),
                      want)
                << "thread " << tid;
        }
    }
}

TEST(EngineTrapParity, BaselineMisalignedAffineLoad)
{
    expectTrapParity(
        simt::SmConfig::baseline,
        [](Assembler &a) { emitMisalignedProgram(a, Op::LW); },
        simt::TrapKind::MisalignedAccess, /*expect_lane=*/0);
}

TEST(EngineTrapParity, BaselineMisalignedAffineStore)
{
    expectTrapParity(
        simt::SmConfig::baseline,
        [](Assembler &a) { emitMisalignedProgram(a, Op::SW); },
        simt::TrapKind::MisalignedAccess, /*expect_lane=*/0);
}

// ---- The ALU semantics table (src/simt/alu.hpp) ----
//
// Both engines compute the trap-free ALU ops through the table's lane
// functions, so the matrix above cannot see a wrong one. These checks
// pin the table itself: known RISC-V answers, the transfer rules against
// the lane functions, and the lane functions against the independent
// AVX2 loops and their own scalar handlers.

namespace alu = simt::alu;
using simt::DataDesc;
using simt::LaneArray;
using simt::LaneMask;
using simt::kMaxLanes;

// Known answers, evaluated at compile time, where an over-wide shift or
// an overflowing division is an error even on a host whose shift
// instruction masks the count.
static_assert(alu::lane(Op::SRA, 0x80000000u, 32, 0) == 0x80000000u);
static_assert(alu::lane(Op::SRA, 0x80000000u, 33, 0) == 0xc0000000u);
static_assert(alu::lane(Op::SRA, 0x80000000u, 0xffffffffu, 0) ==
              0xffffffffu);
static_assert(alu::lane(Op::SRAI, 0x80000000u, 0, 63) == 0xffffffffu);
static_assert(alu::lane(Op::SRL, 0x80000000u, 0xffffffffu, 0) == 1);
static_assert(alu::lane(Op::SRLI, 0x80000000u, 0, 33) == 0x40000000u);
static_assert(alu::lane(Op::SLL, 1, 32, 0) == 1);
static_assert(alu::lane(Op::SLLI, 1, 0, 33) == 2);
static_assert(alu::lane(Op::DIV, 0x80000000u, 0xffffffffu, 0) ==
              0x80000000u);
static_assert(alu::lane(Op::REM, 0x80000000u, 0xffffffffu, 0) == 0);
static_assert(alu::lane(Op::DIV, 0xfffffff9u, 2, 0) == 0xfffffffdu);
static_assert(alu::lane(Op::REM, 0xfffffff9u, 2, 0) == 0xffffffffu);
static_assert(alu::lane(Op::DIV, 7, 0, 0) == 0xffffffffu);
static_assert(alu::lane(Op::DIVU, 7, 0, 0) == 0xffffffffu);
static_assert(alu::lane(Op::REM, 7, 0, 0) == 7);
static_assert(alu::lane(Op::REMU, 7, 0, 0) == 7);
static_assert(alu::lane(Op::MULH, 0x80000000u, 0x80000000u, 0) ==
              0x40000000u);
static_assert(alu::lane(Op::MULHSU, 0xffffffffu, 0xffffffffu, 0) ==
              0xffffffffu);
static_assert(alu::lane(Op::MULHU, 0xffffffffu, 0xffffffffu, 0) ==
              0xfffffffeu);
static_assert(alu::lane(Op::SLT, 0x80000000u, 0, 0) == 1);
static_assert(alu::lane(Op::SLTU, 0x80000000u, 0, 0) == 0);
static_assert(alu::lane(Op::SLTIU, 0, 0, -1) == 1);

/** Operand edges: 0, +-1, INT32_MIN, INT32_MAX, the shift counts 31, 32
 *  and 33 (-1 is the fourth), and 2 for the divisions. */
constexpr uint32_t kEdges[] = {0,  1,  0xffffffffu, 0x80000000u, 0x7fffffffu,
                               31, 32, 33,          2};
constexpr size_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);

std::vector<Op>
tableOps()
{
    std::vector<Op> ops;
    for (size_t i = 0; i < static_cast<size_t>(Op::NUM_OPS); ++i) {
        if (alu::covers(static_cast<Op>(i)))
            ops.push_back(static_cast<Op>(i));
    }
    return ops;
}

/** An edge operand a quarter of the time, else a random word. */
uint32_t
drawWord(std::mt19937 &rng)
{
    return rng() % 4 == 0 ? static_cast<uint32_t>(rng())
                          : kEdges[rng() % kNumEdges];
}

/** A uniform, affine (strides that wrap included) or per-lane
 *  descriptor; per-lane values go to @p lanes. */
DataDesc
drawDesc(std::mt19937 &rng, LaneArray<uint32_t> &lanes)
{
    DataDesc d;
    d.base = drawWord(rng);
    switch (rng() % 4) {
      case 0:
        break; // uniform
      case 1:
        d.stride = static_cast<int32_t>(rng() % 9) - 4;
        break;
      case 2:
        d.stride = static_cast<int32_t>(drawWord(rng));
        break;
      default:
        for (uint32_t &v : lanes)
            v = drawWord(rng);
        d.kind = DataDesc::Kind::Lanes;
        d.lanes = lanes.data();
        break;
    }
    return d;
}

TEST(AluTable, TransferRulesMatchLaneFunctions)
{
    std::mt19937 rng(22);
    std::set<Op> with_rule;
    LaneArray<uint32_t> lanes1{}, lanes2{};
    for (const Op op : tableOps()) {
        for (unsigned trial = 0; trial < 4000; ++trial) {
            const DataDesc d1 = drawDesc(rng, lanes1);
            const DataDesc d2 = drawDesc(rng, lanes2);
            const int32_t imm = static_cast<int32_t>(drawWord(rng));
            const std::optional<DataDesc> d = alu::transfer(op, d1, d2, imm);
            if (!d)
                continue;
            with_rule.insert(op);
            ASSERT_TRUE(d->isRegular()) << isa::opName(op);
            for (unsigned l = 0; l < kMaxLanes; ++l) {
                ASSERT_EQ(d->at(l), alu::lane(op, d1.at(l), d2.at(l), imm))
                    << isa::opName(op) << " lane " << l << " rs1 "
                    << d1.base << "+" << d1.stride << "l rs2 " << d2.base
                    << "+" << d2.stride << "l imm " << imm;
            }
        }
    }
    // The closed forms execAlu has always had, no more: the set decides
    // simhost_fastpath_instrs.
    EXPECT_EQ(with_rule, (std::set<Op>{Op::LUI, Op::ADDI, Op::SLLI, Op::ADD,
                                       Op::SUB, Op::MUL, Op::CGETADDR}));
}

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

TEST(AluTable, HandlersMatchLaneFunctionsOnEdgeOperands)
{
    const bool avx2 = simt::engine::avx2Compiled() && cpuHasAvx2();
    std::mt19937 rng(23);
    for (const Op op : tableOps()) {
        const simt::engine::AluLoopFn scalar =
            simt::engine::aluLoopHandler(op);
        ASSERT_NE(scalar, nullptr) << isa::opName(op);
        const simt::engine::AluLoopFn packed =
            avx2 ? simt::engine::avx2AluHandler(op) : nullptr;
        // Every (a, b) pair of edges lands in some lane of the first
        // four trials; later ones mix in random words and affine
        // operands.
        for (unsigned trial = 0; trial < 64; ++trial) {
            LaneArray<uint32_t> a{}, b{}, scratch{};
            for (unsigned l = 0; l < kMaxLanes; ++l) {
                const size_t pair = (trial * kMaxLanes + l) % (kNumEdges *
                                                               kNumEdges);
                a[l] = trial < 4 ? kEdges[pair % kNumEdges] : drawWord(rng);
                b[l] = trial < 4 ? kEdges[pair / kNumEdges] : drawWord(rng);
            }
            DataDesc d1{DataDesc::Kind::Lanes, 0, 0, a.data()};
            DataDesc d2{DataDesc::Kind::Lanes, 0, 0, b.data()};
            if (trial >= 4 && trial % 3 == 0)
                d1 = drawDesc(rng, scratch);
            const int32_t imm = static_cast<int32_t>(kEdges[trial % kNumEdges]);
            LaneMask mask = static_cast<LaneMask>(rng());
            if (trial % 8 == 0)
                mask = ~LaneMask{0};

            LaneArray<uint32_t> old{}, want{};
            for (unsigned l = 0; l < kMaxLanes; ++l) {
                old[l] = static_cast<uint32_t>(rng());
                want[l] = (mask >> l) & 1
                              ? alu::lane(op, d1.at(l), d2.at(l), imm)
                              : old[l];
            }
            for (const auto fn : {scalar, packed}) {
                if (!fn)
                    continue;
                LaneArray<uint32_t> got = old;
                fn(simt::engine::AluCtx{&d1, &d2, mask, got.data(), imm});
                for (unsigned l = 0; l < kMaxLanes; ++l) {
                    ASSERT_EQ(got[l], want[l])
                        << isa::opName(op) << (fn == packed ? " avx2" : "")
                        << " trial " << trial << " lane " << l << " a "
                        << d1.at(l) << " b " << d2.at(l) << " imm " << imm;
                }
            }
        }
    }
}

/** RISC-V's answers on float edges; every copy of the lane function
 *  (the table and the scalar handler) must give exactly these. */
TEST(AluTable, FloatRowsGiveRiscVEdgeAnswers)
{
    constexpr uint32_t kNan = 0x7fc00000u, kInf = 0x7f800000u,
                       kNegInf = 0xff800000u, kNegZero = 0x80000000u,
                       kOne = 0x3f800000u, kTwo = 0x40000000u;
    struct Case
    {
        Op op;
        uint32_t a, b, want;
    };
    const Case cases[] = {
        // NaN results are canonical, whatever the operands' payloads.
        {Op::FADD_S, 0x7fffffffu, 0xffffffffu, kNan},
        {Op::FADD_S, 0xffffffffu, 0x7fffffffu, kNan},
        {Op::FADD_S, kInf, kNegInf, kNan},
        {Op::FSUB_S, kInf, kInf, kNan},
        {Op::FSUB_S, 0xffc00001u, kOne, kNan},
        {Op::FMUL_S, 0, kInf, kNan},
        {Op::FMUL_S, 0x7f800001u, kTwo, kNan},
        {Op::FDIV_S, 0, 0, kNan},
        {Op::FDIV_S, kInf, kNegInf, kNan},
        {Op::FSQRT_S, 0xbf800000u, 0, kNan},
        {Op::FSQRT_S, 0xffffffffu, 0, kNan},
        {Op::FADD_S, kOne, kTwo, 0x40400000u},
        {Op::FSQRT_S, kNegZero, 0, kNegZero},
        // -0 orders below +0; a number beats a NaN; two NaNs give the
        // canonical NaN.
        {Op::FMIN_S, kNegZero, 0, kNegZero},
        {Op::FMIN_S, 0, kNegZero, kNegZero},
        {Op::FMAX_S, kNegZero, 0, 0},
        {Op::FMAX_S, 0, kNegZero, 0},
        {Op::FMIN_S, 0x7fffffffu, kOne, kOne},
        {Op::FMIN_S, kOne, 0xffffffffu, kOne},
        {Op::FMAX_S, 0x7f800001u, kTwo, kTwo},
        {Op::FMAX_S, kNegInf, 0x7fc00001u, kNegInf},
        {Op::FMIN_S, 0x7fffffffu, 0xffffffffu, kNan},
        {Op::FMAX_S, 0x7f800001u, 0x7fc00000u, kNan},
        {Op::FMIN_S, kOne, kTwo, kOne},
        {Op::FMAX_S, kOne, kTwo, kTwo},
        // Conversions round toward zero and saturate; NaN gives the
        // maximum.
        {Op::FCVT_W_S, 0x7fffffffu, 0, 0x7fffffffu},
        {Op::FCVT_W_S, 0xffffffffu, 0, 0x7fffffffu},
        {Op::FCVT_W_S, kInf, 0, 0x7fffffffu},
        {Op::FCVT_W_S, kNegInf, 0, 0x80000000u},
        {Op::FCVT_W_S, 0x4f000000u, 0, 0x7fffffffu},  // 2^31
        {Op::FCVT_W_S, 0x4effffffu, 0, 0x7fffff80u},  // 2^31 - 128
        {Op::FCVT_W_S, 0xcf000000u, 0, 0x80000000u},  // -2^31
        {Op::FCVT_W_S, 0xcf000001u, 0, 0x80000000u},  // below -2^31
        {Op::FCVT_W_S, 0xbfc00000u, 0, 0xffffffffu},  // -1.5
        {Op::FCVT_W_S, 0x3fc00000u, 0, 1},            // 1.5
        {Op::FCVT_WU_S, 0x7fffffffu, 0, 0xffffffffu},
        {Op::FCVT_WU_S, kInf, 0, 0xffffffffu},
        {Op::FCVT_WU_S, kNegInf, 0, 0},
        {Op::FCVT_WU_S, 0x4f800000u, 0, 0xffffffffu}, // 2^32
        {Op::FCVT_WU_S, 0x4f7fffffu, 0, 0xffffff00u}, // 2^32 - 256
        {Op::FCVT_WU_S, 0xbf800000u, 0, 0},           // -1
        {Op::FCVT_WU_S, 0xbf000000u, 0, 0},           // -0.5
        {Op::FCVT_WU_S, 0x3fc00000u, 0, 1},           // 1.5
    };
    for (const Case &c : cases) {
        EXPECT_EQ(alu::lane(c.op, c.a, c.b, 0), c.want)
            << isa::opName(c.op) << " " << std::hex << c.a << " " << c.b;
        const simt::engine::AluLoopFn fn = simt::engine::aluLoopHandler(c.op);
        ASSERT_NE(fn, nullptr) << isa::opName(c.op);
        LaneArray<uint32_t> a{}, b{}, got{};
        a.fill(c.a);
        b.fill(c.b);
        DataDesc d1{DataDesc::Kind::Lanes, 0, 0, a.data()};
        DataDesc d2{DataDesc::Kind::Lanes, 0, 0, b.data()};
        fn(simt::engine::AluCtx{&d1, &d2, ~LaneMask{0}, got.data(), 0});
        for (unsigned l = 0; l < kMaxLanes; ++l)
            EXPECT_EQ(got[l], c.want) << isa::opName(c.op) << " handler";
    }
}

TEST(AluTable, PackedBitMatchesAvx2Handlers)
{
    if (!simt::engine::avx2Compiled())
        GTEST_SKIP() << "this build has no AVX2 handlers";
    for (size_t i = 0; i < static_cast<size_t>(Op::NUM_OPS); ++i) {
        const Op op = static_cast<Op>(i);
        EXPECT_EQ(alu::packed(op),
                  simt::engine::avx2AluHandler(op) != nullptr)
            << isa::opName(op);
    }
}

// ---- Operand narrowing (DataDesc / MetaDesc::narrowTo) ----
//
// A divergent step's descriptors describe its active lanes only; the
// inactive lanes below hold poison. Narrowing must find every closed
// form of the active lanes and nothing else.

using simt::CapMeta;
using simt::MetaDesc;

/** An active mask, never empty: random lanes, one lane, the lanes of one
 *  residue mod 2, 4, 8 or 16 (only even gaps for the larger moduli), a
 *  bitonic half (lane & j == 0) or a contiguous run. */
LaneMask
drawActive(std::mt19937 &rng)
{
    LaneMask m = 0;
    switch (rng() % 6) {
      case 0:
        m = static_cast<LaneMask>(rng());
        break;
      case 1:
        m = LaneMask{1} << (rng() % kMaxLanes);
        break;
      case 2: {
        const unsigned mod = 2u << (rng() % 4);
        const unsigned res = rng() % mod;
        for (unsigned l = res; l < kMaxLanes; l += mod)
            m |= LaneMask{1} << l;
        if (rng() % 2)
            m &= static_cast<LaneMask>(rng()); // thinned
        break;
      }
      case 3: {
        const unsigned j = 1u << (rng() % 5);
        for (unsigned l = 0; l < kMaxLanes; ++l)
            m |= LaneMask{(l & j) == 0} << l;
        break;
      }
      default: {
        const unsigned lo = rng() % kMaxLanes;
        const unsigned hi = lo + rng() % (kMaxLanes - lo);
        for (unsigned l = lo; l <= hi; ++l)
            m |= LaneMask{1} << l;
        break;
      }
    }
    return m != 0 ? m : LaneMask{1} << (rng() % kMaxLanes);
}

TEST(NarrowTo, DataDescFindsExactlyTheAffineActiveLanes)
{
    std::mt19937 rng(24);
    for (unsigned trial = 0; trial < 20000; ++trial) {
        const LaneMask active = drawActive(rng);
        // Small strides of either sign, or any word (wrapping strides,
        // odd and even, INT32_MIN among the edges).
        const uint32_t base = drawWord(rng);
        const uint32_t stride =
            rng() % 2 ? static_cast<uint32_t>(static_cast<int32_t>(rng() % 33) -
                                              16)
                      : drawWord(rng);
        LaneArray<uint32_t> lanes{};
        for (unsigned l = 0; l < kMaxLanes; ++l)
            lanes[l] = (active >> l) & 1 ? base + stride * l
                                         : static_cast<uint32_t>(rng());
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " active 0x" << std::hex
                     << active << " base 0x" << base << " stride 0x"
                     << stride);

        DataDesc d{DataDesc::Kind::Lanes, 0, 0, lanes.data()};
        d.narrowTo(active);
        ASSERT_TRUE(d.isRegular());
        for (unsigned l = 0; l < kMaxLanes; ++l) {
            if ((active >> l) & 1) {
                ASSERT_EQ(d.at(l), lanes[l]) << "lane " << l;
            }
        }
        // Narrowing a closed form changes nothing.
        const DataDesc again = [&] {
            DataDesc c = d;
            c.narrowTo(active);
            return c;
        }();
        EXPECT_EQ(again.base, d.base);
        EXPECT_EQ(again.stride, d.stride);

        // One active lane moved by an odd amount: two other active lanes
        // pin the stride up to a multiple of 2^28, so no affine form
        // fits any more.
        if (std::popcount(active) >= 3) {
            unsigned pick = rng() % std::popcount(active);
            LaneMask m = active;
            for (; pick > 0; --pick)
                m &= m - 1;
            lanes[std::countr_zero(m)] += static_cast<uint32_t>(rng()) | 1;
            DataDesc wrong{DataDesc::Kind::Lanes, 0, 0, lanes.data()};
            wrong.narrowTo(active);
            ASSERT_FALSE(wrong.isRegular())
                << "wrong lane " << std::dec << std::countr_zero(m);
        }

        // Random active lanes: whatever narrows must hold them.
        for (unsigned l = 0; l < kMaxLanes; ++l)
            lanes[l] = drawWord(rng);
        DataDesc any{DataDesc::Kind::Lanes, 0, 0, lanes.data()};
        any.narrowTo(active);
        for (unsigned l = 0; any.isRegular() && l < kMaxLanes; ++l) {
            if ((active >> l) & 1) {
                ASSERT_EQ(any.at(l), lanes[l]) << "random lane " << l;
            }
        }
    }
}

TEST(NarrowTo, MetaDescIsUniformExactlyWhenTheActiveLanesAgree)
{
    std::mt19937 rng(25);
    const CapMeta v{0x12345678u, true};
    const auto poison = [&] {
        return CapMeta{static_cast<uint32_t>(rng()), rng() % 2 == 0};
    };
    for (unsigned trial = 0; trial < 20000; ++trial) {
        const LaneMask active = drawActive(rng);
        SCOPED_TRACE(testing::Message() << "trial " << trial << " active 0x"
                                        << std::hex << active);

        // PartialNull: no active null lane, all of them, or some.
        MetaDesc p;
        p.kind = MetaDesc::Kind::PartialNull;
        p.value = v;
        p.nullMask = static_cast<LaneMask>(rng());
        if (rng() % 3 == 0)
            p.nullMask &= ~active;
        else if (rng() % 2 == 0)
            p.nullMask |= active;
        const LaneMask nulls = p.nullMask & active;
        MetaDesc q = p;
        q.narrowTo(active);
        EXPECT_EQ(q.isUniform(), nulls == 0 || nulls == active);
        for (unsigned l = 0; l < kMaxLanes; ++l) {
            if ((active >> l) & 1) {
                ASSERT_EQ(q.at(l), p.at(l)) << "partial-null lane " << l;
            }
        }

        // Lanes: one value on the active lanes, poison elsewhere.
        LaneArray<CapMeta> lanes{};
        for (unsigned l = 0; l < kMaxLanes; ++l)
            lanes[l] = (active >> l) & 1 ? v : poison();
        MetaDesc m;
        m.kind = MetaDesc::Kind::Lanes;
        m.lanes = lanes.data();
        MetaDesc n = m;
        n.narrowTo(active);
        ASSERT_TRUE(n.isUniform());
        EXPECT_EQ(n.value, v);

        // One active lane differing in its tag or one metadata bit.
        if (std::popcount(active) >= 2) {
            unsigned pick = rng() % std::popcount(active);
            LaneMask rest = active;
            for (; pick > 0; --pick)
                rest &= rest - 1;
            CapMeta &w = lanes[std::countr_zero(rest)];
            if (rng() % 2)
                w.tag = !w.tag;
            else
                w.meta ^= 1u << (rng() % 32);
            MetaDesc wrong = m;
            wrong.narrowTo(active);
            EXPECT_FALSE(wrong.isUniform());
        }
    }
}

} // namespace
