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

#include <map>
#include <string>
#include <tuple>

#include "kc/asm.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
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
simt::TrapInfo
runTrapProgram(simt::Sm &sm, EmitFn emit_program)
{
    Assembler a;
    emit_program(a);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 2);
    EXPECT_TRUE(sm.run());
    EXPECT_TRUE(sm.trapped());
    return sm.firstTrap();
}

template <typename EmitFn>
void
expectTrapParity(Preset preset, EmitFn emit_program,
                 simt::TrapKind expect_kind, unsigned expect_lane)
{
    simt::MemorySystem reference_mem(1);
    simt::Sm reference(trapConfig(preset, false), reference_mem.shard(0));
    const simt::TrapInfo ref = runTrapProgram(reference, emit_program);
    EXPECT_EQ(ref.kind, expect_kind);
    EXPECT_EQ(ref.warp, 0u);
    EXPECT_EQ(ref.lane, expect_lane);

    simt::MemorySystem mem(1);
    simt::Sm sm(trapConfig(preset, true), mem.shard(0));
    const simt::TrapInfo got = runTrapProgram(sm, emit_program);
    expectSameTrap(got, ref);
    EXPECT_EQ(sm.cycles(), reference.cycles());
    mem.commitEpoch();
    reference_mem.commitEpoch();
    EXPECT_EQ(mem.base().contentHash(), reference_mem.base().contentHash());
    expectSameStats(sm.stats(), reference.stats());
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

} // namespace
