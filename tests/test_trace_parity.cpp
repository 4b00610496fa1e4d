/**
 * @file
 * No-perturbation proof for the trace/profile layer (DESIGN.md section
 * 11): attaching a trace session -- all categories enabled, profiling
 * on -- must leave every architecturally visible outcome bit-identical
 * to the untraced run. The matrix covers both execute engines and
 * 1/2/4 SMs, a faulting kernel (so the trap-forensics path is in the
 * loop), and fault injection. A final group proves the exported Chrome
 * trace itself is deterministic: two identical traced runs produce
 * byte-identical JSON documents.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "kc/asm.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"
#include "simt/sm.hpp"
#include "support/trace.hpp"

namespace
{

using isa::Op;
using kc::Assembler;
using kernels::Prepared;
using kernels::Size;
using support::trace::Session;
using support::trace::SessionConfig;
using Mode = kc::CompileOptions::Mode;

/** Everything architecturally observable about one benchmark run.
 *  Includes the simhost_* counters: on a given engine they are
 *  deterministic too, so tracing must not move even those. */
struct Outcome
{
    bool completed = false;
    bool trapped = false;
    bool verified = false;
    uint64_t cycles = 0;
    std::map<std::string, uint64_t> stats;
    uint64_t dramHash = 0;
    simt::TrapInfo trap;
};

Session
makeSession()
{
    SessionConfig cfg;
    cfg.mask = support::trace::kCatAll;
    cfg.profile = true;
    return Session(cfg);
}

Outcome
runBench(const std::string &bench_name, bool host_fast_path, unsigned sms,
         Session *session)
{
    auto bench = kernels::makeBenchmark(bench_name);
    EXPECT_NE(bench, nullptr);
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.hostFastPath = host_fast_path;
    cfg.numSms = sms;
    cfg.numWarps = 16; // 512 threads keeps the Small suite quick
    cfg.vrfCapacity = 16 * 32 * 3 / 8;
    nocl::Device dev(cfg, Mode::Purecap);
    if (session != nullptr) {
        session->beginTrack(bench_name);
        dev.attachTraceSession(session);
    }
    Prepared p = bench->prepare(dev, Size::Small);

    Outcome o;
    const nocl::RunResult run = dev.launch(*p.kernel, p.cfg, p.args);
    o.completed = run.completed;
    o.trapped = run.trapped;
    o.verified = p.verify(dev);
    o.cycles = run.cycles;
    for (const auto &[name, value] : run.stats.all())
        o.stats.emplace(name, value);
    o.dramHash = dev.dram().contentHash();
    o.trap = run.trapInfo;
    return o;
}

void
expectSameOutcome(const Outcome &traced, const Outcome &plain)
{
    EXPECT_EQ(traced.completed, plain.completed);
    EXPECT_EQ(traced.trapped, plain.trapped);
    EXPECT_EQ(traced.verified, plain.verified);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.dramHash, plain.dramHash);
    EXPECT_EQ(traced.stats, plain.stats);
    EXPECT_EQ(traced.trap.trapped, plain.trap.trapped);
    EXPECT_EQ(traced.trap.kind, plain.trap.kind);
    EXPECT_EQ(traced.trap.pc, plain.trap.pc);
    EXPECT_EQ(traced.trap.addr, plain.trap.addr);
    EXPECT_EQ(traced.trap.warp, plain.trap.warp);
    EXPECT_EQ(traced.trap.lane, plain.trap.lane);
}

TEST(TraceParity, TracedRunsAreBitIdentical)
{
    for (const char *bench : {"VecAdd", "BlkStencil"}) {
        SCOPED_TRACE(bench);
        for (bool fast : {false, true}) {
            SCOPED_TRACE(fast ? "accelerated" : "reference");
            for (unsigned sms : {1u, 2u, 4u}) {
                SCOPED_TRACE(sms);
                const Outcome plain = runBench(bench, fast, sms, nullptr);
                Session session = makeSession();
                const Outcome traced = runBench(bench, fast, sms, &session);
                expectSameOutcome(traced, plain);
                // The session must actually have observed the launch,
                // otherwise this only proves "off == off".
                EXPECT_GT(session.eventCount(), 0u);
                EXPECT_EQ(session.droppedEvents(), 0u);
                const support::trace::KernelProfile *prof =
                    session.profileFor(bench);
                ASSERT_NE(prof, nullptr);
                uint64_t executed = 0;
                for (uint64_t c : prof->pcCounts)
                    executed += c;
                EXPECT_GT(executed, 0u);
            }
        }
    }
}

// ---- Trap forensics must not perturb the trapping run ----
//
// A hand-assembled purecap program whose lane addresses stride out of a
// 64-byte window mid-warp (the partial-warp fault of
// test_fastpath_parity). The traced run must commit the identical trap
// record, cycles and memory image, and the trace must contain the trap
// event with its forensic args.

simt::SmConfig
trapConfig(bool host_fast_path)
{
    simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
    cfg.numWarps = 2;
    cfg.numLanes = 8;
    cfg.hostFastPath = host_fast_path;
    return cfg;
}

void
emitStridedTrapProgram(Assembler &a)
{
    a.emitI(Op::CSPECIALRW, 5, 0, isa::SCR_DDC);
    a.emitI(Op::LUI, 6, 0, static_cast<int32_t>(simt::kDramBase));
    a.emitR(Op::CSETADDR, 7, 5, 6);
    a.emitI(Op::ADDI, 8, 0, 64);
    a.emitR(Op::CSETBOUNDS, 7, 7, 8); // 64-byte window
    a.emitI(Op::CSRRS, 9, 0, isa::CSR_HARTID);
    a.emitI(Op::SLLI, 9, 9, 4); // thread id * 16: lanes 4+ go OOB
    a.emitR(Op::CINCOFFSET, 7, 7, 9);
    a.emitI(Op::LW, 10, 7, 0);
    a.emit(Op::SIMT_HALT, 0, 0, 0);
}

simt::TrapInfo
runTrapProgram(simt::Sm &sm)
{
    Assembler a;
    emitStridedTrapProgram(a);
    sm.loadProgram(a.finalize());
    sm.setScr(isa::SCR_DDC, cap::rootCap());
    sm.launch(0, 2);
    EXPECT_TRUE(sm.run());
    EXPECT_TRUE(sm.trapped());
    return sm.firstTrap();
}

TEST(TraceParity, TrapForensicsDoNotPerturb)
{
    for (bool fast : {false, true}) {
        SCOPED_TRACE(fast ? "accelerated" : "reference");
        simt::MemorySystem plain_mem(1);
        simt::Sm plain(trapConfig(fast), plain_mem.shard(0));
        const simt::TrapInfo ref = runTrapProgram(plain);
        ASSERT_EQ(ref.kind, simt::TrapKind::BoundsViolation);

        Session session = makeSession();
        simt::MemorySystem traced_mem(1);
        simt::Sm traced(trapConfig(fast), traced_mem.shard(0));
        traced.attachTrace(session.smBuffer(0));
        const simt::TrapInfo got = runTrapProgram(traced);
        traced.attachTrace(nullptr);

        EXPECT_EQ(got.kind, ref.kind);
        EXPECT_EQ(got.pc, ref.pc);
        EXPECT_EQ(got.addr, ref.addr);
        EXPECT_EQ(got.warp, ref.warp);
        EXPECT_EQ(got.lane, ref.lane);
        EXPECT_EQ(traced.cycles(), plain.cycles());
        traced_mem.commitEpoch();
        plain_mem.commitEpoch();
        EXPECT_EQ(traced_mem.base().contentHash(),
                  plain_mem.base().contentHash());

        // The trap record itself must carry the forensic context.
        EXPECT_TRUE(got.hasInstr);
        EXPECT_TRUE(got.hasCap);
        EXPECT_EQ(got.capTag, true);
        EXPECT_EQ(got.capTop - got.capBase, 64u);
        const std::string record =
            simt::formatTrapRecord(got, "strided", /*purecap=*/true, 0);
        EXPECT_NE(record.find("bounds violation"), std::string::npos);
        EXPECT_NE(record.find("past top"), std::string::npos);

        // ... and the trace must contain the trap event.
        session.commitAttempt(traced.cycles());
        EXPECT_GT(session.eventCount(), 0u);
    }
}

// ---- Fault injection under trace ----

TEST(TraceParity, FaultStrikesDoNotPerturb)
{
    auto run = [](Session *session) {
        auto bench = kernels::makeBenchmark("VecAdd");
        simt::SmConfig cfg = simt::SmConfig::cheriOptimised();
        cfg.numWarps = 16;
        cfg.vrfCapacity = 16 * 32 * 3 / 8;
        cfg.faultPlan.site = simt::FaultSite::TagClear;
        cfg.faultPlan.addr = kc::argBlockAddress();
        nocl::Device dev(cfg, Mode::Purecap);
        if (session != nullptr) {
            session->beginTrack("VecAdd/tagfault");
            dev.attachTraceSession(session);
        }
        Prepared p = bench->prepare(dev, Size::Small);
        return dev.launch(*p.kernel, p.cfg, p.args);
    };
    const nocl::RunResult plain = run(nullptr);
    Session session = makeSession();
    const nocl::RunResult traced = run(&session);
    EXPECT_EQ(traced.trapped, plain.trapped);
    EXPECT_EQ(traced.trapKind, plain.trapKind);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.faultInjections, plain.faultInjections);
    EXPECT_GT(session.eventCount(), 0u);
}

// ---- Deterministic export ----

TEST(TraceParity, RepeatedExportIsByteIdentical)
{
    auto traceOnce = [] {
        Session session = makeSession();
        runBench("VecAdd", true, 2, &session);
        runBench("BlkStencil", true, 2, &session);
        return session.chromeTrace("test_trace_parity").dump(2);
    };
    const std::string a = traceOnce();
    const std::string b = traceOnce();
    EXPECT_GT(a.size(), 2u);
    EXPECT_EQ(a, b);
}

} // namespace
