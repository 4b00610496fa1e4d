/**
 * @file
 * Tests for the shared benchmark harness: the guarded geometric mean,
 * bit-identical serial/parallel suite runs, the matrix runner, the
 * process-wide kernel-compilation cache, and multi-launch reuse of one
 * device (a launch must report standalone counters, not accumulated
 * ones).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "bench/bench_common.hpp"
#include "kernels/suite.hpp"
#include "nocl/nocl.hpp"

namespace
{

using Mode = kc::CompileOptions::Mode;

// ---------------------------------------------------------------- geomean

TEST(Geomean, OfPositiveRatios)
{
    EXPECT_DOUBLE_EQ(benchcommon::geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(benchcommon::geomean({1.0, 1.0, 1.0}), 1.0);
}

TEST(Geomean, EmptyInputIsNan)
{
    // The mean of nothing is undefined, not a measured 0.0 ratio.
    EXPECT_TRUE(std::isnan(benchcommon::geomean({})));
}

TEST(Geomean, SkipsNonPositiveEntries)
{
    // A zero (failed benchmark) must not drag the mean to zero or NaN.
    EXPECT_DOUBLE_EQ(benchcommon::geomean({1.0, 0.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(benchcommon::geomean({-3.0, 9.0}), 9.0);
}

TEST(Geomean, AllUnusableIsNan)
{
    // Every entry skipped: same undefined-mean contract as the empty
    // input (dumped as null in the results JSON).
    EXPECT_TRUE(std::isnan(benchcommon::geomean({0.0, -1.0})));
}

TEST(Geomean, SkipsNonFiniteEntries)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(benchcommon::geomean({nan, 2.0, inf}), 2.0);
}

// ---------------------------------------------------------------- filters

TEST(Filter, MatchesAnyListedSubstring)
{
    using benchcommon::matchesAny;
    using benchcommon::matchesFilter;
    EXPECT_TRUE(matchesAny("", "cheri_opt/VecAdd"));
    EXPECT_TRUE(matchesAny("Reduce|VecAdd", "cheri_opt/VecAdd"));
    EXPECT_FALSE(matchesAny("Reduce|SPMV", "cheri_opt/VecAdd"));
    EXPECT_TRUE(matchesFilter("cheri_opt/Blk", "cheri_opt", "BlkStencil"));
    EXPECT_FALSE(matchesFilter("baseline/Blk", "cheri_opt", "BlkStencil"));
    // An old regex filter is refused, never read as a literal name.
    EXPECT_EXIT(matchesAny("cheri_opt/.*Stencil", "x"),
                testing::ExitedWithCode(1), "regex metacharacter");
}

TEST(Filter, TablesKeepOnlyBenchmarksEveryRowRan)
{
    // A filter such as "baseline/VecAdd" runs a benchmark in one
    // configuration only; its table row would compare against nothing.
    std::vector<std::vector<benchcommon::SuiteResult>> rows(2);
    for (auto &row : rows)
        row.resize(3);
    rows[0][1].skipped = true;
    rows[1][2].skipped = true;
    EXPECT_TRUE(benchcommon::ranInEveryRow(rows, 0));
    EXPECT_FALSE(benchcommon::ranInEveryRow(rows, 1));
    EXPECT_FALSE(benchcommon::ranInEveryRow(rows, 2));
    EXPECT_FALSE(benchcommon::ranInEveryRow(rows, 3)); // past every row
}

// ----------------------------------------------------------- kernel cache

TEST(KernelCache, CompilesOnceAcrossDevices)
{
    auto &cache = nocl::KernelCache::instance();
    cache.clear();

    auto suite = kernels::makeSuite();
    kernels::Benchmark &bench = *suite.front();

    const auto cfg = simt::SmConfig::cheriOptimised();
    nocl::Device dev1(cfg, Mode::Purecap);
    kernels::Prepared p1 = bench.prepare(dev1, kernels::Size::Small);
    auto k1 = dev1.compileCached(*p1.kernel, p1.cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // A second device with the same configuration reuses the entry.
    nocl::Device dev2(cfg, Mode::Purecap);
    kernels::Prepared p2 = bench.prepare(dev2, kernels::Size::Small);
    auto k2 = dev2.compileCached(*p2.kernel, p2.cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(k1.get(), k2.get());

    // A different compile mode is a different kernel.
    nocl::Device dev3(simt::SmConfig::baseline(), Mode::Baseline);
    kernels::Prepared p3 = bench.prepare(dev3, kernels::Size::Small);
    auto k3 = dev3.compileCached(*p3.kernel, p3.cfg);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NE(k1.get(), k3.get());
}

TEST(KernelCache, CachedLaunchMatchesFreshCompile)
{
    auto &cache = nocl::KernelCache::instance();
    cache.clear();

    auto suite = kernels::makeSuite();
    kernels::Benchmark &bench = *suite.front();
    const auto cfg = simt::SmConfig::cheriOptimised();

    nocl::Device dev1(cfg, Mode::Purecap);
    kernels::Prepared p1 = bench.prepare(dev1, kernels::Size::Small);
    const nocl::RunResult r1 = dev1.launch(*p1.kernel, p1.cfg, p1.args);
    ASSERT_TRUE(r1.completed);

    nocl::Device dev2(cfg, Mode::Purecap);
    kernels::Prepared p2 = bench.prepare(dev2, kernels::Size::Small);
    const nocl::RunResult r2 = dev2.launch(*p2.kernel, p2.cfg, p2.args);
    ASSERT_TRUE(r2.completed);

    EXPECT_GT(cache.hits(), 0u);
    EXPECT_EQ(r1.kernel.get(), r2.kernel.get());
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.stats.all(), r2.stats.all());
    EXPECT_TRUE(p2.verify(dev2));
}

// --------------------------------------------------------- device re-use

TEST(DeviceReuse, RepeatedLaunchReportsStandaloneCounters)
{
    // Launching the same kernel twice on one device must report the
    // same cycles and statistics both times: counters reset per launch
    // and never accumulate. (VecAdd is idempotent, so re-running it on
    // the same buffers is well defined.)
    auto suite = kernels::makeSuite();
    kernels::Benchmark &bench = *suite.front();
    ASSERT_EQ(bench.name(), "VecAdd");

    nocl::Device dev(simt::SmConfig::cheriOptimised(), Mode::Purecap);
    kernels::Prepared p = bench.prepare(dev, kernels::Size::Small);
    const nocl::RunResult r1 = dev.launch(*p.kernel, p.cfg, p.args);
    ASSERT_TRUE(r1.completed);
    EXPECT_TRUE(p.verify(dev));

    const nocl::RunResult r2 = dev.launch(*p.kernel, p.cfg, p.args);
    ASSERT_TRUE(r2.completed);
    EXPECT_TRUE(p.verify(dev));
    EXPECT_EQ(r2.cycles, r1.cycles);
    EXPECT_EQ(r2.stats.all(), r1.stats.all());
}

TEST(DeviceReuse, SecondKernelUnaffectedByFirst)
{
    // Run kernel A then kernel B on one device; B's counters must match
    // a fresh device running only B.
    auto suite = kernels::makeSuite();
    kernels::Benchmark &first = *suite.at(0);
    kernels::Benchmark &second = *suite.at(1);

    const auto cfg = simt::SmConfig::cheriOptimised();
    nocl::Device shared_dev(cfg, Mode::Purecap);
    kernels::Prepared pa = first.prepare(shared_dev, kernels::Size::Small);
    (void)shared_dev.launch(*pa.kernel, pa.cfg, pa.args);
    kernels::Prepared pb =
        second.prepare(shared_dev, kernels::Size::Small);
    const nocl::RunResult shared_run =
        shared_dev.launch(*pb.kernel, pb.cfg, pb.args);
    ASSERT_TRUE(shared_run.completed);
    EXPECT_TRUE(pb.verify(shared_dev));

    nocl::Device fresh_dev(cfg, Mode::Purecap);
    kernels::Prepared pf = second.prepare(fresh_dev, kernels::Size::Small);
    const nocl::RunResult fresh_run =
        fresh_dev.launch(*pf.kernel, pf.cfg, pf.args);
    ASSERT_TRUE(fresh_run.completed);

    EXPECT_EQ(shared_run.cycles, fresh_run.cycles);
    EXPECT_EQ(shared_run.stats.get("instrs"),
              fresh_run.stats.get("instrs"));
}

// -------------------------------------------------------- parallel runner

void
expectIdentical(const std::vector<benchcommon::SuiteResult> &a,
                const std::vector<benchcommon::SuiteResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].name);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].ok, b[i].ok);
        EXPECT_EQ(a[i].run.completed, b[i].run.completed);
        EXPECT_EQ(a[i].run.trapped, b[i].run.trapped);
        EXPECT_EQ(a[i].run.cycles, b[i].run.cycles);
        // Every counter, the host-side simhost_* group included: on
        // one engine those are as deterministic as the modelled ones.
        EXPECT_EQ(a[i].run.stats.all(), b[i].run.stats.all());
        EXPECT_EQ(a[i].run.rfCapRegMask, b[i].run.rfCapRegMask);
    }
}

TEST(ParallelRunner, MatchesSerialBitForBit)
{
    const auto cfg = simt::SmConfig::cheriOptimised();
    const auto serial =
        benchcommon::runSuite(cfg, Mode::Purecap, kernels::Size::Small);
    const auto parallel = benchcommon::runSuiteParallel(
        cfg, Mode::Purecap, kernels::Size::Small, /*threads=*/4);
    expectIdentical(serial, parallel);
}

TEST(ParallelRunner, MatrixRowsMatchSingleSuiteRuns)
{
    const auto base_cfg = simt::SmConfig::baseline();
    const auto cheri_cfg = simt::SmConfig::cheriOptimised();
    const auto rows = benchcommon::runMatrix(
        {{"baseline", base_cfg, Mode::Baseline},
         {"cheri_opt", cheri_cfg, Mode::Purecap}},
        kernels::Size::Small, /*threads=*/4);
    ASSERT_EQ(rows.size(), 2u);
    expectIdentical(rows[0], benchcommon::runSuite(base_cfg, Mode::Baseline,
                                                   kernels::Size::Small));
    expectIdentical(rows[1], benchcommon::runSuite(cheri_cfg, Mode::Purecap,
                                                   kernels::Size::Small));
}

TEST(ParallelRunner, CapRegLimitOverrideApplies)
{
    // The limit flows through to the compiled kernel: no kernel may use
    // more capability registers than the override allows.
    const auto results = benchcommon::runSuiteParallel(
        simt::SmConfig::cheriOptimised(), Mode::Purecap,
        kernels::Size::Small, /*threads=*/2, /*cap_reg_limit=*/16);
    for (const auto &r : results) {
        SCOPED_TRACE(r.name);
        EXPECT_TRUE(r.ok);
        EXPECT_LE(r.run.kernel->capRegCount, 16u);
    }
}

} // namespace
