/**
 * @file
 * Differential testing: every paper kernel (Livermore, Linpack,
 * graphics transform) runs on the cycle-accurate Machine with a
 * LockstepChecker attached, which shadow-executes the functional
 * Interpreter and faults on any divergence in issue order, final
 * register/memory state, or FPU element counts. A divergence throws
 * FatalError, failing the test. Every kernel suite runs once per
 * softfp backend, so the Soft and HostFast element paths both get
 * full differential coverage.
 */

#include <gtest/gtest.h>

#include "kernels/graphics/transform.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"
#include "machine/lockstep.hh"

namespace
{

using namespace mtfpu;

constexpr softfp::Backend kBackends[] = {softfp::Backend::Soft,
                                         softfp::Backend::HostFast};

/** Run @p kernel on both engines in lockstep; expect no divergence. */
void
expectLockstep(const kernels::Kernel &kernel, softfp::Backend backend)
{
    SCOPED_TRACE(kernel.name + " (" + kernel.variant + ", " +
                 enumName(backend) + ")");
    machine::MachineConfig cfg;
    cfg.fpBackend = backend;
    machine::Machine m(cfg);
    m.loadProgram(kernel.program);
    kernel.init(m.mem());
    machine::LockstepChecker checker(m);
    m.addObserver(&checker);

    machine::RunStats stats;
    ASSERT_NO_THROW(stats = m.run());

    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(checker.issuesChecked(), 0u);
    EXPECT_EQ(checker.runsVerified(), 1u);
    EXPECT_EQ(checker.interpreter().fpElements(),
              m.fpu().stats().elementsIssued);
}

TEST(Lockstep, LivermoreScalarAllLoops)
{
    for (const softfp::Backend backend : kBackends) {
        for (int id = 1; id <= kernels::livermore::kNumLoops; ++id)
            expectLockstep(kernels::livermore::make(id, false), backend);
    }
}

TEST(Lockstep, LivermoreVectorAllVectorizableLoops)
{
    for (const softfp::Backend backend : kBackends) {
        for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
            if (kernels::livermore::hasVectorVariant(id))
                expectLockstep(kernels::livermore::make(id, true),
                               backend);
        }
    }
}

TEST(Lockstep, LinpackBothVariants)
{
    // A reduced problem size keeps the run short; the code paths
    // (DGEFA pivoting, DAXPY/DSCAL strips, the division macro) are
    // identical to Linpack 100.
    for (const softfp::Backend backend : kBackends) {
        expectLockstep(kernels::linpack::make(false, 24), backend);
        expectLockstep(kernels::linpack::make(true, 24), backend);
    }
}

TEST(Lockstep, GraphicsTransformBothVariants)
{
    std::array<double, 16> mat{};
    for (int i = 0; i < 16; ++i)
        mat[i] = 0.0625 * (i + 3);
    const std::array<double, 4> p{1.0, 2.0, 3.0, 4.0};

    for (const softfp::Backend backend : kBackends) {
        for (const bool load_matrix : {false, true}) {
            SCOPED_TRACE(std::string(enumName(backend)) +
                         (load_matrix ? ", load matrix"
                                      : ", matrix preloaded"));
            machine::MachineConfig cfg;
            cfg.fpBackend = backend;
            kernels::graphics::TransformResult out;
            const machine::SimJob job =
                kernels::graphics::makeTransformJob(cfg, load_matrix,
                                                    mat, p, out);

            machine::Machine m(job.config);
            machine::startJob(job, m);
            machine::LockstepChecker checker(m);
            m.addObserver(&checker);

            ASSERT_NO_THROW(job.body(m));
            EXPECT_GT(checker.issuesChecked(), 0u);
            EXPECT_EQ(checker.runsVerified(), 1u);
            EXPECT_GT(out.cycles, 0u);
        }
    }
}

TEST(Lockstep, SurvivesBackToBackRuns)
{
    // The checker re-arms at the first cycle of every run, so a
    // cold+warm double run under one attachment verifies both.
    const kernels::Kernel k = kernels::livermore::make(3, true);
    machine::Machine m;
    m.loadProgram(k.program);
    k.init(m.mem());
    machine::LockstepChecker checker(m);
    m.addObserver(&checker);

    ASSERT_NO_THROW(m.run());
    m.resetForRun(false);
    k.init(m.mem());
    ASSERT_NO_THROW(m.run());
    EXPECT_EQ(checker.runsVerified(), 2u);
}

TEST(Lockstep, RearmedSnapshotTracksChangedInputs)
{
    // The checker re-snapshots at each run's first cycle, so changing
    // an input between runs must not fault the comparison (a stale
    // shadow image would).
    const kernels::Kernel k = kernels::livermore::make(1, true);
    machine::Machine m;
    m.loadProgram(k.program);
    k.init(m.mem());
    machine::LockstepChecker checker(m);
    m.addObserver(&checker);
    ASSERT_NO_THROW(m.run());

    m.resetForRun(false);
    k.init(m.mem());
    m.mem().writeDouble(k.layout.addr("y", 3), 123.456);
    ASSERT_NO_THROW(m.run());
    EXPECT_EQ(checker.runsVerified(), 2u);
}

} // anonymous namespace
