// guarded_solve: the degradation ladder end to end. Each scenario drives
// a real failure mode (divergent damping, divergent GSRB over-relaxation,
// stagnation, injected runtime faults) and checks both the outcome and
// the honesty of the report.
#include "polymg/solvers/guarded.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "polymg/common/fault.hpp"
#include "polymg/solvers/metrics.hpp"

namespace polymg::solvers {
namespace {

class GuardedSolveTest : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultInjector::instance().reset(); }
  void TearDown() override { fault::FaultInjector::instance().reset(); }
};

CycleConfig healthy2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 4;
  cfg.n2 = 20;  // near-exact coarsest solve: fast contraction
  return cfg;
}

TEST_F(GuardedSolveTest, HealthyConfigConvergesOnFirstAttempt) {
  const CycleConfig cfg = healthy2d();
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  const SolveReport rep = guarded_solve(cfg, p, 1e-8);
  EXPECT_TRUE(rep.converged) << rep.summary();
  ASSERT_EQ(rep.attempts.size(), 1u);
  EXPECT_EQ(rep.attempts[0].description, "as configured");
  EXPECT_TRUE(rep.attempts[0].converged);
  EXPECT_EQ(rep.attempts[0].executor_fallbacks, 0);
  EXPECT_LE(rep.final_residual, 1e-8 * rep.initial_residual);
  // The iterate left in p is the converged one.
  EXPECT_NEAR(residual_norm(p.v_view(), p.f_view(), p.n, p.h),
              rep.final_residual, 1e-12);
}

TEST_F(GuardedSolveTest, DivergentOmegaRecoversViaBackoff) {
  CycleConfig cfg = healthy2d();
  cfg.omega = 1.9;  // weighted Jacobi diverges for omega > 1
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.max_attempts = 4;
  const SolveReport rep = guarded_solve(cfg, p, 1e-6, policy);
  EXPECT_TRUE(rep.converged) << rep.summary();
  ASSERT_GE(rep.attempts.size(), 3u);
  EXPECT_EQ(rep.attempts[0].trend, health::Trend::Diverging);
  EXPECT_EQ(rep.attempts[1].description, "reference plan");
  EXPECT_EQ(rep.attempts[1].trend, health::Trend::Diverging)
      << "the reference plan runs the same divergent numerics";
  // omega 1.9 -> 0.95 is stable; the backoff rung must finish the solve.
  EXPECT_TRUE(rep.attempts.back().converged);
  EXPECT_NE(rep.attempts.back().description.find("omega"), std::string::npos);
  EXPECT_TRUE(std::isfinite(rep.final_residual));
  EXPECT_LE(rep.final_residual, 1e-6 * rep.initial_residual);
}

TEST_F(GuardedSolveTest, DivergentGsrbRecoversViaSmootherDowngrade) {
  CycleConfig cfg = healthy2d();
  cfg.smoother = SmootherKind::GSRB;
  cfg.gsrb_omega = 2.1;  // SOR diverges for relaxation factors >= 2
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.max_attempts = 4;
  const SolveReport rep = guarded_solve(cfg, p, 1e-6, policy);
  EXPECT_TRUE(rep.converged) << rep.summary();
  // Ladder: as configured (diverges), reference plan (diverges),
  // GSRB -> Jacobi (converges with the default omega).
  ASSERT_GE(rep.attempts.size(), 3u);
  EXPECT_EQ(rep.attempts[2].description, "GSRB -> Jacobi");
  EXPECT_TRUE(rep.attempts[2].converged);
}

TEST_F(GuardedSolveTest, LadderWalksRungsInOrder) {
  // GSRB over-relaxation diverges, and so does weighted Jacobi at omega
  // 1.9: only the fourth rung (omega backoff) converges, so the attempt
  // list shows the whole ladder order.
  CycleConfig cfg = healthy2d();
  cfg.smoother = SmootherKind::GSRB;
  cfg.gsrb_omega = 2.1;
  cfg.omega = 1.9;
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.max_attempts = 4;
  const SolveReport rep = guarded_solve(cfg, p, 1e-6, policy);
  EXPECT_TRUE(rep.converged) << rep.summary();
  ASSERT_EQ(rep.attempts.size(), 4u) << rep.summary();
  const RungKind order[] = {RungKind::AsConfigured, RungKind::ReferencePlan,
                            RungKind::SmootherDowngrade,
                            RungKind::OmegaBackoff};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rep.attempts[i].kind, order[i]) << "attempt " << i;
    EXPECT_EQ(rep.attempts[i].converged, i == 3) << "attempt " << i;
  }
  EXPECT_EQ(rep.attempts[1].description, "reference plan");
  EXPECT_EQ(rep.attempts[2].description, "GSRB -> Jacobi");
  EXPECT_EQ(rep.attempts[3].description, "omega -> 0.95");
}

TEST_F(GuardedSolveTest, StagnationIsReportedHonestly) {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 31;
  cfg.levels = 1;    // no coarse correction: smooth modes barely move
  cfg.omega = 0.01;  // and the smoother is nearly a no-op
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.max_attempts = 2;
  policy.max_cycles = 20;
  const SolveReport rep = guarded_solve(cfg, p, 1e-10, policy);
  EXPECT_FALSE(rep.converged) << rep.summary();
  ASSERT_EQ(rep.attempts.size(), 2u);
  for (const SolveAttempt& a : rep.attempts) {
    EXPECT_EQ(a.trend, health::Trend::Stagnating) << a.description;
    EXPECT_FALSE(a.converged);
    EXPECT_LT(a.cycles, policy.max_cycles)
        << "the monitor should cut the attempt short";
  }
  EXPECT_TRUE(std::isfinite(rep.final_residual));
  EXPECT_NE(rep.summary().find("NOT converged"), std::string::npos);
}

TEST_F(GuardedSolveTest, PoolFaultIsAbsorbedByExecutorFallback) {
  const CycleConfig cfg = healthy2d();
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  fault::FaultInjector::instance().arm(fault::kPoolAlloc, 1);
  const SolveReport rep = guarded_solve(cfg, p, 1e-8);
  EXPECT_TRUE(rep.converged) << rep.summary();
  ASSERT_EQ(rep.attempts.size(), 1u)
      << "a one-shot pool fault must not cost a ladder rung";
  EXPECT_EQ(rep.attempts[0].executor_fallbacks, 1);
  EXPECT_EQ(fault::FaultInjector::instance().fired(fault::kPoolAlloc), 1);
}

TEST_F(GuardedSolveTest, KernelFaultIsAbsorbedByExecutorFallback) {
  const CycleConfig cfg = healthy2d();
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  fault::FaultInjector::instance().arm(fault::kKernelOutput, 1);
  const SolveReport rep = guarded_solve(cfg, p, 1e-8);
  EXPECT_TRUE(rep.converged) << rep.summary();
  ASSERT_EQ(rep.attempts.size(), 1u);
  EXPECT_EQ(rep.attempts[0].executor_fallbacks, 1);
}

TEST_F(GuardedSolveTest, RetriesRestartFromTheInitialIterate) {
  // If a later attempt started from the diverged iterate of an earlier
  // one it could never converge; the report proves each attempt began
  // at the caller's residual.
  CycleConfig cfg = healthy2d();
  cfg.omega = 1.9;
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  const SolveReport rep = guarded_solve(cfg, p, 1e-6);
  ASSERT_GE(rep.attempts.size(), 2u);
  for (const SolveAttempt& a : rep.attempts) {
    EXPECT_DOUBLE_EQ(a.first_residual, rep.initial_residual)
        << a.description;
  }
}

TEST_F(GuardedSolveTest, ExhaustedCycleBudgetDoesNotWalkTheLadder) {
  // Healthy contraction that simply needs more than max_cycles: every
  // ladder rung is a weaker configuration, so retrying could only end
  // with a worse residual. The solve must stop after one attempt.
  const CycleConfig cfg = healthy2d();
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.max_cycles = 2;  // far too few for 1e-10
  const SolveReport rep = guarded_solve(cfg, p, 1e-10, policy);
  EXPECT_FALSE(rep.converged);
  ASSERT_EQ(rep.attempts.size(), 1u) << rep.summary();
  EXPECT_EQ(rep.attempts[0].trend, health::Trend::Converging);
  EXPECT_EQ(rep.total_cycles, 2);
  EXPECT_LT(rep.final_residual, rep.initial_residual)
      << "the partial progress must be kept, not degraded away";
}

TEST_F(GuardedSolveTest, HistoryRingBoundsMemoryAndReportsDrops) {
  // Unattended long-running solves must not grow the residual history
  // without bound: the ring keeps the last history_limit entries and the
  // report says how many older ones were evicted.
  const CycleConfig cfg = healthy2d();
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.history_limit = 4;
  policy.max_cycles = 10;
  const SolveReport rep = guarded_solve(cfg, p, 1e-300, policy);
  ASSERT_GT(rep.total_cycles, 4) << rep.summary();
  EXPECT_EQ(rep.residual_history.size(), 4u);
  EXPECT_EQ(rep.history_dropped, rep.total_cycles - 4);
  // The ring holds the LAST four residuals — its first entry must match
  // the level the solve actually reached, not the opening cycles.
  EXPECT_LT(rep.residual_history.front(), rep.initial_residual);
  EXPECT_NE(rep.summary().find("dropped"), std::string::npos);

  // The RunReport merge carries the drop count for render().
  obs::RunReport rr;
  attach_convergence(rep, rr);
  EXPECT_EQ(rr.residual_history_dropped, rep.history_dropped);
}

TEST_F(GuardedSolveTest, LadderDisabledFailsFast) {
  CycleConfig cfg = healthy2d();
  cfg.omega = 1.9;
  PoissonProblem p = PoissonProblem::manufactured(2, cfg.n);
  GuardPolicy policy;
  policy.allow_reference_plan = false;
  policy.allow_smoother_downgrade = false;
  policy.allow_omega_reduction = false;
  const SolveReport rep = guarded_solve(cfg, p, 1e-6, policy);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.attempts.size(), 1u);
}

}  // namespace
}  // namespace polymg::solvers
