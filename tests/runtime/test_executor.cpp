// Executor behaviour on small synthetic pipelines: memory lifecycle,
// output views, repeated invocation, and overlapped-tile execution on a
// pipeline with a live-out that has in-group consumers.
#include <gtest/gtest.h>

#include "polymg/common/parallel.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/poisson.hpp"

namespace polymg::runtime {
namespace {

using opt::CompileOptions;
using opt::Variant;
using poly::index_t;
using solvers::CycleConfig;

CycleConfig small2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 31;
  cfg.levels = 2;
  return cfg;
}

TEST(Executor, RepeatedRunsGiveIdenticalResults) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 5);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::OptPlus, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  grid::Buffer first = grid::make_grid(p.domain());
  grid::copy_region(grid::View::over(first.data(), p.domain()),
                    ex.output_view(0), p.domain());
  ex.run(ext);
  EXPECT_EQ(grid::max_diff(grid::View::over(first.data(), p.domain()),
                           ex.output_view(0), p.domain()),
            0.0);
}

/// Run `ex` `runs` times and check that every run after the first leaves
/// the pool exactly as the first did: no new mallocs, no growth.
void expect_pool_steady(Executor& ex, const std::vector<View>& ext,
                        int runs) {
  ex.run(ext);
  const long mallocs_after_first = ex.pool().malloc_calls();
  const index_t doubles_after_first = ex.pool().total_doubles();
  for (int i = 1; i < runs; ++i) {
    ex.run(ext);
    EXPECT_EQ(ex.pool().malloc_calls(), mallocs_after_first) << "run " << i;
    EXPECT_EQ(ex.pool().total_doubles(), doubles_after_first) << "run " << i;
  }
  EXPECT_GT(ex.pool().reuse_hits(), 0);
}

TEST(Executor, PooledModeHasNoSteadyStateMallocs) {
  {
    CycleConfig cfg = small2d();
    auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 6);
    Executor ex(opt::compile(solvers::build_cycle(cfg),
                             CompileOptions::for_variant(Variant::OptPlus, 2)));
    expect_pool_steady(ex, {p.v_view(), p.f_view()}, 4);
  }
  // Fig. 9's W-2D-10-0-0 at 1023^2: best fit over a warm pool once
  // picked other buffers than the first run's sequence did and made a
  // ninth malloc on the second run. Checked on one thread and a team.
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 1023;
  cfg.levels = 4;
  cfg.kind = solvers::CycleKind::W;
  cfg.n1 = 10;
  cfg.n2 = 0;
  cfg.n3 = 0;
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 6);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " thread(s)");
    const int prev = set_num_threads(threads);
    Executor ex(opt::compile(solvers::build_cycle(cfg),
                             CompileOptions::for_variant(Variant::OptPlus, 2)));
    expect_pool_steady(ex, {p.v_view(), p.f_view()}, 3);
    set_num_threads(prev);
  }
}

TEST(Executor, NonPooledModeUsesNoPool) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 7);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Opt, 2)));
  const std::vector<View> ext = {p.v_view(), p.f_view()};
  ex.run(ext);
  EXPECT_EQ(ex.pool().malloc_calls(), 0);
}

TEST(Executor, PoolReleaseShrinksPeakFootprint) {
  CycleConfig cfg = small2d();
  cfg.n = 63;
  cfg.levels = 3;
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 8);
  const std::vector<View> ext = {p.v_view(), p.f_view()};

  // Pin the barrier schedule: pool-release-at-last-use peaks are defined
  // on in-order group execution. The dependence schedule overlaps up to
  // two schedule nodes, which keeps up to two groups' arrays live past
  // their barrier-schedule release point — a bounded, interleaving-
  // dependent cost that would make this assertion nondeterministic.
  CompileOptions no_reuse = CompileOptions::for_variant(Variant::Opt, 2);
  no_reuse.dependence_schedule = false;
  Executor ex_plain(opt::compile(solvers::build_cycle(cfg), no_reuse));
  ex_plain.run(ext);

  CompileOptions pooled = CompileOptions::for_variant(Variant::OptPlus, 2);
  pooled.dependence_schedule = false;
  Executor ex_pooled(opt::compile(solvers::build_cycle(cfg), pooled));
  ex_pooled.run(ext);

  EXPECT_LT(ex_pooled.peak_array_doubles(), ex_plain.peak_array_doubles());
}

TEST(Executor, RejectsWrongExternalCount) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 9);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Naive, 2)));
  const std::vector<View> ext = {p.v_view()};
  try {
    ex.run(ext);
    FAIL() << "expected Error(PreconditionViolated)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::PreconditionViolated);
  }
}

TEST(Executor, RejectsExternalViewNotCoveringItsDomain) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 9);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Naive, 2)));
  // A view over a smaller grid: its inner extent cannot span the
  // declared (n+2)^2 domain.
  auto small = solvers::PoissonProblem::random_rhs(2, (cfg.n + 1) / 2 - 1, 9);
  const std::vector<View> ext = {small.v_view(), p.f_view()};
  try {
    ex.run(ext);
    FAIL() << "expected Error(PreconditionViolated)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::PreconditionViolated);
  }
}

TEST(Executor, RejectsShiftedExternalView) {
  CycleConfig cfg = small2d();
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 9);
  Executor ex(opt::compile(solvers::build_cycle(cfg),
                           CompileOptions::for_variant(Variant::Naive, 2)));
  // Right size, wrong origin: the view starts at (1,1) so it cannot
  // address row 0 of the declared domain.
  const poly::Box shifted = poly::Box::cube(2, 1, cfg.n + 2);
  View bad = View::over(p.v.data(), shifted);
  const std::vector<View> ext = {bad, p.f_view()};
  EXPECT_THROW(ex.run(ext), Error);
}

TEST(Executor, TileSizeSweepAllAgree) {
  // Property sweep: many tile shapes, one result.
  CycleConfig cfg = small2d();
  cfg.n = 63;
  cfg.levels = 3;
  auto p = solvers::PoissonProblem::random_rhs(2, cfg.n, 10);
  const std::vector<View> ext = {p.v_view(), p.f_view()};

  Executor ref(opt::compile(solvers::build_cycle(cfg),
                            CompileOptions::for_variant(Variant::Naive, 2)));
  ref.run(ext);
  grid::Buffer expected = grid::make_grid(p.domain());
  grid::copy_region(grid::View::over(expected.data(), p.domain()),
                    ref.output_view(0), p.domain());

  for (poly::index_t t0 : {8, 16, 64}) {
    for (poly::index_t t1 : {16, 64, 128}) {
      CompileOptions opts = CompileOptions::for_variant(Variant::OptPlus, 2);
      opts.tile = {t0, t1, 0};
      Executor ex(opt::compile(solvers::build_cycle(cfg), opts));
      ex.run(ext);
      EXPECT_LE(grid::max_diff(grid::View::over(expected.data(), p.domain()),
                               ex.output_view(0), p.domain()),
                1e-13)
          << "tile " << t0 << "x" << t1;
    }
  }
}

}  // namespace
}  // namespace polymg::runtime
