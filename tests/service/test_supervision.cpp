// Self-healing supervision (DESIGN.md §15): the solve watchdog's
// escalation ladder against injected uncooperative stalls, the bounded
// shutdown drain, cancel racing dequeue, and the progress-epoch
// heartbeat the whole plane is built on.
//
// Timing assertions use generous multiples of the configured budgets so
// a loaded CI host cannot flake them: we assert "well under the
// uncooperative stall length", never "within one poll period".
#include "polymg/service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "polymg/common/fault.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/report.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/solvers/guarded.hpp"

namespace polymg::service {
namespace {

using Clock = std::chrono::steady_clock;
using solvers::CycleConfig;
using solvers::PoissonProblem;

std::uint64_t ctr(const char* name) {
  return obs::Metrics::instance().counter(name).value();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
             .count() /
         1e6;
}

class SupervisionTest : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultInjector::instance().reset(); }
  void TearDown() override {
    fault::FaultInjector::instance().reset();
    if (obs::TraceSession::active()) obs::TraceSession::stop();
  }
};

CycleConfig small2d(poly::index_t n = 31) {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = n;
  cfg.levels = 3;
  cfg.n2 = 20;
  return cfg;
}

SolveRequest make_req(const CycleConfig& cfg, const std::string& tenant,
                      double rel_tol = 1e-8, double deadline_ms = 0.0) {
  SolveRequest req;
  req.cfg = cfg;
  req.opts = opt::CompileOptions::for_variant(opt::Variant::OptPlus, cfg.ndim);
  const PoissonProblem p = PoissonProblem::manufactured(cfg.ndim, cfg.n);
  req.rhs = p.f.clone();
  req.rel_tol = rel_tol;
  req.tenant = tenant;
  req.deadline_ms = deadline_ms;
  return req;
}

/// Watchdog-enabled config with fast stages so tests finish in tens of
/// milliseconds.
ServiceConfig watched_config(double stall_timeout_ms,
                             double stall_fault_ms) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.stall_timeout_ms = stall_timeout_ms;
  cfg.watchdog_poll_ms = 2.0;
  cfg.stall_fault_ms = stall_fault_ms;
  return cfg;
}

// ---------------------------------------------------------------------
// The heartbeat itself.
// ---------------------------------------------------------------------

// Every solve advances the attached progress sink: the executor bumps at
// every granule and the solver once per cycle, so a healthy solve's
// heartbeat moves by orders of magnitude more than the cycle count.
TEST_F(SupervisionTest, SolveAdvancesProgressHeartbeat) {
  const CycleConfig cfg = small2d();
  PoissonProblem p = PoissonProblem::manufactured(cfg.ndim, cfg.n);
  std::atomic<std::uint64_t> beat{0};
  solvers::GuardPolicy pol;
  pol.progress = &beat;
  const auto opts =
      opt::CompileOptions::for_variant(opt::Variant::OptPlus, cfg.ndim);
  const solvers::SolveReport rep =
      solvers::guarded_solve(cfg, p, 1e-8, pol, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(beat.load(), static_cast<std::uint64_t>(rep.total_cycles));
}

// ---------------------------------------------------------------------
// The escalation ladder against injected stalls.
// ---------------------------------------------------------------------

// A stall that outlives stage 1 but ends before stage 3: the watchdog's
// cooperative cancel resolves it and the request surfaces SolveStalled
// with a retry-after hint — an honest "the replica stalled, come back"
// instead of a silent multi-second hang.
TEST_F(SupervisionTest, StallResolvedBySupervisionIsSolveStalled) {
  // Stage 1 at 40 ms frozen, stage 3 at 120 ms; the stall lifts at
  // 60 ms, after which the solve promptly honours the stage-1 cancel —
  // a 60 ms cushion before stage 3 could misfire on a loaded host.
  SolveService svc(watched_config(/*stall_timeout_ms=*/40.0,
                                  /*stall_fault_ms=*/60.0));
  // Warm the plan cache and session first so the post-stall heartbeat
  // resumes immediately instead of waiting out a cold compile.
  const auto warm = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(warm.admitted);
  ASSERT_TRUE(svc.wait(warm.ticket).converged);

  const std::uint64_t stalls0 = ctr("service.stalls_detected");
  fault::ScopedFault stall(fault::kSolveStall, 1);

  const auto t0 = Clock::now();
  const auto adm = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm.admitted);
  const SolveResult res = svc.wait(adm.ticket);
  EXPECT_EQ(res.status, ErrorCode::SolveStalled);
  EXPECT_GT(res.retry_after_ms, 0.0);
  // Ended by supervision, not by the stall running a 60 s course.
  EXPECT_LT(ms_since(t0), 5000.0);
  EXPECT_GE(ctr("service.stalls_detected"), stalls0 + 1);

  // The service answers afterwards.
  const auto adm2 = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm2.admitted);
  EXPECT_TRUE(svc.wait(adm2.ticket).converged);
}

// A fully uncooperative stall (ignores the cancel, outlives every
// stage): the worker is declared lost, the waiter gets WorkerLost +
// retry-after, a replacement worker serves the next request, and
// shutdown still joins every thread.
TEST_F(SupervisionTest, UncooperativeStallLosesWorkerAndReplaces) {
  const std::uint64_t lost0 = ctr("service.workers_lost");
  const std::uint64_t quar0 = ctr("service.sessions_quarantined");
  SolveService svc(watched_config(/*stall_timeout_ms=*/20.0,
                                  /*stall_fault_ms=*/60000.0));
  fault::ScopedFault stall(fault::kSolveStall, 1);

  const auto t0 = Clock::now();
  const auto adm = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm.admitted);
  const SolveResult res = svc.wait(adm.ticket);
  EXPECT_EQ(res.status, ErrorCode::WorkerLost);
  EXPECT_GT(res.retry_after_ms, 0.0);
  EXPECT_LT(ms_since(t0), 10000.0);  // nowhere near the 60 s stall
  EXPECT_EQ(ctr("service.workers_lost"), lost0 + 1);
  EXPECT_GE(ctr("service.sessions_quarantined"), quar0 + 1);

  // The replacement worker answers.
  const auto adm2 = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm2.admitted);
  const SolveResult res2 = svc.wait(adm2.ticket);
  EXPECT_TRUE(res2.converged) << to_string(res2.status);

  // The killed zombie exits at its next poll: shutdown must not leak.
  svc.shutdown();
  EXPECT_EQ(svc.leaked_workers(), 0);
}

// Supervision statuses land in the tenant roll-up and the stalled
// column renders.
TEST_F(SupervisionTest, StallsVisibleInTenantStats) {
  SolveService svc(watched_config(40.0, 60.0));
  const auto warm = svc.submit(make_req(small2d(), "acme"));
  ASSERT_TRUE(warm.admitted);
  (void)svc.wait(warm.ticket);
  fault::ScopedFault stall(fault::kSolveStall, 1);
  const auto adm = svc.submit(make_req(small2d(), "acme"));
  ASSERT_TRUE(adm.admitted);
  (void)svc.wait(adm.ticket);
  const auto stats = svc.tenant_stats();
  ASSERT_TRUE(stats.count("acme"));
  EXPECT_EQ(stats.at("acme").stalled, 1);
  obs::RunReport rr;
  svc.attach_tenants(rr);
  ASSERT_EQ(rr.tenant_lines.size(), 1u);
  EXPECT_NE(rr.tenant_lines[0].find("stalled"), std::string::npos);
}

// ---------------------------------------------------------------------
// alloc.fail: resource exhaustion is Overloaded, never a dead worker.
// ---------------------------------------------------------------------

TEST_F(SupervisionTest, AllocFailureResolvesOverloadedWithHint) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SolveService svc(cfg);
  fault::ScopedFault alloc(fault::kAllocFail, 1);
  const auto adm = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm.admitted);
  const SolveResult res = svc.wait(adm.ticket);
  EXPECT_EQ(res.status, ErrorCode::Overloaded);
  EXPECT_GT(res.retry_after_ms, 0.0);
  // The worker survived: the very next request is served normally.
  const auto adm2 = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm2.admitted);
  EXPECT_TRUE(svc.wait(adm2.ticket).converged);
}

// ---------------------------------------------------------------------
// Bounded shutdown.
// ---------------------------------------------------------------------

// Shutdown under load: a full queue, in-flight solves and one worker
// stuck in an uncooperative stall. The drain deadline plus the kill
// grace bound the whole call; every ticket resolves to an honest
// terminal status and nothing hangs.
TEST_F(SupervisionTest, ShutdownUnderLoadIsBounded) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.stall_fault_ms = 60000.0;       // uncooperative without the kill flag
  cfg.shutdown_drain_ms = 100.0;      // phase 1: short drain
  cfg.shutdown_kill_grace_ms = 500.0; // phase 2: enough for the 1 ms poll
  SolveService svc(cfg);

  // One worker wedges on the first dequeue; the rest of the load queues.
  fault::ScopedFault stall(fault::kSolveStall, 1);
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    const auto adm = svc.submit(make_req(small2d(), "t"));
    if (adm.admitted) tickets.push_back(adm.ticket);
  }
  ASSERT_FALSE(tickets.empty());
  // Let the stalled worker actually dequeue before shutting down.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto t0 = Clock::now();
  svc.shutdown();
  // Generous bound: drain + grace + scheduling noise, far below the
  // 60 s the stall would otherwise hold the join hostage for.
  EXPECT_LT(ms_since(t0), 10000.0);

  for (const std::uint64_t t : tickets) {
    const SolveResult res = svc.wait(t);
    EXPECT_TRUE(res.status == ErrorCode::Cancelled ||
                res.status == ErrorCode::SolveStalled ||
                res.status == ErrorCode::WorkerLost ||
                res.status == ErrorCode::DeadlineExceeded ||
                res.status == ErrorCode::Generic)
        << "ticket " << t << " ended as " << to_string(res.status);
  }
  // The stall polls the kill flag every 1 ms, so the grace window is
  // enough: no worker needed detaching.
  EXPECT_EQ(svc.leaked_workers(), 0);
}

// Zero kill grace forces the detach path: shutdown must still return,
// count the leak, surface a RunReport warning, and the ticket held by
// the stuck worker must resolve rather than hang its waiter.
TEST_F(SupervisionTest, ShutdownDetachesTrulyStuckWorker) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.stall_fault_ms = 1000.0;       // wedged through both phases...
  cfg.shutdown_drain_ms = 30.0;
  cfg.shutdown_kill_grace_ms = 0.0;  // ...and given no grace at all
  SolveService svc(cfg);
  fault::ScopedFault stall(fault::kSolveStall, 1);
  const auto adm = svc.submit(make_req(small2d(), "t"));
  ASSERT_TRUE(adm.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto t0 = Clock::now();
  svc.shutdown();
  EXPECT_LT(ms_since(t0), 5000.0);

  const SolveResult res = svc.wait(adm.ticket);
  EXPECT_TRUE(res.status == ErrorCode::WorkerLost ||
              res.status == ErrorCode::SolveStalled)
      << to_string(res.status);
  if (svc.leaked_workers() > 0) {
    obs::RunReport rr;
    svc.attach_tenants(rr);
    ASSERT_FALSE(rr.warnings.empty());
    EXPECT_NE(rr.warnings[0].find("detached"), std::string::npos);
    EXPECT_NE(rr.render().find("WARNING"), std::string::npos);
  }
  // The kill flag ends the stall within a millisecond of its next poll;
  // give any detached thread time to finish its exit bookkeeping before
  // the service (and its mutex) are destroyed.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
}

// ---------------------------------------------------------------------
// Cancel racing dequeue.
// ---------------------------------------------------------------------

// A cancel storm racing the workers' dequeues: every ticket must
// resolve to a terminal status (served or cancelled, nothing stuck),
// the service must stay healthy, and shutdown must be clean. This is
// the classic lost-wakeup / double-completion race surface.
TEST_F(SupervisionTest, CancelRacingDequeueAlwaysTerminates) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.tenant_quota = 0;
  SolveService svc(cfg);

  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 24; ++i) {
    const auto adm = svc.submit(make_req(small2d(15), "t", 1e-6));
    if (adm.admitted) tickets.push_back(adm.ticket);
  }
  // Cancel every other ticket from a racing thread while workers drain.
  std::thread canceller([&] {
    for (std::size_t i = 0; i < tickets.size(); i += 2) {
      svc.cancel(tickets[i]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  int served = 0;
  int cancelled = 0;
  for (const std::uint64_t t : tickets) {
    const SolveResult res = svc.wait(t);
    if (res.status == ErrorCode::Cancelled) {
      ++cancelled;
    } else {
      EXPECT_EQ(res.status, ErrorCode::Generic);
      EXPECT_TRUE(res.converged);
      ++served;
    }
  }
  canceller.join();
  EXPECT_EQ(served + cancelled, static_cast<int>(tickets.size()));
  EXPECT_GT(served, 0);  // the un-cancelled half must actually serve
  svc.shutdown();
  EXPECT_EQ(svc.leaked_workers(), 0);
}

// Other tenants' requests keep being served (and meeting deadlines)
// while one worker is wedged: the watchdog isolates the blast radius to
// the stalled request.
TEST_F(SupervisionTest, StallDoesNotStarveOtherTenants) {
  ServiceConfig cfg = watched_config(/*stall_timeout_ms=*/20.0,
                                     /*stall_fault_ms=*/60000.0);
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  SolveService svc(cfg);
  fault::ScopedFault stall(fault::kSolveStall, 1);

  const auto bad = svc.submit(make_req(small2d(), "victim"));
  ASSERT_TRUE(bad.admitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<std::uint64_t> good;
  for (int i = 0; i < 8; ++i) {
    const auto adm = svc.submit(make_req(small2d(15), "bystander", 1e-6));
    if (adm.admitted) good.push_back(adm.ticket);
  }
  for (const std::uint64_t t : good) {
    const SolveResult res = svc.wait(t);
    EXPECT_TRUE(res.converged) << to_string(res.status);
  }
  const SolveResult res = svc.wait(bad.ticket);
  EXPECT_TRUE(res.status == ErrorCode::SolveStalled ||
              res.status == ErrorCode::WorkerLost);
  svc.shutdown();
  EXPECT_EQ(svc.leaked_workers(), 0);
}

}  // namespace
}  // namespace polymg::service
