// perfbench driver: runs one workload of the repository benchmark and
// writes its raw samples as one JSON document. run.py builds this
// binary, generates the inputs from the seed, runs it, checks the
// outcome and turns the samples into the metrics BENCHMARK.json names.
//
//   perfbench_driver --workload cycle-cache|solve-dram|service-open
//                    --seed N --seconds S --out samples.json
//                    [--spans spans.tsv]       record per-layer spans and
//                                              run the bandwidth probe
//                    [--schedule arrivals.tsv] open-loop arrivals
//                    [--jit-cache-dir DIR]     fresh JIT cache root
//
// Every constant of a workload (sizes, cycle counts, team and worker
// counts, set-up repetitions, the service deadline) lives in this file.
// Every call into the library goes through a perfbench::Span tagged with
// the module it enters, so the traced run can split the run's wall time
// by layer without enabling the library's own tracing.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "polymg/codegen/jit.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/runtime/guarded.hpp"
#include "polymg/service/service.hpp"
#include "polymg/solvers/guarded.hpp"
#include "polymg/solvers/handopt.hpp"
#include "polymg/solvers/metrics.hpp"
#include "polymg/solvers/poisson.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace polymg;
using poly::index_t;
using Clock = std::chrono::steady_clock;

constexpr double kRelTol = 1e-8;
// Recomputed residuals may differ from the guard's in the last bits
// (the norm's reduction order follows the team size).
constexpr double kTolSlack = 1e-6;
// opt+ and handopt iterates after the same cycles: the schedules differ
// only in summation order, so they agree to rounding.
constexpr double kIterateRelTol = 1e-10;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Raw output document.

/// One solve: a service request, or (service == false) a direct
/// solvers::guarded_solve call, whose queue and admission fields are 0.
struct RequestRecord {
  std::string sig;
  int rhs = 0;  ///< index of the right-hand side in the run's inputs
  bool service = true;
  int tenant = 0;
  bool admitted = false;
  std::string status;
  bool converged = false;
  bool degraded = false;
  bool ok = false;
  double late_ms = 0.0;
  double admit_us = 0.0;
  double lat_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  int cycles = 0;
  double rel_residual = 0.0;
};

struct Output {
  std::map<std::string, std::string> info;
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> series;
  std::vector<RequestRecord> requests;  // guarded by mu once threads run
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;  // failed checks of results, see check_result
  std::vector<std::string> failures;
  std::mutex mu;

  void check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lk(mu);
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  /// A check whose failure is a wrong result rather than a failed
  /// operation: it also marks the whole run incorrect.
  void check_result(bool ok, const std::string& what) {
    check(ok, what);
    if (!ok) {
      std::lock_guard<std::mutex> lk(mu);
      ++wrong;
    }
  }
  void add(const std::string& name, double v) { series[name].push_back(v); }
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_output(const Output& o, const std::string& path) {
  std::ostringstream s;
  s << "{\"info\":{";
  bool first = true;
  for (const auto& [k, v] : o.info) {
    s << (first ? "" : ",") << json_str(k) << ":" << json_str(v);
    first = false;
  }
  s << "},\"scalars\":{";
  first = true;
  for (const auto& [k, v] : o.scalars) {
    s << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
    first = false;
  }
  s << "},\"series\":{";
  first = true;
  for (const auto& [k, vs] : o.series) {
    s << (first ? "" : ",") << json_str(k) << ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      s << (i ? "," : "") << json_num(vs[i]);
    }
    s << "]";
    first = false;
  }
  s << "},\"requests\":[";
  for (std::size_t i = 0; i < o.requests.size(); ++i) {
    const RequestRecord& r = o.requests[i];
    s << (i ? "," : "") << "{\"sig\":" << json_str(r.sig)
      << ",\"rhs\":" << r.rhs
      << ",\"service\":" << (r.service ? "true" : "false")
      << ",\"tenant\":" << r.tenant
      << ",\"admitted\":" << (r.admitted ? "true" : "false")
      << ",\"status\":" << json_str(r.status)
      << ",\"converged\":" << (r.converged ? "true" : "false")
      << ",\"degraded\":" << (r.degraded ? "true" : "false")
      << ",\"ok\":" << (r.ok ? "true" : "false")
      << ",\"late_ms\":" << json_num(r.late_ms)
      << ",\"admit_us\":" << json_num(r.admit_us)
      << ",\"lat_ms\":" << json_num(r.lat_ms)
      << ",\"queue_ms\":" << json_num(r.queue_ms)
      << ",\"solve_ms\":" << json_num(r.solve_ms)
      << ",\"cycles\":" << r.cycles
      << ",\"rel_residual\":" << json_num(r.rel_residual) << "}";
  }
  s << "],\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
    << ",\"wrong\":" << o.wrong << ",\"failures\":[";
  for (std::size_t i = 0; i < o.failures.size(); ++i) {
    s << (i ? "," : "") << json_str(o.failures[i]);
  }
  s << "]}\n";
  std::ofstream f(path);
  f << s.str();
  if (!f) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Problems and signatures.

struct Sig {
  std::string name;
  solvers::CycleConfig cfg;
};

/// Deepest hierarchy the cycle builder accepts (coarsest grid 3 points
/// per dimension): the "full depth" of the workload definitions.
int full_depth_levels(index_t n) {
  int levels = 1;
  while ((n - 1) / 2 >= 3) {
    n = (n - 1) / 2;
    ++levels;
  }
  return levels;
}

Sig v_cycle(int ndim, index_t n) {
  Sig s;
  s.cfg.ndim = ndim;
  s.cfg.n = n;
  s.cfg.levels = full_depth_levels(n);
  s.cfg.kind = solvers::CycleKind::V;
  s.cfg.n1 = s.cfg.n2 = s.cfg.n3 = 4;
  s.name = "V-" + std::to_string(ndim) + "D-4-4-4-n" + std::to_string(n);
  return s;
}

opt::CompileOptions opt_plus(const Sig& s) {
  return opt::CompileOptions::for_variant(opt::Variant::OptPlus, s.cfg.ndim);
}

poly::Box domain_of(const solvers::CycleConfig& c) {
  return poly::Box::cube(c.ndim, 0, c.n + 1);
}
poly::Box interior_of(const solvers::CycleConfig& c) {
  return poly::Box::cube(c.ndim, 1, c.n);
}

/// Right-hand side uniform in [-1, 1] from `seed` on the interior.
void fill_rhs(grid::View f, const solvers::CycleConfig& c,
              std::uint64_t seed) {
  Rng rng(seed);
  grid::fill_region(f, interior_of(c), [&](index_t, index_t, index_t) {
    return rng.uniform(-1.0, 1.0);
  });
}

/// Zero initial guess, right-hand side from `seed`.
solvers::PoissonProblem make_problem(const solvers::CycleConfig& c,
                                     std::uint64_t seed) {
  Span sp(Layer::Harness, "make_grid+fill_region");
  solvers::PoissonProblem p;
  p.ndim = c.ndim;
  p.n = c.n;
  p.h = 1.0 / static_cast<double>(c.n + 1);
  p.v = grid::make_grid(p.domain());
  p.f = grid::make_grid(p.domain());
  fill_rhs(p.f_view(), c, seed);
  return p;
}

grid::View view_of(grid::Buffer& b, const solvers::CycleConfig& c) {
  return grid::View::over(b.data(), domain_of(c));
}

double rel_residual(grid::View v, grid::View f, const solvers::CycleConfig& c,
                    double r0) {
  Span sp(Layer::Harness, "residual_norm");
  const double r =
      solvers::residual_norm(v, f, c.n, 1.0 / static_cast<double>(c.n + 1));
  return r / r0;
}

bool iterates_agree(grid::View a, grid::View b, const solvers::CycleConfig& c,
                    double* rel) {
  Span sp(Layer::Harness, "max_diff");
  const double scale = grid::max_norm(b, interior_of(c));
  *rel = grid::max_diff(a, b, interior_of(c)) / (scale > 0 ? scale : 1.0);
  return *rel <= kIterateRelTol;
}

// ---------------------------------------------------------------------------
// Plan statistics read from the public plan.

struct PlanStats {
  double groups = 0, stages = 0, computed_points = 0, useful_points = 0,
         model_bytes = 0;
};

PlanStats plan_stats(const opt::CompiledPipeline& plan) {
  PlanStats st;
  st.groups = static_cast<double>(plan.groups.size());
  for (const opt::GroupPlan& g : plan.groups) {
    st.stages += static_cast<double>(g.stages.size());
    // Compulsory traffic under the plan's fusion: each group reads every
    // external or out-of-group source once and writes each array-backed
    // stage once; values passed between stages of a group stay on chip.
    std::set<int> in_group, read_funcs, read_exts;
    for (const opt::StagePlan& sp : g.stages) in_group.insert(sp.func);
    for (const opt::StagePlan& sp : g.stages) {
      const ir::FunctionDecl& f = plan.func(sp.func);
      for (const ir::SourceSlot& src : f.sources) {
        if (src.external) {
          read_exts.insert(src.index);
        } else if (!in_group.count(src.index)) {
          read_funcs.insert(src.index);
        }
      }
      if (sp.array >= 0) {
        st.model_bytes += static_cast<double>(f.domain.count()) *
                          static_cast<double>(grid::dtype_size(
                              plan.dtype_of_func(sp.func)));
      }
    }
    for (int e : read_exts) {
      st.model_bytes +=
          static_cast<double>(plan.pipe.externals[e].domain.count()) *
          static_cast<double>(grid::dtype_size(plan.dtype_of_external(e)));
    }
    for (int fi : read_funcs) {
      st.model_bytes +=
          static_cast<double>(plan.func(fi).domain.count()) *
          static_cast<double>(grid::dtype_size(plan.dtype_of_func(fi)));
    }
    if (g.exec != opt::GroupExec::OverlapTiled) continue;
    const std::size_t ns = g.stages.size();
    if (ns == 0 || g.tile_regions_cache.size() != ns * g.tiles.total) continue;
    for (index_t t = 0; t < g.tiles.total; ++t) {
      const poly::Box tile = g.tiles.tile_box(t);
      for (std::size_t s = 0; s < ns; ++s) {
        const poly::Box& reg = g.tile_regions_cache[t * ns + s];
        const opt::StagePlan& sp = g.stages[s];
        const poly::Box own = opt::owned_region(plan.func(sp.func), sp.rel,
                                                tile, g.tiles.domain);
        st.computed_points += static_cast<double>(reg.count());
        st.useful_points +=
            static_cast<double>(poly::intersect(reg, own).count());
      }
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// A closed-loop cycle rig: one signature's problem, its opt+ executor and
// the two hand-written references, each advancing its own iterate.

struct BuildTimes {
  double compile_ms = 0, jit_ms = 0, init_ms = 0, first_run_ms = 0;
};

struct Rig {
  Sig sig;
  int team = 1;
  solvers::PoissonProblem p;  // p.v is the opt+ iterate
  double r0 = 0.0;            // residual of the zero guess
  std::unique_ptr<runtime::Executor> ex;
  std::unique_ptr<solvers::HandOptSolver> hand, pluto;
  grid::Buffer v_hand, v_pluto, v_1t;
  PlanStats stats;
  double bound_kernels = 0;
  double array_mb = 0;

  /// One opt+ cycle on iterate `v`: Executor::run plus the copy of the
  /// output back into the iterate. Returns {run_ms, copy_ms}.
  std::pair<double, double> opt_cycle(grid::Buffer& v) {
    const std::vector<grid::View> e = {view_of(v, sig.cfg), p.f_view()};
    Span run(Layer::Runtime, "Executor::run");
    ex->run(e);
    const double run_ms = run.stop();
    Span copy(Layer::Grid, "copy_region");
    grid::copy_region(view_of(v, sig.cfg), ex->output_view(0),
                      domain_of(sig.cfg));
    return {run_ms, copy.stop()};
  }

  /// One cycle of a hand-written reference; returns its milliseconds.
  double ref_cycle(solvers::HandOptSolver& s, grid::Buffer& v) {
    Span sp(Layer::Harness, "HandOptSolver::cycle");
    s.cycle(view_of(v, sig.cfg), p.f_view());
    return sp.stop();
  }
};

/// Build a rig: problem, then compile -> jit_specialize -> Executor ->
/// first run, each timed into `bt`.
std::unique_ptr<Rig> build_rig(const Sig& sig, std::uint64_t seed, int team,
                               BuildTimes* bt) {
  auto r = std::make_unique<Rig>();
  r->sig = sig;
  r->team = team;
  r->p = make_problem(sig.cfg, seed);
  r->r0 = rel_residual(r->p.v_view(), r->p.f_view(), sig.cfg, 1.0);
  set_num_threads(team);

  Span sc(Layer::Opt, "opt::compile");
  opt::CompiledPipeline plan =
      opt::compile(solvers::build_cycle(sig.cfg), opt_plus(sig));
  bt->compile_ms += sc.stop();

  Span sj(Layer::Codegen, "jit_specialize");
  codegen::jit_specialize(plan);
  bt->jit_ms += sj.stop();
  r->bound_kernels = codegen::jit_bound_kernels(plan);
  r->stats = plan_stats(plan);

  Span si(Layer::Runtime, "Executor::Executor");
  r->ex = std::make_unique<runtime::Executor>(std::move(plan));
  bt->init_ms += si.stop();

  const auto [run_ms, copy_ms] = r->opt_cycle(r->p.v);
  bt->first_run_ms += run_ms + copy_ms;
  r->array_mb = static_cast<double>(r->ex->peak_array_doubles()) * 8.0 / 1e6;
  return r;
}

/// Give a rig its references (handopt+pluto, optionally handopt) and a
/// one-thread iterate, each run once so their buffers exist before any
/// timed cycle. Not part of setup_s.
void add_refs(Rig& r, bool hand, bool one_thread_iterate) {
  const poly::Box dom = domain_of(r.sig.cfg);
  set_num_threads(r.team);
  r.pluto = std::make_unique<solvers::HandOptSolver>(r.sig.cfg, true);
  r.v_pluto = grid::make_grid(dom);
  r.ref_cycle(*r.pluto, r.v_pluto);
  if (hand) {
    r.hand = std::make_unique<solvers::HandOptSolver>(r.sig.cfg, false);
    r.v_hand = grid::make_grid(dom);
    r.ref_cycle(*r.hand, r.v_hand);
  }
  if (one_thread_iterate) r.v_1t = grid::make_grid(dom);
}

/// One closed-loop round on a rig. Every iterate restarts from the zero
/// guess; `cycles` opt+ cycles on the rig's team run interleaved with
/// the same number of cycles of each reference, so machine drift hits
/// both sides of vs_handopt_pluto alike; then `cycles_1t` opt+ cycles on
/// one thread. The opt+ iterate must match every reference after the
/// round, and the one-thread iterate too when it ran as many cycles
/// (without a one-thread iterate those cycles continue on p.v).
void cycle_round(Rig& r, int cycles, int cycles_1t, Output& out) {
  const std::string key = "cyc." + r.sig.name + ".";
  const solvers::CycleConfig& c = r.sig.cfg;
  {
    Span sp(Layer::Harness, "Buffer::fill");
    for (grid::Buffer* b : {&r.p.v, &r.v_hand, &r.v_pluto, &r.v_1t}) {
      if (b->size() > 0) b->fill(0.0);
    }
  }
  set_num_threads(r.team);
  const std::int64_t pops0 = r.ex->queue_pops();
  const std::int64_t spins0 = r.ex->queue_spins();
  double regions = 0;
  for (int i = 0; i < cycles; ++i) {
    const std::uint64_t before = parallel_regions_entered();
    const auto [run_ms, copy_ms] = r.opt_cycle(r.p.v);
    regions += static_cast<double>(parallel_regions_entered() - before);
    out.add(key + "opt_ms", run_ms + copy_ms);
    out.add(key + "run_ms", run_ms);
    out.add(key + "copy_ms", copy_ms);
    out.add(key + "pluto_ms", r.ref_cycle(*r.pluto, r.v_pluto));
    if (r.hand) out.add(key + "handopt_ms", r.ref_cycle(*r.hand, r.v_hand));
  }
  out.add(key + "regions_per_run", regions / cycles);
  out.add(key + "pops_per_run",
          static_cast<double>(r.ex->queue_pops() - pops0) / cycles);
  out.add(key + "spins_per_run",
          static_cast<double>(r.ex->queue_spins() - spins0) / cycles);

  double rel = 0;
  const bool pluto_ok =
      iterates_agree(r.p.v_view(), view_of(r.v_pluto, c), c, &rel);
  out.check_result(pluto_ok, r.sig.name + ": opt+ vs handopt+pluto rel diff " +
                                 std::to_string(rel));
  if (r.hand) {
    const bool hand_ok =
        iterates_agree(r.p.v_view(), view_of(r.v_hand, c), c, &rel);
    out.check_result(hand_ok, r.sig.name + ": opt+ vs handopt rel diff " +
                                  std::to_string(rel));
  }

  // One-thread cycles rotate over the CPUs the process may use, pinned to
  // each in turn: on a shared host the cores differ in speed and drift,
  // and a run that happened to sit on one slow core would shift
  // cycle_1t_ms by itself.
  set_num_threads(1);
  grid::Buffer& v1 = r.v_1t.size() > 0 ? r.v_1t : r.p.v;
  cpu_set_t all;
  CPU_ZERO(&all);
  pthread_getaffinity_np(pthread_self(), sizeof all, &all);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
  }
  for (int i = 0; i < cycles_1t; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(i) * cpus.size() / cycles_1t],
            &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    const auto [run_ms, copy_ms] = r.opt_cycle(v1);
    out.add(key + "opt1t_ms", run_ms + copy_ms);
  }
  pthread_setaffinity_np(pthread_self(), sizeof all, &all);
  set_num_threads(r.team);
  if (r.v_1t.size() > 0 && cycles_1t == cycles) {
    const bool t1_ok =
        iterates_agree(r.p.v_view(), view_of(r.v_1t, c), c, &rel);
    out.check_result(t1_ok, r.sig.name + ": opt+ 1 thread vs team rel diff " +
                                std::to_string(rel));
  }
}

void record_rig_stats(const std::vector<Rig*>& rigs, Output& out) {
  double groups = 0, stages = 0, computed = 0, useful = 0, bound = 0,
         array_mb = 0;
  for (const Rig* r : rigs) {
    groups += r->stats.groups;
    stages += r->stats.stages;
    computed += r->stats.computed_points;
    useful += r->stats.useful_points;
    bound += r->bound_kernels;
    array_mb += r->array_mb;
    out.scalars["cyc." + r->sig.name + ".model_bytes"] = r->stats.model_bytes;
  }
  out.scalars["opt.groups"] = groups;
  out.scalars["opt.stages"] = stages;
  out.scalars["opt.overlap_redundancy"] =
      useful > 0 ? (computed - useful) / useful : 0.0;
  out.scalars["opt.array_mb"] = array_mb;
  out.scalars["codegen.bound_kernels"] = bound;
}

void record_build(const BuildTimes& bt, Output& out) {
  out.add("opt.compile_ms", bt.compile_ms);
  out.add("codegen.jit_ms", bt.jit_ms);
  out.add("runtime.executor_init_ms", bt.init_ms);
  out.add("runtime.first_run_ms", bt.first_run_ms);
}

// ---------------------------------------------------------------------------
// Service requests.

struct RhsPool {
  std::vector<grid::Buffer> rhs;
  std::vector<double> r0;
};

RhsPool make_rhs_pool(const Sig& sig, std::uint64_t seed, int count) {
  RhsPool pool;
  grid::Buffer zero = grid::make_grid(domain_of(sig.cfg));
  for (int i = 0; i < count; ++i) {
    solvers::PoissonProblem p =
        make_problem(sig.cfg, seed * 1000003ULL + static_cast<unsigned>(i));
    pool.r0.push_back(rel_residual(view_of(zero, sig.cfg), p.f_view(),
                                   sig.cfg, 1.0));
    pool.rhs.push_back(std::move(p.f));
  }
  return pool;
}

service::SolveRequest make_request(const Sig& sig, const grid::Buffer& rhs,
                                   int tenant, double deadline_ms,
                                   double rel_tol = kRelTol) {
  service::SolveRequest req;
  req.cfg = sig.cfg;
  req.opts = opt_plus(sig);
  {
    Span sp(Layer::Harness, "Buffer::clone");
    req.rhs = rhs.clone();
  }
  req.rel_tol = rel_tol;
  req.tenant = "t" + std::to_string(tenant);
  req.deadline_ms = deadline_ms;
  return req;
}

/// Judge a finished request and fill its record. A request is correct
/// only when it was served, converged, and its iterate's recomputed
/// residual meets the requested tolerance — degraded or deadline-stopped
/// solves that miss it count as failures.
void judge(service::SolveResult& res, const Sig& sig, const grid::Buffer& rhs,
           double r0, RequestRecord& rec) {
  rec.status = to_string(res.status);
  rec.converged = res.converged;
  rec.degraded = res.degraded;
  rec.queue_ms = res.queue_ms;
  rec.solve_ms = res.solve_ms;
  rec.cycles = res.report.total_cycles;
  rec.ok = false;
  if (res.status == ErrorCode::Generic && res.iterate.size() == rhs.size()) {
    grid::Buffer& f = const_cast<grid::Buffer&>(rhs);
    rec.rel_residual = rel_residual(view_of(res.iterate, sig.cfg),
                                    view_of(f, sig.cfg), sig.cfg, r0);
    rec.ok = res.converged && rec.rel_residual <= kRelTol * (1 + kTolSlack);
  }
}

/// Closed loop, one caller: submit, wait, judge. The due time is the
/// instant the caller issues the request.
void closed_loop_request(service::SolveService& svc, const Sig& sig,
                         const RhsPool& pool, int rhs, Output& out) {
  service::SolveRequest req = make_request(sig, pool.rhs[rhs], 0, 0.0);
  RequestRecord rec;
  rec.sig = sig.name;
  rec.rhs = rhs;
  const Clock::time_point due = Clock::now();
  Span sub(Layer::Service, "SolveService::submit");
  const Clock::time_point t_submit = Clock::now();
  service::SolveService::Admission adm = svc.submit(std::move(req));
  rec.admit_us = sub.stop() * 1e3;
  rec.late_ms = ms_between(due, t_submit);
  rec.admitted = adm.admitted;
  if (adm.admitted) {
    Span w(Layer::Service, "SolveService::wait");
    service::SolveResult res = svc.wait(adm.ticket);
    w.nest_tail(Layer::Solvers, "guarded_solve (worker)", res.solve_ms);
    rec.lat_ms = rec.late_ms + rec.admit_us / 1e3 + res.e2e_ms;
    judge(res, sig, pool.rhs[rhs], pool.r0[rhs], rec);
  } else {
    rec.status = to_string(adm.reason);
  }
  out.check(rec.ok, sig.name + " request " + rec.status + " rel " +
                        std::to_string(rec.rel_residual));
  std::lock_guard<std::mutex> lk(out.mu);
  out.requests.push_back(rec);
}

/// Plan-cache hit ratio over the service's life. A worker with a warm
/// session never asks the cache again, so the lookups are the session
/// builds: warm-up requests and any rebuild.
void record_service(service::SolveService& svc, Output& out) {
  const double hits = static_cast<double>(svc.plans().hits());
  const double misses = static_cast<double>(svc.plans().misses());
  out.scalars["opt.plan_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ---------------------------------------------------------------------------
// Machine description and the STREAM-style copy probe.

int cpus_allowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(CPU_COUNT(&set), 1);
}

double l3_bytes() {
  const long n = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (n > 0) return static_cast<double>(n);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  double v = 0;
  std::string unit;
  if (!(f >> v)) return 0.0;
  std::getline(f, unit);
  if (!unit.empty() && unit[0] == 'K') v *= 1024.0;
  if (!unit.empty() && unit[0] == 'M') v *= 1024.0 * 1024.0;
  return v;
}

/// Copy bandwidth through grid::copy_region on two buffers of
/// max(4 × L3, 1.2 GB) each, copied in row bands by one thread per
/// allowed CPU. Run before any workload array exists; the buffers are
/// freed on return.
void stream_probe(Output& out) {
  const int team = cpus_allowed();
  const double bytes = std::max(4.0 * l3_bytes(), 1.2e9);
  const index_t side = static_cast<index_t>(std::ceil(std::sqrt(bytes / 8.0)));
  const poly::Box box = poly::Box::cube(2, 0, side - 1);
  grid::Buffer a, b;
  {
    Span sp(Layer::Harness, "make_grid");
    a = grid::make_grid(box);
    b = grid::make_grid(box);
  }
  const grid::View va = grid::View::over(a.data(), box);
  const grid::View vb = grid::View::over(b.data(), box);
  const double moved = 2.0 * static_cast<double>(side) *
                       static_cast<double>(side) * 8.0;  // read + write
  for (int rep = 0; rep < 3; ++rep) {
    Span sp(Layer::Harness, "copy_region");
#pragma omp parallel num_threads(team)
    {
      const index_t nt = team_size(), t = thread_id();
      const index_t lo = side * t / nt, hi = side * (t + 1) / nt - 1;
      if (lo <= hi) {
        const poly::Box band({{lo, hi}, {0, side - 1}});
        grid::copy_region(rep % 2 ? va : vb, rep % 2 ? vb : va, band);
      }
    }
    out.add("grid.stream_gbps", moved / (sp.stop() * 1e-3) / 1e9);
  }
  // The same bands through std::memcpy: the machine's copy bandwidth,
  // against which copy_region's own per-point cost shows.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel num_threads(team)
    {
      const index_t nt = team_size(), t = thread_id();
      const index_t lo = side * t / nt, hi = side * (t + 1) / nt;
      const std::size_t off = static_cast<std::size_t>(lo * side);
      const std::size_t len = static_cast<std::size_t>((hi - lo) * side);
      double* dst = rep % 2 ? a.data() : b.data();
      const double* src = rep % 2 ? b.data() : a.data();
      std::memcpy(dst + off, src + off, len * sizeof(double));
    }
    out.add("grid.memcpy_gbps",
            moved / (ms_between(t0, Clock::now()) * 1e-3) / 1e9);
  }
  out.scalars["grid.stream_buffer_mb"] =
      static_cast<double>(side) * static_cast<double>(side) * 8.0 / 1e6;
  out.scalars["grid.stream_threads"] = team;
}

// ---------------------------------------------------------------------------
// Workloads.

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Warm `copies` worker sessions for a signature: `copies` requests in
/// flight together (at a loose tolerance: one cycle builds the session).
void warm_request(service::SolveService& svc, const Sig& sig,
                  const grid::Buffer& rhs, int copies) {
  std::vector<std::uint64_t> tickets;
  for (int k = 0; k < copies; ++k) {
    service::SolveRequest req = make_request(sig, rhs, 0, 0.0, 0.5);
    Span sp(Layer::Service, "SolveService::submit");
    auto adm = svc.submit(std::move(req));
    if (!adm.admitted) throw std::runtime_error("warm request shed");
    tickets.push_back(adm.ticket);
  }
  for (std::uint64_t t : tickets) {
    Span sp(Layer::Service, "SolveService::wait");
    const service::SolveResult res = svc.wait(t);
    sp.nest_tail(Layer::Solvers, "guarded_solve (worker)", res.solve_ms);
  }
}

struct Args {
  std::string workload, out, spans, schedule, jit_base;
  std::uint64_t seed = 0;
  double seconds = 0;
};

/// A workload's team size and set-up repetitions; its sizes and cycle
/// counts are in its run function.
struct Workload {
  const char* name;
  int team;        ///< OpenMP threads of every compute team
  int setup_reps;  ///< set-up repetitions; setup_s is their median
  void (*run)(const Args&, const Workload&, Output&);
};

/// Start a setup repetition once the previous one's objects are gone.
/// Each repetition compiles against its own empty JIT cache, so no
/// repetition (and no earlier run) can serve another from cache, and the
/// heap the previous repetition freed goes back to the system, so
/// discarded repetitions do not raise peak_rss_mb.
void begin_setup_rep(const Args& a, int rep) {
  malloc_trim(0);
  if (a.jit_base.empty()) return;
  codegen::set_jit_cache_dir(a.jit_base + "/rep" + std::to_string(rep));
  codegen::jit_clear_memory_cache();
}

/// Start a measured round: return the heap freed so far to the system
/// and restart the resident high-water mark from the current resident
/// size. peak_rss_mb is the median of the rounds' marks: glibc keeps
/// freed heap per thread in amounts that vary from run to run, which
/// moved a whole-run mark of cycle-cache by 20% between runs. Where the
/// mark cannot be reset, each round reads the run's mark so far.
void begin_round() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// End a measured round: record its resident high-water mark.
void end_round(Output& out) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.add("peak_rss_mb", std::stod(line.substr(6)) / 1024.0);
      return;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

service::ServiceConfig service_config(int workers) {
  service::ServiceConfig sc;
  sc.workers = workers;
  return sc;
}

/// cycle-cache: W-2D-10-0-0 at 1023² (4 levels), opt+ on the team
/// interleaved with handopt+pluto and handopt, a one-thread opt+ segment,
/// and closed-loop V-4-4-4 full-depth solves through a one-worker service,
/// taking kRhs right-hand sides in turn: one input's solve needs 8 to 10
/// cycles depending on the seed, a set of them varies less.
void run_cycle_cache(const Args& a, const Workload& wl, Output& out) {
  constexpr int kRhs = 8;
  const int team = wl.team;
  Sig w;
  w.cfg.ndim = 2;
  w.cfg.n = 1023;
  w.cfg.levels = 4;
  w.cfg.kind = solvers::CycleKind::W;
  w.cfg.n1 = 10;
  w.cfg.n2 = 0;
  w.cfg.n3 = 0;
  w.name = "W-2D-10-0-0-n1023";
  const Sig v = v_cycle(2, 1023);

  std::unique_ptr<Rig> rig, vrig;
  std::unique_ptr<service::SolveService> svc;
  for (int rep = 0; rep < wl.setup_reps; ++rep) {
    svc.reset();
    rig.reset();
    vrig.reset();
    begin_setup_rep(a, rep);
    const Clock::time_point t0 = Clock::now();
    BuildTimes bt;
    rig = build_rig(w, a.seed, team, &bt);
    BuildTimes vbt;
    vrig = build_rig(v, a.seed, team, &vbt);
    {
      Span sp(Layer::Service, "SolveService::SolveService");
      svc = std::make_unique<service::SolveService>(service_config(1));
    }
    warm_request(*svc, v, vrig->p.f, 1);
    out.add("setup_s", ms_between(t0, Clock::now()) / 1e3);
    record_build(bt, out);
  }
  add_refs(*rig, /*hand=*/true, /*one_thread_iterate=*/true);
  const RhsPool pool = make_rhs_pool(v, a.seed, kRhs);

  const Clock::time_point end = Clock::now() + seconds(a.seconds);
  int next_rhs = 0;
  do {
    begin_round();
    cycle_round(*rig, 10, 10, out);
    set_num_threads(team);
    for (int i = 0; i < 3; ++i) {
      out.add("cyc." + v.name + ".run_ms", vrig->opt_cycle(vrig->p.v).first);
    }
    for (int i = 0; i < 4; ++i) {
      closed_loop_request(*svc, v, pool, next_rhs++ % kRhs, out);
    }
    end_round(out);
  } while (Clock::now() < end);
  svc->shutdown();
  record_service(*svc, out);
  record_rig_stats({rig.get()}, out);
  out.info["cycle_sigs"] = w.name;
}

/// solve-dram: V-4-4-4 full depth at 8191². Opt+ cycles on the team
/// interleaved with handopt+pluto cycles, two opt+ cycles on one thread
/// and a few handopt cycles; then solvers::guarded_solve to 1e-8 from
/// the zero guess on the team, each time for another right-hand side
/// from the seed, at least kMinSolves times and until --seconds have
/// passed since set-up ended, reusing one session
/// GuardedExecutor warmed by one run (as a service worker keeps one per
/// signature). Phases free their 512 MB arrays before the next phase
/// allocates.
void run_solve_dram(const Args& a, const Workload& wl, Output& out) {
  constexpr int kTeamCycles = 5;
  constexpr int kMinSolves = 3;
  const int team = wl.team;
  const Sig v = v_cycle(2, 8191);
  const solvers::CycleConfig& c = v.cfg;
  const std::string key = "cyc." + v.name + ".";

  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < wl.setup_reps; ++rep) {
    rig.reset();
    begin_setup_rep(a, rep);
    const Clock::time_point t0 = Clock::now();
    BuildTimes bt;
    rig = build_rig(v, a.seed, team, &bt);
    out.add("setup_s", ms_between(t0, Clock::now()) / 1e3);
    record_build(bt, out);
  }
  record_rig_stats({rig.get()}, out);
  const Clock::time_point end = Clock::now() + seconds(a.seconds);
  add_refs(*rig, /*hand=*/false, /*one_thread_iterate=*/false);
  cycle_round(*rig, kTeamCycles, 2, out);
  rig->ex.reset();  // free the opt+ arrays before the next phases
  rig->pluto.reset();
  rig->v_pluto = grid::Buffer();

  // Plain handopt cycles (the first allocates its level buffers).
  {
    auto hand = std::make_unique<solvers::HandOptSolver>(c, false);
    for (int i = 0; i < 2; ++i) {
      const double ms = rig->ref_cycle(*hand, rig->p.v);
      if (i > 0) out.add(key + "handopt_ms", ms);
    }
  }

  // The solves' session executor, built as the service builds one: the
  // plan compiled, validated and specialized once, then adopted. The
  // solves are the measured round of peak_rss_mb: the reference phase
  // before them holds more memory, which would hide theirs.
  begin_round();
  std::unique_ptr<runtime::GuardedExecutor> session;
  {
    Span sc(Layer::Opt, "opt::compile");
    auto plan = std::make_shared<opt::CompiledPipeline>(
        opt::compile(solvers::build_cycle(c), opt_plus(v)));
    opt::validate_plan(*plan);
    sc.stop();
    Span sj(Layer::Codegen, "jit_specialize");
    codegen::jit_specialize(*plan);
    sj.stop();
    Span si(Layer::Runtime, "GuardedExecutor::GuardedExecutor");
    session = std::make_unique<runtime::GuardedExecutor>(
        solvers::build_cycle(c), opt_plus(v), std::move(plan));
  }
  {
    const std::vector<grid::View> e = {rig->p.v_view(), rig->p.f_view()};
    Span sp(Layer::Runtime, "GuardedExecutor::run");
    session->run(e);
  }
  solvers::GuardPolicy pol;
  pol.session_executor = session.get();
  for (int k = 0; k < kMinSolves || Clock::now() < end; ++k) {
    double r0 = rig->r0;
    {
      Span sp(Layer::Harness, "Buffer::fill");
      rig->p.v.fill(0.0);
    }
    if (k > 0) {
      {
        Span sp(Layer::Harness, "fill_region");
        fill_rhs(rig->p.f_view(), c, a.seed * 1000003ULL + k);
      }
      r0 = rel_residual(rig->p.v_view(), rig->p.f_view(), c, 1.0);
    }
    RequestRecord rec;
    rec.sig = v.name;
    rec.rhs = k;
    rec.service = false;
    rec.admitted = true;
    Span sp(Layer::Solvers, "guarded_solve");
    const solvers::SolveReport rep =
        solvers::guarded_solve(c, rig->p, kRelTol, pol, opt_plus(v));
    rec.solve_ms = rec.lat_ms = sp.stop();
    rec.status = to_string(rep.status);
    rec.converged = rep.converged;
    rec.degraded = rep.attempts.size() > 1;  // the ladder was walked
    rec.cycles = rep.total_cycles;
    rec.rel_residual = rel_residual(rig->p.v_view(), rig->p.f_view(), c, r0);
    rec.ok = rep.status == ErrorCode::Generic && rep.converged &&
             rec.rel_residual <= kRelTol * (1 + kTolSlack);
    out.check(rec.ok, v.name + " guarded_solve " + rec.status + " rel " +
                          std::to_string(rec.rel_residual));
    out.requests.push_back(rec);
  }
  end_round(out);
  out.info["cycle_sigs"] = v.name;
}

struct Arrival {
  double due_ms = 0;
  int sig = 0, tenant = 0, rhs = 0;
};

std::vector<Arrival> read_schedule(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read schedule " + path);
  std::vector<Arrival> s;
  Arrival x;
  while (f >> x.due_ms >> x.sig >> x.tenant >> x.rhs) s.push_back(x);
  if (s.empty()) throw std::runtime_error("empty schedule " + path);
  return s;
}

/// Latency limit of service-open: every request's deadline.
constexpr double kServiceDeadlineMs = 250.0;

/// service-open: a 2-worker SolveService driven open loop from a
/// precomputed Poisson arrival schedule; each request is timed from its
/// due time, so a slow service cannot slow the arrivals down. Before and
/// after it the three signatures run closed-loop cycle rounds on the
/// workers' team size.
void run_service_open(const Args& a, const Workload& wl, Output& out) {
  const int team = wl.team;
  const std::vector<Sig> sigs = {v_cycle(2, 127), v_cycle(2, 255),
                                 v_cycle(3, 31)};
  const std::vector<Arrival> sched = read_schedule(a.schedule);
  int rhs_count = 0;
  for (const Arrival& x : sched) {
    if (x.sig < 0 || x.sig >= static_cast<int>(sigs.size()) || x.rhs < 0 ||
        x.rhs >= 64) {
      throw std::runtime_error("schedule entry out of range");
    }
    rhs_count = std::max(rhs_count, x.rhs + 1);
  }

  std::vector<RhsPool> pools;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    pools.push_back(make_rhs_pool(sigs[i], a.seed + 17 * i, rhs_count));
  }

  std::unique_ptr<service::SolveService> svc;
  std::vector<std::unique_ptr<Rig>> rigs;
  for (int rep = 0; rep < wl.setup_reps; ++rep) {
    svc.reset();
    rigs.clear();
    begin_setup_rep(a, rep);
    const Clock::time_point t0 = Clock::now();
    {
      Span sp(Layer::Service, "SolveService::SolveService");
      svc = std::make_unique<service::SolveService>(service_config(2));
    }
    // One warm request per signature per worker: both requests of a
    // signature are in flight together, so both workers build a session.
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      warm_request(*svc, sigs[i], pools[i].rhs[0], 2);
    }
    BuildTimes bt;
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      rigs.push_back(build_rig(sigs[i], a.seed + 17 * i, team, &bt));
    }
    out.add("setup_s", ms_between(t0, Clock::now()) / 1e3);
    record_build(bt, out);
  }
  // Closed-loop cycle rounds on the service's signatures and team size,
  // half before the open-loop phase and half after it, so they sample
  // the machine at both ends of the run. The measured phase is one round.
  begin_round();
  for (auto& r : rigs) add_refs(*r, /*hand=*/true, /*one_thread_iterate=*/true);
  for (auto& r : rigs) cycle_round(*r, 50, 50, out);

  // Collector: waits on tickets in submission order, judges each result.
  struct Pending {
    std::uint64_t ticket = 0;
    std::size_t arrival = 0;
    RequestRecord rec;
  };
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<Pending> queue;  // guarded by qmu
  bool done = false;          // guarded by qmu
  std::exception_ptr collector_error;
  auto collect = [&] {
    set_num_threads(1);  // residual checks stay off the workers' cores
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(qmu);
        qcv.wait(lk, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      const Arrival& x = sched[p.arrival];
      Span w(Layer::Service, "SolveService::wait");
      service::SolveResult res = svc->wait(p.ticket);
      w.nest_tail(Layer::Solvers, "guarded_solve (worker)", res.solve_ms);
      p.rec.lat_ms = p.rec.late_ms + p.rec.admit_us / 1e3 + res.e2e_ms;
      judge(res, sigs[x.sig], pools[x.sig].rhs[x.rhs], pools[x.sig].r0[x.rhs],
            p.rec);
      out.check(p.rec.ok, p.rec.sig + " request " + p.rec.status + " rel " +
                              std::to_string(p.rec.rel_residual));
      std::lock_guard<std::mutex> lk(out.mu);
      out.requests.push_back(p.rec);
    }
  };
  std::thread collector([&] {
    try {
      collect();
    } catch (...) {
      collector_error = std::current_exception();
    }
  });
  auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lk(qmu);
      done = true;
    }
    qcv.notify_one();
    collector.join();
  };

  // Generator (this thread): prepare each request ahead of its due time,
  // sleep until it is due, submit, and record how late the submit was.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  try {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Arrival& x = sched[i];
      service::SolveRequest req = make_request(
          sigs[x.sig], pools[x.sig].rhs[x.rhs], x.tenant, kServiceDeadlineMs);
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(x.due_ms));
      std::this_thread::sleep_until(due);
      Pending p;
      p.arrival = i;
      p.rec.sig = sigs[x.sig].name;
      p.rec.rhs = x.rhs;
      p.rec.tenant = x.tenant;
      Span sub(Layer::Service, "SolveService::submit");
      const Clock::time_point t_submit = Clock::now();
      service::SolveService::Admission adm = svc->submit(std::move(req));
      p.rec.admit_us = sub.stop() * 1e3;
      p.rec.late_ms = ms_between(due, t_submit);
      p.rec.admitted = adm.admitted;
      if (!adm.admitted) {
        p.rec.status = to_string(adm.reason);
        out.check(false, p.rec.sig + " request shed");
        std::lock_guard<std::mutex> lk(out.mu);
        out.requests.push_back(p.rec);
        continue;
      }
      p.ticket = adm.ticket;
      {
        std::lock_guard<std::mutex> lk(qmu);
        queue.push_back(std::move(p));
      }
      qcv.notify_one();
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();
  if (collector_error) std::rethrow_exception(collector_error);
  out.scalars["service.offered_s"] = sched.back().due_ms / 1e3;
  out.scalars["service.deadline_ms"] = kServiceDeadlineMs;
  {
    Span sp(Layer::Service, "SolveService::shutdown");
    svc->shutdown();
  }
  record_service(*svc, out);

  for (auto& r : rigs) cycle_round(*r, 50, 50, out);
  end_round(out);
  std::vector<Rig*> raw;
  std::string names;
  for (auto& r : rigs) {
    raw.push_back(r.get());
    names += (names.empty() ? "" : ",") + r->sig.name;
  }
  record_rig_stats(raw, out);
  out.info["cycle_sigs"] = names;
}

constexpr Workload kWorkloads[] = {
    {"cycle-cache", 4, 5, run_cycle_cache},
    {"solve-dram", 4, 3, run_solve_dram},
    {"service-open", 2, 3, run_service_open},
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--schedule") a.schedule = v;
    else if (k == "--jit-cache-dir") a.jit_base = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.out.empty()) throw std::runtime_error("--out is required");
  if (a.workload == "service-open" && a.schedule.empty()) {
    throw std::runtime_error("--schedule is required for service-open");
  }
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

/// Service workers are plain threads: their OpenMP teams take the
/// process's initial thread count, which OMP_NUM_THREADS fixes when the
/// OpenMP runtime starts. Re-execute once with it set to the team size.
void ensure_omp_threads(int team, char** argv) {
  const std::string want = std::to_string(team);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  setenv("OMP_NUM_THREADS", want.c_str(), 1);
  execv("/proc/self/exe", argv);
  throw std::runtime_error("cannot re-execute with OMP_NUM_THREADS set");
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    const Workload& wl = find_workload(a.workload);
    ensure_omp_threads(wl.team, argv);
    spans_enable(!a.spans.empty());
    Output out;
    out.info["workload"] = a.workload;
    out.info["team"] = std::to_string(wl.team);
    out.info["OMP_NUM_THREADS"] = env_or("OMP_NUM_THREADS", "unset");
    out.info["OMP_PROC_BIND"] = env_or("OMP_PROC_BIND", "unset");
    out.info["nproc"] = std::to_string(cpus_allowed());
    out.info["l3_mb"] = std::to_string(l3_bytes() / 1e6);
    out.info["compiler"] = PERFBENCH_COMPILER;
    out.info["cxx_flags"] = PERFBENCH_CXX_FLAGS;
    out.info["jit_mode"] = polymg::opt::to_string(polymg::codegen::jit_mode());
    // The traced run measures the roofline denominator first and frees
    // the probe's buffers before any workload array exists.
    if (!a.spans.empty()) stream_probe(out);
    wl.run(a, wl, out);
    out.scalars["codegen.fallbacks"] = static_cast<double>(
        polymg::obs::Metrics::instance().counter("jit.fallbacks").value());
    // Probed last: the probe compiles into the (by now unused) cache dir.
    out.info["jit_toolchain"] =
        polymg::codegen::jit_toolchain_available() ? "yes" : "no";
    write_output(out, a.out);
    if (!a.spans.empty()) spans_write(a.spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
