// The sandboxed JIT compile path (DESIGN.md §14): a wedged toolchain
// (fault site jit.hang) is killed by the waitpid watchdog within the
// compile budget and degrades to the interpreted engines byte-for-byte;
// a full cache volume (fault site cache.enospc) degrades the same way;
// and the flock-guarded disk cache lets two PROCESSES race the same
// kernel key with exactly one compile between them.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "polymg/codegen/jit.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/ir/stencil.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/runtime/executor.hpp"
#include "polymg/solvers/cycles.hpp"
#include "polymg/solvers/varcoef.hpp"

namespace polymg::codegen {
namespace {

using grid::View;
using opt::CompileOptions;
using opt::JitMode;
using opt::Variant;
using poly::index_t;
using solvers::CycleConfig;
using solvers::CycleKind;
using solvers::VarCoefLevels;
using solvers::VarCoefProblem;

std::uint64_t ctr(const char* name) {
  return obs::Metrics::instance().counter(name).value();
}

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "polymg-sbx-" + tag + "-" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  set_jit_cache_dir(dir);
  jit_clear_memory_cache();
  return dir;
}

bool toolchain() { return jit_toolchain_available(); }

class JitSandbox : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultInjector::instance().reset(); }
  void TearDown() override {
    fault::FaultInjector::instance().reset();
    unsetenv("POLYMG_JIT_TIMEOUT_MS");
  }
};

/// The specializable plan: varcoef's β-weighted Jacobi defs are
/// non-linear, so JitMode::On attempts a module compile.
CycleConfig vc2d() {
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 63;
  cfg.levels = 3;
  cfg.kind = CycleKind::W;
  return cfg;
}

std::vector<double> run_bits_vc(const CycleConfig& cfg, CompileOptions o) {
  VarCoefProblem p = VarCoefProblem::smooth_coefficients(cfg.ndim, cfg.n, 21);
  VarCoefLevels levels(cfg, p);
  runtime::Executor ex(opt::compile(solvers::build_varcoef_cycle(cfg), o));
  const std::vector<View> ext = levels.externals(p);
  ex.run(ext);
  const View out = ex.output_view(0);
  const int func = ex.plan().pipe.outputs[0];
  const index_t count = ex.plan().pipe.funcs[func].domain.count();
  std::vector<double> bits(static_cast<std::size_t>(count));
  std::memcpy(bits.data(), out.ptr, sizeof(double) * bits.size());
  return bits;
}

/// A simple specializable def-level expression (5-pt Laplacian).
ir::Expr fivept() {
  ir::SourceRef u;
  u.slot = 0;
  u.ndim = 2;
  return ir::stencil2(u, ir::five_point_laplacian_2d(), 0.25);
}

// ---------------------------------------------------------------------
// jit.hang: a wedged compiler is reaped by the watchdog, not waited on.
// ---------------------------------------------------------------------

TEST_F(JitSandbox, HangingCompilerIsKilledAndFallsBack) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("hang");
  // 300 ms budget: the injected hang parks the child in pause() — it
  // burns no CPU, so ONLY the watchdog can end it.
  setenv("POLYMG_JIT_TIMEOUT_MS", "300", 1);

  const std::uint64_t to0 = ctr("jit.compile_timeouts");
  const std::uint64_t hang0 = ctr("fault.jit_hang");
  const std::uint64_t f0 = ctr("jit.fallbacks");

  CompileOptions o = CompileOptions::for_variant(Variant::OptPlus, 2);
  o.jit = JitMode::On;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> got;
  {
    fault::ScopedFault hang(fault::kJitHang, /*count=*/1);
    got = run_bits_vc(vc2d(), o);
  }
  const double ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_EQ(ctr("jit.compile_timeouts"), to0 + 1);
  EXPECT_EQ(ctr("fault.jit_hang"), hang0 + 1);
  EXPECT_GE(ctr("jit.fallbacks"), f0 + 1);
  // Without the watchdog this would hang forever; 300 ms budget plus
  // the actual solve leaves this far under 10 s even on a loaded host.
  EXPECT_LT(ms, 10000.0);

  // The degraded plan runs the interpreted dispatch: byte-identical to
  // a jit-off plan.
  CompileOptions off = o;
  off.jit = JitMode::Off;
  const std::vector<double> ref = run_bits_vc(vc2d(), off);
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                           sizeof(double) * ref.size()));

  // The cache holds no half-written artifact: with the fault gone the
  // same plan compiles cleanly.
  unsetenv("POLYMG_JIT_TIMEOUT_MS");
  const std::uint64_t c0 = ctr("jit.compiles");
  const std::vector<double> clean = run_bits_vc(vc2d(), o);
  EXPECT_GT(ctr("jit.compiles"), c0);
  ASSERT_EQ(ref.size(), clean.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), clean.data(),
                           sizeof(double) * ref.size()));
}

// ---------------------------------------------------------------------
// cache.enospc: a full cache volume degrades, never corrupts.
// ---------------------------------------------------------------------

TEST_F(JitSandbox, CacheEnospcDegradesToInterpreter) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  fresh_cache_dir("enospc");
  const ir::Bytecode bc = ir::compile_bytecode(fivept());

  const std::uint64_t e0 = ctr("fault.cache_enospc");
  JitKernel k;
  {
    fault::ScopedFault enospc(fault::kCacheEnospc, /*count=*/1);
    k = jit_kernel_for_def(2, bc);
  }
  // The write failed mid-stream: no kernel, and the caller's register-
  // engine fallback takes over (asserted at executor level elsewhere).
  EXPECT_FALSE(static_cast<bool>(k));
  EXPECT_EQ(ctr("fault.cache_enospc"), e0 + 1);

  // Nothing half-written survived to poison the cache: the next request
  // compiles and loads normally.
  const std::uint64_t c0 = ctr("jit.compiles");
  k = jit_kernel_for_def(2, bc);
  EXPECT_TRUE(static_cast<bool>(k));
  EXPECT_EQ(ctr("jit.compiles"), c0 + 1);
}

// ---------------------------------------------------------------------
// flock: two processes racing one kernel key compile exactly once.
// ---------------------------------------------------------------------

TEST_F(JitSandbox, TwoProcessesRacingOneKeyCompileOnce) {
  if (!toolchain()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_cache_dir("flock");
  const ir::Bytecode bc = ir::compile_bytecode(fivept());
  const std::string child_out = dir + "-child-report";
  const std::uint64_t c0 = ctr("jit.compiles");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: race the parent for the same key on the shared disk cache.
    // (The memory cache is per-process and empty in both.) Report this
    // process's compile count through a file; _exit skips gtest/atexit.
    const JitKernel ck = jit_kernel_for_def(2, bc);
    const std::uint64_t mine = ctr("jit.compiles") - c0;
    std::ofstream os(child_out);
    os << mine << " " << (static_cast<bool>(ck) ? 1 : 0) << "\n";
    os.close();
    _exit(os.good() ? 0 : 1);
  }

  const JitKernel k = jit_kernel_for_def(2, bc);
  EXPECT_TRUE(static_cast<bool>(k));

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;

  std::ifstream is(child_out);
  std::uint64_t child_compiles = 99;
  int child_ok = 0;
  is >> child_compiles >> child_ok;
  ASSERT_TRUE(is.good() || is.eof());
  EXPECT_EQ(child_ok, 1);

  // The flock serializes the two compile attempts and the loser's
  // post-lock existence re-check turns it into a disk hit: exactly one
  // compile system-wide, both processes holding a working kernel.
  const std::uint64_t parent_compiles = ctr("jit.compiles") - c0;
  EXPECT_EQ(parent_compiles + child_compiles, 1u)
      << "parent " << parent_compiles << ", child " << child_compiles;

  // Exactly one .so (plus lock/log artifacts) landed in the cache.
  int sos = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    sos += e.path().extension() == ".so" ? 1 : 0;
  }
  EXPECT_EQ(sos, 1);
}

}  // namespace
}  // namespace polymg::codegen
