// Observability-plane microbenchmarks (DESIGN.md §13): what does the
// telemetry cost, and how accurate is it?
//
//   1. Histogram accuracy — 200k deterministic lognormal-ish latency
//      samples recorded from 4 concurrent threads; every quantile read
//      back (p50/p90/p99/p999) must sit within one bucket width
//      (~6.25% relative) of the exact sorted order statistic.
//   2. Recording overhead — ns per Histogram::record() (two relaxed
//      fetch_adds), next to Counter::add() for scale.
//   3. Solve overhead — min-of-N wall time of a PR-4-grain OptPlus
//      solve with no trace session vs an active one; the ratio is the
//      end-to-end price of leaving tracing compiled in and switched on.
//   4. Roofline attribution — enable_perf_attribution() on a
//      barrier-schedule executor; reports per-stage achieved GB/s and
//      arithmetic intensity when the kernel grants perf_event_open,
//      and degrades to the model-only table (skip, not fail) when it
//      does not (containers, perf_event_paranoid).
//
// Emits BENCH_obs.json. Flags: --json FILE plus the usual harness
// options (--trace, --metrics, ...).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gbench.hpp"
#include "polymg/common/rng.hpp"
#include "polymg/obs/histogram.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"

namespace polymg::bench {
namespace {

/// Deterministic lognormal-ish sample stream: exp(mu + sigma * z) with
/// z from a 12-uniform central-limit approximation — long right tail,
/// like a latency distribution, and bit-identical across runs.
std::vector<std::int64_t> make_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double z = -6.0;
    for (int k = 0; k < 12; ++k) z += rng.next_double();
    v.push_back(static_cast<std::int64_t>(std::exp(12.0 + 1.1 * z)));
  }
  return v;
}

std::int64_t exact_quantile(std::vector<std::int64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

struct QuantileCheck {
  double q;
  std::int64_t exact;
  std::int64_t hist;
  std::int64_t bucket_width;
  bool ok;  // |hist - exact| <= bucket width
};

}  // namespace
}  // namespace polymg::bench

int main(int argc, char** argv) {
  using namespace polymg::bench;
  const polymg::Options opts = parse_bench_options(argc, argv);
  TraceFromOptions trace(opts);
  MetricsFromOptions metrics(opts);

  // ---- Panel 1: quantile accuracy under concurrent recording. -------
  const std::size_t kSamples = 200000;
  const std::vector<std::int64_t> samples = make_samples(kSamples, 0xabcde);
  polymg::obs::Histogram hist;
  {
    const int nthreads = 4;
    std::vector<std::thread> ts;
    for (int t = 0; t < nthreads; ++t) {
      ts.emplace_back([&, t] {
        const std::size_t lo = kSamples * t / nthreads;
        const std::size_t hi = kSamples * (t + 1) / nthreads;
        for (std::size_t i = lo; i < hi; ++i) hist.record(samples[i]);
      });
    }
    for (auto& th : ts) th.join();
  }
  std::vector<QuantileCheck> checks;
  bool all_ok = hist.count() == static_cast<std::int64_t>(kSamples);
  for (const double q : {0.50, 0.90, 0.99, 0.999}) {
    QuantileCheck c;
    c.q = q;
    c.exact = exact_quantile(samples, q);
    c.hist = hist.quantile(q);
    c.bucket_width = hist.quantile_bucket_width(q);
    c.ok = std::llabs(c.hist - c.exact) <= c.bucket_width;
    all_ok = all_ok && c.ok;
    checks.push_back(c);
    std::printf("p%-5g exact %9lld  histogram %9lld  (+-%lld)  [%s]\n",
                q * 100, static_cast<long long>(c.exact),
                static_cast<long long>(c.hist),
                static_cast<long long>(c.bucket_width),
                c.ok ? "OK" : "FAIL");
  }
  std::printf("concurrent count %lld / %zu, quantiles %s\n",
              static_cast<long long>(hist.count()), kSamples,
              all_ok ? "all within one bucket" : "OUT OF BOUNDS");

  // ---- Panel 2: recording overhead. ---------------------------------
  const std::size_t kOps = std::size_t{1} << 22;
  polymg::obs::Histogram bench_hist;
  auto& bench_ctr = polymg::obs::Metrics::instance().counter("obs.bench");
  const polymg::Stats rec = polymg::min_time_of(
      [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
          bench_hist.record(samples[i % kSamples]);
        }
      },
      3);
  const polymg::Stats ctr = polymg::min_time_of(
      [&] {
        for (std::size_t i = 0; i < kOps; ++i) bench_ctr.add(1);
      },
      3);
  const double record_ns = rec.min / static_cast<double>(kOps) * 1e9;
  const double counter_ns = ctr.min / static_cast<double>(kOps) * 1e9;
  std::printf("histogram record %.2f ns/op, counter add %.2f ns/op\n",
              record_ns, counter_ns);

  // ---- Panel 3: solve overhead with tracing on. ---------------------
  CycleConfig cfg;
  cfg.ndim = 2;
  cfg.n = 255;
  cfg.levels = 5;
  const SolveRunner runner = make_runner(Series::OptPlus, cfg, /*cycles=*/3);
  const int kReps = 5;
  double off_s = 0.0, on_s = 0.0, trace_ratio = 1.0;
  if (!trace.active()) {  // an outer --trace session owns the ring
    off_s = time_runner(runner, kReps).min;
    polymg::obs::TraceSession::start();
    on_s = time_runner(runner, kReps).min;
    polymg::obs::TraceSession::stop();
    trace_ratio = off_s > 0 ? on_s / off_s : 1.0;
    std::printf("solve %.2f ms untraced, %.2f ms traced (%.3fx)\n",
                off_s * 1e3, on_s * 1e3, trace_ratio);
  } else {
    std::printf("outer --trace active; skipping the overhead panel\n");
  }

  // ---- Panel 4: roofline attribution. -------------------------------
  auto ex = std::make_shared<polymg::runtime::Executor>(polymg::opt::compile(
      polymg::solvers::build_cycle(cfg),
      CompileOptions::for_variant(Variant::OptPlus, cfg.ndim)));
  const bool perf_available = ex->enable_perf_attribution();
  auto p = polymg::solvers::PoissonProblem::random_rhs(cfg.ndim, cfg.n, 42);
  for (int i = 0; i < 3; ++i) {
    const std::vector<polymg::grid::View> ext = {p.v_view(), p.f_view()};
    ex->run(ext);
  }
  const polymg::obs::RunReport rr = ex->run_report();
  std::printf("%s\n", perf_available
                          ? "perf counters: available"
                          : "perf counters: unavailable (model-only "
                            "roofline; not a failure)");
  for (const auto& row : rr.perf) {
    const double gbs = row.seconds > 0
                           ? row.model_bytes *
                                 static_cast<double>(row.runs) /
                                 row.seconds / 1e9
                           : 0.0;
    const double ai = row.model_bytes > 0
                          ? row.model_flops / row.model_bytes
                          : 0.0;
    std::printf("  %-28s %8.2f GB/s(model)  AI %.3f\n", row.label.c_str(),
                gbs, ai);
  }

  // ---- JSON ---------------------------------------------------------
  const std::string json = opts.get("json", "BENCH_obs.json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"obs\",\n");
    std::fprintf(f, "  \"samples\": %zu,\n  \"quantiles\": [\n", kSamples);
    for (std::size_t i = 0; i < checks.size(); ++i) {
      const QuantileCheck& c = checks[i];
      std::fprintf(f,
                   "    {\"q\": %g, \"exact\": %lld, \"histogram\": %lld, "
                   "\"bucket_width\": %lld, \"ok\": %s}%s\n",
                   c.q, static_cast<long long>(c.exact),
                   static_cast<long long>(c.hist),
                   static_cast<long long>(c.bucket_width),
                   c.ok ? "true" : "false",
                   i + 1 < checks.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"quantiles_ok\": %s,\n", all_ok ? "true" : "false");
    std::fprintf(f, "  \"record_ns_per_op\": %.4f,\n", record_ns);
    std::fprintf(f, "  \"counter_ns_per_op\": %.4f,\n", counter_ns);
    std::fprintf(f, "  \"solve_untraced_ms\": %.4f,\n", off_s * 1e3);
    std::fprintf(f, "  \"solve_traced_ms\": %.4f,\n", on_s * 1e3);
    std::fprintf(f, "  \"trace_overhead_ratio\": %.4f,\n", trace_ratio);
    std::fprintf(f, "  \"perf_counters_available\": %s,\n",
                 perf_available ? "true" : "false");
    std::fprintf(f, "  \"roofline_stages\": %zu\n}\n", rr.perf.size());
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }
  return all_ok ? 0 : 1;
}
