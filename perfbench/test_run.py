"""Self-tests of the benchmark harness (no build, no driver run):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import run


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(run.percentile(values, 50), 5)
        self.assertEqual(run.percentile(values, 90), 9)
        self.assertEqual(run.percentile(values, 99), 10)
        self.assertEqual(run.percentile(values, 100), 10)
        self.assertEqual(run.percentile(values, 10), 1)
        self.assertEqual(run.percentile(values, 1), 1)

    def test_returns_a_sample_and_ignores_order(self):
        values = [3.5, 0.25, 9.0, 1.0]
        self.assertEqual(run.percentile(values, 50), 1.0)
        self.assertEqual(run.percentile(values, 75), 3.5)
        self.assertEqual(run.percentile([42.0], 99), 42.0)

    def test_p90_leaves_tail_samples(self):
        # 100 samples: p90 is the 90th smallest, 10 samples lie beyond it.
        values = list(range(100))
        p90 = run.percentile(values, 90)
        self.assertEqual(sum(1 for v in values if v > p90), 10)

    def test_tail_keeps_ten_samples_beyond(self):
        big = list(range(2000))
        self.assertEqual(run.tail_percentile(big, 99),
                         run.percentile(big, 99))
        forty = list(range(1, 41))
        self.assertEqual(run.tail_percentile(forty, 99), 30)
        self.assertEqual(sum(1 for v in forty
                             if v > run.tail_percentile(forty, 99)), 10)
        self.assertEqual(run.tail_percentile([5.0, 1.0, 3.0], 99), 3.0)
        self.assertEqual(run.tail_percentile([7.0], 90), 7.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)
        with self.assertRaises(ValueError):
            run.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            run.percentile([1.0], 101)


class ScheduleTest(unittest.TestCase):
    cfg = run.OPEN_LOOP

    def test_same_seed_same_schedule(self):
        self.assertEqual(run.make_schedule(7, 10),
                         run.make_schedule(7, 10))

    def test_other_seed_other_schedule(self):
        self.assertNotEqual(run.make_schedule(7, 10),
                            run.make_schedule(8, 10))

    def test_shape(self):
        sched = run.make_schedule(3, 1)
        self.assertGreaterEqual(len(sched), self.cfg["min_requests"])
        dues = [a[0] for a in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(all(d > 0 for d in dues))
        for _due, sig, tenant, rhs in sched:
            self.assertIn(sig, range(len(self.cfg["signature_shares"])))
            self.assertIn(tenant, range(len(self.cfg["tenant_shares"])))
            self.assertIn(rhs, range(self.cfg["rhs_per_signature"]))

    def test_offered_rate(self):
        sched = run.make_schedule(11, 60)
        rate = len(sched) / (sched[-1][0] / 1000.0)
        self.assertAlmostEqual(rate / self.cfg["rate_per_s"], 1.0, delta=0.1)

    def test_schedule_file_round_trip(self):
        sched = run.make_schedule(5, 1)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "arrivals.tsv")
            run.write_schedule(sched, path)
            with open(path) as f:
                lines = f.read().splitlines()
        self.assertEqual(len(lines), len(sched))
        due, sig, tenant, rhs = lines[0].split()
        self.assertAlmostEqual(float(due), sched[0][0], places=5)
        self.assertEqual((int(sig), int(tenant), int(rhs)), sched[0][1:])


class MetricNameTest(unittest.TestCase):
    def test_names_and_units_valid(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, (unit, better) in table.items():
                self.assertTrue(run.valid_name(name), name)
                self.assertTrue(run.valid_unit(unit), unit)
                self.assertIn(better, ("lower", "higher"))
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_validator(self):
        self.assertTrue(run.valid_name("opt.compile_ms"))
        self.assertTrue(run.valid_name("9lives-x_y.z"))
        self.assertFalse(run.valid_name(""))
        self.assertFalse(run.valid_name(".hidden"))
        self.assertFalse(run.valid_name("a b"))
        self.assertFalse(run.valid_name("a/b"))
        self.assertFalse(run.valid_name("x" * 65))
        self.assertTrue(run.valid_name("x" * 64))
        self.assertTrue(run.valid_unit("GB/s"))
        self.assertFalse(run.valid_unit("giga bytes"))

    def test_benchmark_json_matches(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in bench["end_to_end"]}
        layers = {m["name"]: (m["unit"], m["better"])
                  for m in bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        # service-open runs on request but is left out of BENCHMARK.json
        # (README.md, "Bounds and steadiness").
        names = [w["name"] for w in bench["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOADS))
        self.assertGreaterEqual(len(names), 2)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class JitCacheIsolationTest(unittest.TestCase):
    def test_each_run_gets_a_fresh_empty_dir(self):
        with tempfile.TemporaryDirectory() as bdir:
            first = run.fresh_jit_cache_dir(bdir)
            # An earlier run (or the other commit) leaves kernels behind.
            with open(os.path.join(first, "stale.so"), "w") as f:
                f.write("x")
            second = run.fresh_jit_cache_dir(bdir)
            self.assertNotEqual(first, second)
            self.assertEqual(os.listdir(second), [])
            self.assertTrue(second.startswith(os.path.join(bdir, "jit")))

    def test_driver_env_points_at_the_dir(self):
        with tempfile.TemporaryDirectory() as bdir:
            d = run.fresh_jit_cache_dir(bdir)
            self.assertEqual(run.driver_env(d)["POLYMG_JIT_CACHE_DIR"], d)


class SelfShareTest(unittest.TestCase):
    def test_nested_spans(self):
        # thread 0: service span 0..100 containing a solvers span 10..40;
        # thread 1: grid span 0..50.
        spans = [(0, "service", "wait", 0, 100),
                 (0, "solvers", "residual_norm", 10, 40),
                 (1, "grid", "copy_region", 0, 50)]
        shares = run.self_shares(spans)
        self.assertAlmostEqual(shares["service"], 70 / 150)
        self.assertAlmostEqual(shares["solvers"], 30 / 150)
        self.assertAlmostEqual(shares["grid"], 50 / 150)
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_sequential_spans(self):
        spans = [(0, "opt", "compile", 0, 10), (0, "runtime", "run", 10, 40)]
        shares = run.self_shares(spans)
        self.assertAlmostEqual(shares["opt"], 0.25)
        self.assertAlmostEqual(shares["runtime"], 0.75)

    def test_worker_solve_inside_service_wait(self):
        # The caller waits 0..100; the worker's solve (60 ms) is recorded
        # as a solvers child at the end of the wait, as the driver does.
        spans = [(0, "service", "SolveService::submit", 0, 5),
                 (0, "service", "SolveService::wait", 5, 100),
                 (0, "solvers", "guarded_solve (worker)", 40, 100)]
        shares = run.self_shares(spans)
        self.assertAlmostEqual(shares["service"], 40 / 100)
        self.assertAlmostEqual(shares["solvers"], 60 / 100)

    def test_harness_is_left_out(self):
        # A reference cycle and a residual check are the benchmark's own
        # work; a library call nested in a harness span still counts.
        spans = [(0, "runtime", "Executor::run", 0, 30),
                 (0, "harness", "HandOptSolver::cycle", 30, 60),
                 (0, "harness", "make_grid+fill_region", 60, 100),
                 (0, "grid", "copy_region", 70, 80)]
        shares = run.self_shares(spans)
        self.assertNotIn("harness", shares)
        self.assertAlmostEqual(shares["runtime"], 30 / 40)
        self.assertAlmostEqual(shares["grid"], 10 / 40)
        self.assertAlmostEqual(sum(shares.values()), 1.0)


class ValidityTest(unittest.TestCase):
    @staticmethod
    def samples(late_ms, deadline_ms=None):
        reqs = [{"service": True, "late_ms": x, "converged": True,
                 "status": "Generic", "ok": True, "degraded": False,
                 "sig": "s", "rel_residual": 0.0} for x in late_ms]
        scalars = {} if deadline_ms is None else {
            "service.deadline_ms": deadline_ms}
        return {"wrong": 0, "requests": reqs, "scalars": scalars}

    def test_generator_gate_needs_the_open_loop(self):
        late = [0.1] * 90 + [40.0] * 10
        self.assertEqual(run.validity(self.samples(late)), [])
        self.assertEqual(len(run.validity(self.samples(late, 250.0))), 1)
        self.assertEqual(run.validity(self.samples([0.1] * 100, 250.0)), [])

    def test_false_convergence_is_wrong(self):
        s = self.samples([0.0])
        s["requests"][0].update(ok=False, rel_residual=1e-6)
        self.assertEqual(len(run.validity(s)), 1)
        s["requests"][0]["degraded"] = True
        self.assertEqual(run.validity(s), [])



class VsHandoptPlutoTest(unittest.TestCase):
    @staticmethod
    def samples(opt, pluto):
        return {"info": {"cycle_sigs": "S"},
                "series": {"cyc.S.opt_ms": opt, "cyc.S.pluto_ms": pluto}}

    def test_ratio_of_the_clean_cycles(self):
        opt = [10.0 + 0.01 * i for i in range(100)]
        pluto = [5.0 + 0.01 * i for i in range(100)]
        clean = run.vs_handopt_pluto(self.samples(opt, pluto))
        self.assertAlmostEqual(clean, 5.09 / 10.09)
        # Steal slows three in five handopt+pluto cycles 3x: the median
        # ratio would pass 1, the p10 ratio moves by a few percent.
        stolen = [3 * v if i % 5 in (1, 2, 3) else v
                  for i, v in enumerate(pluto)]
        self.assertGreater(run.median(stolen) / run.median(opt), 1)
        self.assertAlmostEqual(
            run.vs_handopt_pluto(self.samples(opt, stolen)) / clean, 1,
            delta=0.05)

    def test_few_samples_take_the_median(self):
        self.assertEqual(run.vs_handopt_pluto(
            self.samples([10.0, 30.0, 12.0, 11.0, 13.0],
                         [5.0, 9.0, 7.0, 6.0, 1.0])), 6.0 / 12.0)

if __name__ == "__main__":
    unittest.main()
