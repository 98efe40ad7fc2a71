"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Tiny-size runs of every workload, with and without tracing; a perturbed
output counted as failed; self-time arithmetic on a hand-built span tree;
the wrapping of module globals; and the printed metric names against
``BENCHMARK.json``.
"""

import json
import shutil
import sys
import unittest

import numpy as np
import run
from tracer import Tracer, self_times

BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
TINY = {
    "evaluate_n1024": 512,
    "smooth_topo_n131072": 2048,
}


def tiny_ops(workload: str):
    workdir = run.OUT_DIR / f"selftest-{workload}"
    ops, _ = run.setup(workload, SEED, TINY[workload], workdir)
    return ops, workdir


class TinyRuns(unittest.TestCase):
    def test_every_workload_passes_and_prints_the_declared_metrics(self):
        self.assertEqual(sorted(TINY), sorted(w["name"] for w in BENCHMARK["workloads"]))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload, n in TINY.items():
                with self.subTest(workload=workload, trace=trace):
                    out = run.run_workload(workload, SEED, 0.0, trace, n=n)
                    result = out["result"]
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], out["info"]["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(result["attempted"], out["info"]["ops_per_pass"])
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)


class FailedOutputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_broken_invariant_counts_as_failed(self):
        ops, self.workdir = tiny_ops("smooth_topo_n131072")
        victim = ops[0]
        clean = victim.run

        def perturbed():
            out = clean()
            values = np.array(out.values)
            values[0] += 1.0  # an anchor must keep its input value
            return out.with_values(values)

        victim.run = perturbed
        failed, problems = run.judge(ops, run.measure(ops, 0.0), None)
        self.assertEqual(failed, 1)
        self.assertIn("anchor", problems[victim.label])

    def test_only_a_real_refusal_passes_a_nonzero_exit(self):
        ops, self.workdir = tiny_ops("evaluate_n1024")
        check = ops[0].check
        message = "error: entropy ranges of the methods do not overlap (intersection [{}, {}])\n"

        def outcome(rc, stderr, report=b""):
            return {"rc": rc, "stderr": stderr, "report": report, "missing": []}

        self.assertIsNone(check(outcome(1, message.format(0.2034129, 0.2034020))))
        self.assertIn("exit code", check(outcome(1, message.format(0.2034020, 0.2034129))))
        self.assertIn("exit code", check(outcome(1, "error: series is constant\n")))
        self.assertIn("exit code", check(outcome(2, message.format(0.3, 0.2))))
        self.assertIn("wrote", check(outcome(1, message.format(0.3, 0.2), report=b"{}")))

    def test_reference_mismatch_counts_as_failed(self):
        ops, self.workdir = tiny_ops("smooth_topo_n131072")
        result = run.measure(ops, 0.0)
        references = {label: seen[0] for label, seen in result["digests"].items()}
        self.assertEqual(run.judge(ops, result, references)[0], 0)
        victim = ops[-1].label
        references[victim] = "0" * 64
        failed, problems = run.judge(ops, result, references)
        self.assertEqual(failed, 1)
        self.assertIn("reference", problems[victim])


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        start = [0.0, 1.0, 2.0, 6.0, 7.0]
        end = [10.0, 3.0, 5.0, 9.0, 8.0]
        parent = [-1, 0, 0, 0, 3]
        # Children of span 0 cover [1, 5] and [6, 9]: 7 of its 10 seconds.
        self.assertEqual(self_times(start, end, parent), [3.0, 2.0, 3.0, 2.0, 1.0])

    def test_layer_summary_counts_entries_and_shares(self):
        tracer = Tracer()
        layer = tracer.layers.index
        spans = [  # (layer, start, end, parent)
            (layer("cli"), 0.0, 8.0, -1),
            (layer("evaluate"), 1.0, 7.0, 0),
            (layer("evaluate"), 2.0, 6.0, 1),
            (layer("metrics.approx_entropy"), 3.0, 5.0, 2),
        ]
        for lid, s, e, p in spans:
            tracer.layer_of.append(lid)
            tracer.start.append(s)
            tracer.end.append(e)
            tracer.parent.append(p)
        summary = tracer.layer_summary(10.0)
        self.assertEqual(summary["cli"], {"calls": 1, "self_s": 2.0, "share": 0.2})
        self.assertEqual(summary["evaluate"], {"calls": 1, "self_s": 4.0, "share": 0.4})
        self.assertEqual(summary["metrics.approx_entropy"]["self_s"], 2.0)
        self.assertEqual(summary["io"]["calls"], 0)

    def test_wrappers_replace_every_module_global_and_are_removed(self):
        pkg = run.load_package()
        evaluate = sys.modules["toposmooth.evaluate"]
        simplify_mod = sys.modules["toposmooth.simplify"]
        original = evaluate.approx_entropy
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(evaluate.approx_entropy.__wrapped__, original)
            self.assertIs(pkg.approx_entropy, evaluate.approx_entropy)
            self.assertTrue(hasattr(simplify_mod.diagram_of, "__wrapped__"))
            series = pkg.generate_synthetic("noisy_sine", 64, SEED)
            evaluate.METHODS["topological"](series, 0.5)
        finally:
            tracer.uninstall()
        self.assertIs(evaluate.approx_entropy, original)
        called = [tracer.layers[i] for i in tracer.layer_of]
        self.assertEqual(called[:2], ["synth", "simplify.simplify"])
        self.assertIn("persistence.diagram_of", called)
        self.assertIn("series.classify_extrema", called)


if __name__ == "__main__":
    unittest.main()
