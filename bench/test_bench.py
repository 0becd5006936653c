"""Tests of the benchmark itself: generator, oracle, checks and tracer.

Run from the repository root with::

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import random
import signal
import sys
import unittest
from time import perf_counter

import generate
import oracle
import run
import speed
import tracing

sys.path.insert(0, str(run.SRC))

import pipevis  # noqa: E402  (needs the source path above)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(
            [d.data for d in generate.review_pool(7)], [d.data for d in generate.review_pool(7)]
        )
        a, b = generate.cli_pool(7), generate.cli_pool(7)
        self.assertEqual([d.data for d in a[0] + a[1]], [d.data for d in b[0] + b[1]])
        self.assertEqual(generate.large_document(7).data, generate.large_document(7).data)

    def test_other_seed_other_bytes(self):
        self.assertNotEqual(generate.review_pool(7)[0].data, generate.review_pool(8)[0].data)

    def test_documents_match_the_schema(self):
        try:
            import jsonschema
        except ImportError:
            self.skipTest("jsonschema is not installed")
        schema = json.loads((run.ROOT / "schema" / "assessment-1.0.json").read_text())
        valid, broken = generate.cli_pool(3)
        docs = generate.review_pool(3, size=10) + valid + broken
        docs.append(generate.wide_document(random.Random(3), leaves=500, derived=5))
        for doc in docs:
            jsonschema.validate(json.loads(doc.data), schema)

    def test_shapes(self):
        pool = generate.review_pool(5)
        self.assertEqual(sum(1 for d in pool if d.violations), len(pool) // 10)
        for doc in pool:
            self.assertTrue(50 <= doc.leaves <= 400)
            self.assertTrue(5 <= len(doc.derived) <= 40)
            self.assertEqual(doc.stats["max_depth"], len(doc.derived) + 1)
        wide = generate.wide_document(random.Random(5), leaves=1000, derived=10).stats
        self.assertEqual((wide["leaves"], wide["derived"], wide["max_depth"]), (1000, 10, 2))

    def test_planted_violations_are_what_pipevis_reports(self):
        for doc in generate.review_pool(11) + generate.cli_pool(11)[1]:
            if not doc.violations:
                continue
            with self.assertRaises(pipevis.SemanticViolationError) as raised:
                pipevis.parse_document(doc.data)
            self.assertEqual(raised.exception.violations, doc.violations)


class OracleTest(unittest.TestCase):
    def test_golden_overalls(self):
        samples = {name: json.loads(data) for name, data in run.read_samples().items()}
        self.assertEqual(oracle.check_golden_oracle(samples), [])

    def test_oracle_agrees_with_pipevis_on_golden_samples(self):
        for name, data in run.read_samples().items():
            expect = oracle.Expect(json.loads(data))
            assessment = pipevis.parse_document(data)
            report = pipevis.overall_visibility(assessment)
            self.assertTrue(oracle.close(report.overall, expect.overall()), name)
            table = pipevis.render_table(report, assessment.judgements).body
            self.assertEqual(oracle.check_table(table, expect), [], name)
            machine = pipevis.render_machine(report, assessment).body
            self.assertEqual(oracle.check_machine(machine, expect), [], name)
            scoped = pipevis.derived_asset_visibility(assessment, "LD")
            self.assertTrue(oracle.close(scoped.overall, expect.overall("LD")), name)

    def test_display_rounds_half_up_and_keeps_both_sides_of_a_tie(self):
        D = oracle.Decimal
        self.assertEqual(oracle.shown(D("2.905"), 2), {"2.90", "2.91"})
        self.assertEqual(oracle.shown(D("2.9036020036"), 2), {"2.90"})
        self.assertEqual(oracle.shown(D("4"), 2), {"4"})
        self.assertEqual(oracle.shown(D("4"), 2, fixed=True), {"4.00"})
        self.assertEqual(oracle.shown(D("-0.001"), 2, fixed=True), {"0.00"})

    def test_planted_wrong_expected_value_is_a_failure(self):
        data = run.read_samples()["first_party_later.json"]
        document = json.loads(data)
        assessment = pipevis.parse_document(data)
        table = pipevis.render_table(
            pipevis.overall_visibility(assessment), assessment.judgements
        ).body
        document["judgements"]["DS"]["quantity"] = 4
        self.assertNotEqual(oracle.check_table(table, oracle.Expect(document)), [])


class HarnessTest(unittest.TestCase):
    def review(self, invalid: bool = False) -> run.ReviewDeep:
        """A review workload over four valid documents or one invalid one."""
        workload = run.ReviewDeep(13)
        if invalid:
            workload.pool = [next(d for d in workload.pool if d.violations)]
        else:
            workload.pool = [d for d in workload.pool if not d.violations][:4]
        workload.setup()
        return workload

    def test_planted_wrong_value_counts_as_failed_operation(self):
        workload = self.review()
        self.assertFalse(any(op.failures for op in workload.cycle(None)))
        doc = workload.pool[1]
        expect = workload.expects[id(doc)]
        changed = {nid for nid, _ in doc.changes}
        leaf = next(nid for nid in expect.leaves if nid not in changed)
        q, a, f = expect.judgements[leaf]
        expect.judgements[leaf] = (q % 4 + 1, a, f)
        ops = workload.cycle(None)
        self.assertEqual([bool(op.failures) for op in ops], [False, True, False, False])

    def test_wrong_expected_violation_counts_as_failed_operation(self):
        workload = self.review(invalid=True)
        self.assertEqual(workload.cycle(None)[0].failures, [])
        workload.pool[0].violations = ("cycle detected: nowhere",)
        self.assertEqual(len(workload.cycle(None)[0].failures), 1)

    def test_traced_cycle_counts_validate_graph_per_review(self):
        workload = self.review()
        tracer = tracing.Tracer()
        ops = workload.cycle(tracer)
        self.assertFalse(any(op.failures for op in ops))
        valid = sum(1 for d in workload.pool if not d.violations)
        self.assertEqual(workload.graph_checks, [valid, valid])
        self.assertFalse(hasattr(workload.pv.model.validate_graph, "__wrapped__"))

    def test_every_operation_has_a_reference_speed_time(self):
        workload = self.review()
        sampler = workload.sampler
        with sampler.timer():
            ops = workload.cycle(None)
        for op in ops:
            self.assertEqual(op.failures, [])
            self.assertGreater(op.seconds, 0)
            self.assertLessEqual(op.seconds, op.end - op.start)
            self.assertGreater(sampler.scale(op.seconds, op.start, op.end), 0)

    def test_missing_target_is_reported_not_raised(self):
        tracer = tracing.Tracer()
        targets = (("pipevis.model", "no_such_function", "model.validate_graph"),
                   ("pipevis.no_such_module", "f", "x.f"))
        tracer.patch(targets)
        tracer.unpatch()
        self.assertEqual(tracer.missing,
                         ["pipevis.model.no_such_function", "pipevis.no_such_module.f"])
        gone = run.missing_spans(tracer, targets)
        self.assertEqual(gone, {"model.validate_graph", "x.f"})
        op = run.Op(0.01, 1, [], traced=True)
        metrics, missing = run.per_layer(run.ScoreLarge.__new__(run.ScoreLarge),
                                         [op, run.Op(0.01, 1, [])], {}, gone)
        self.assertIn("model.validate_graph.calls_per_op", missing)
        self.assertNotIn("model.validate_graph.calls_per_op", metrics)
        self.assertIn("ingest.parse_document.self_ms", metrics)


class SpeedTest(unittest.TestCase):
    def test_scale_is_proportional_to_time_and_speed(self):
        sampler = speed.Sampler(ref_ms=2.0, min_probes=1)
        sampler.starts, sampler.durations = [0.0, 1.0], [0.002, 0.004]
        self.assertAlmostEqual(sampler.scale(0.2, -1.0, 0.5), 0.2)  # probe at 0 only
        self.assertAlmostEqual(sampler.scale(0.2, 0.5, 2.0), 0.1)  # probe at 1 only
        self.assertAlmostEqual(sampler.scale(0.3, -1.0, 2.0), 0.2)

    def test_busy_time_leaves_out_the_probes(self):
        sampler = speed.Sampler()
        sampler.probe()
        start = perf_counter()
        for _ in range(3):
            sampler.probe()
        end = perf_counter()
        self.assertAlmostEqual(sampler.busy(start, end),
                               end - start - sum(sampler.durations[1:]))

    def test_probes_run_the_given_task(self):
        calls = []
        sampler = speed.Sampler(lambda: calls.append(1), ref_ms=65.0)
        sampler.probe()
        self.assertEqual((calls, len(sampler.durations)), ([1], 1))

    def test_reference_widens_to_the_nearest_probes(self):
        sampler = speed.Sampler(min_probes=2)
        sampler.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
        sampler.durations = [4.0, 1.0, 1.0, 2.0, 5.0]
        self.assertEqual(sampler.reference(2.4, 2.5), 1.5)  # probes at 2 and 3
        self.assertEqual(sampler.reference(9.0, 11.0), 3.5)  # at 10, then at 3
        self.assertEqual(sampler.reference(-1.0, 12.0), 13.0 / 5)

    def test_timer_probes_inside_a_block_and_then_stops(self):
        sampler = speed.Sampler()
        handler = signal.getsignal(signal.SIGALRM)
        with sampler.timer():
            end = perf_counter() + 10 * speed.PERIOD_S
            while perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.durations), 3)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)


if __name__ == "__main__":
    unittest.main()
