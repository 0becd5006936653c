"""Seeded end-to-end benchmark for pipevis.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each exists):

* ``cli_samples`` -- ``python -m pipevis.cli`` subprocesses, one at a time,
  over the golden samples and small seeded documents;
* ``score_large`` -- in-process scoring of one 20,000-leaf document;
* ``review_deep`` -- in-process review of deep documents, one in ten invalid.

Each is a single-process closed loop: the next operation starts when the
previous one has finished. Operations run in whole cycles over the run's
input pool until ``--seconds`` have passed. Every output is checked
against :mod:`oracle`; a wrong output, wrong exit code or unexpected
exception counts as a failed operation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics, taken from
spans (see :mod:`tracing`) around the calls this file makes into pipevis.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
pipevis sources and samples next to this directory the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from decimal import Decimal
from pathlib import Path
from time import perf_counter

import generate
import oracle
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLES = ROOT / "samples"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
#: Set-up repeats: at least SETUPS, and more until SETUP_SECONDS have passed,
#: so that quick set-ups get as steady a median as slow ones.
SETUPS = 5
SETUP_SECONDS = 2.0
CLI_TIMEOUT_S = 60
#: Nominal time of the ``cli_samples`` reference task, a bare interpreter
#: start, in milliseconds: its median on a 2-vCPU Xeon 2.1 GHz VM under
#: Python 3.11.7. It only sets the scale.
INTERPRETER_MS = 65.0


@dataclasses.dataclass
class Op:
    seconds: float
    leaves: int
    failures: list[str]
    traced: bool = False
    in_bytes: int = 0
    out_bytes: int = 0
    json_ms: float = 0.0
    interpreter_ms: float = 0.0
    #: ``perf_counter`` at the start and end of the operation; ``seconds`` is
    #: the time between them not spent in reference probes (see :mod:`speed`).
    start: float = 0.0
    end: float = 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


class InProcess:
    """Shared set-up and per-layer accounting of the in-process workloads."""

    API: tuple[str, ...] = ()
    #: Probe the reference speed from a timer inside the operations.
    TIMER = True

    def __init__(self) -> None:
        self.pv = None
        self.sampler = speed.Sampler()
        self.warm_ops: list[Op] = []
        self.child_summary: dict = {}

    def setup(self) -> Op:
        """Import pipevis afresh and run one operation; time both as one Op."""
        for name in [m for m in sys.modules if m == "pipevis" or m.startswith("pipevis.")]:
            del sys.modules[name]
        self.pv = None
        gc.collect()  # free the previous copy, so repeated set-ups do not raise peak RSS
        start = perf_counter()
        self.pv = importlib.import_module("pipevis")
        imported = self.sampler.busy(start, perf_counter())
        if not Path(self.pv.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"pipevis imported from {self.pv.__file__}, not {SRC}")
        op = self.timed(None, self.warm_item())
        self.warm_ops.append(op)
        return Op(imported + op.seconds, 0, [], start=start, end=op.end)

    def api(self, tracer: tracing.Tracer | None):
        fns = {name: getattr(self.pv, name) for name in self.API}
        if tracer is not None:
            fns = {
                name: tracer.wrap(fn, f"{fn.__module__.rpartition('.')[2]}.{name}")
                for name, fn in fns.items()
            }
        return types.SimpleNamespace(**fns)

    def preflight(self) -> list[Op]:
        """pipevis must reproduce the golden overalls."""
        ops = []
        for name, data in read_samples().items():
            failures = []
            report = self.pv.overall_visibility(self.pv.parse_document(data))
            golden = oracle.GOLDEN_OVERALL[name]
            if not oracle.close(report.overall, Decimal(golden)):
                failures.append(f"{name}: overall {report.overall!r}, golden {golden!r}")
            ops.append(Op(0.0, report.leaf_count, failures))
        return ops

    def cycle(self, tracer: tracing.Tracer | None) -> list[Op]:
        if tracer is None:
            return [self.timed(None, item) for item in self.items()]
        with tracer:
            tracer.patch(tracing.INNER_TARGETS)
            return [self.timed(tracer, item) for item in self.items()]

    def timed(self, tracer: tracing.Tracer | None, item) -> Op:
        api = self.api(tracer)
        prepared = self.prepare(item)
        span = tracer.open("bench.op") if tracer is not None else None
        start = perf_counter()
        try:
            result = self.operate(api, item, prepared)
        except Exception:  # a crash is a failed operation, not a crashed run
            result = None
            error = traceback.format_exc(limit=3)
        end = perf_counter()
        if span is not None:
            tracer.close(span)
        op = Op(self.sampler.busy(start, end), item.leaves, [], traced=tracer is not None,
                in_bytes=len(item.data), start=start, end=end)
        if result is None:
            op.failures.append(f"unexpected exception: {error}")
        else:
            self.check(op, item, result)
        if tracer is not None:
            start = perf_counter()
            json.loads(item.data)
            op.json_ms = (perf_counter() - start) * 1e3
        return op

    def prepare(self, item):
        return None

    def warm_item(self):
        return self.items()[0]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def cli_layer(self, traced: list[Op], summary: dict) -> dict[str, float]:
        return {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.invoke_ms": 0.0}


class ScoreLarge(InProcess):
    """Parse, score and render one 20,000-leaf wide document."""

    API = ("parse_document", "overall_visibility", "render_machine", "render_table")

    def __init__(self, seed: int):
        super().__init__()
        self.doc = generate.large_document(seed)
        self.expect = oracle.Expect(self.doc.document)

    def items(self):
        return [self.doc]

    def operate(self, api, doc, prepared):
        assessment = api.parse_document(doc.data)
        report = api.overall_visibility(assessment)
        machine = api.render_machine(report, assessment).body
        table = api.render_table(report, assessment.judgements).body
        return machine, table

    def check(self, op: Op, doc, result) -> None:
        machine, table = result
        op.out_bytes = len(machine.encode()) + len(table.encode())
        op.failures += oracle.check_machine(machine, self.expect)
        op.failures += oracle.check_table(table, self.expect)

    def shape(self) -> dict:
        return dict(self.doc.stats)


class ReviewDeep(InProcess):
    """What-if review of deep documents; the invalid ones must be rejected."""

    API = ("parse_document", "sensitivity", "derived_asset_visibility",
           "serialize_document", "render_sensitivity")

    def __init__(self, seed: int):
        super().__init__()
        self.pool = generate.review_pool(seed)
        self.expects = {id(doc): oracle.Expect(doc.document) for doc in self.pool}
        self.graph_checks = [0, 0]  # valid traced ops, of which validate_graph ran 6 + D times

    def items(self):
        return self.pool

    def warm_item(self):
        """The valid document of median cost: leaves times validations."""
        docs = [d for d in self.pool if not d.violations] or self.pool
        docs = sorted(docs, key=lambda d: (d.leaves * (6 + len(d.derived)), d.data))
        return docs[len(docs) // 2]

    def prepare(self, doc):
        model = self.pv.model
        changes = [(nid, model.Judgement(q, a, f)) for nid, (q, a, f) in doc.changes]
        weights = (model.WeightScheme.equal() if doc.new_weights is None
                   else model.WeightScheme.explicit(doc.new_weights))
        return changes, weights

    def operate(self, api, doc, prepared):
        changes, weights = prepared
        try:
            assessment = api.parse_document(doc.data)
        except self.pv.DocumentError as exc:
            return exc
        result = api.sensitivity(assessment, changes, weights=weights)
        scoped = [api.derived_asset_visibility(assessment, nid) for nid in doc.derived]
        modified = dataclasses.replace(
            assessment, judgements={**assessment.judgements, **dict(changes)},
            weights=weights,
        )
        data = api.serialize_document(modified)
        text = api.render_sensitivity(result).body
        return result, scoped, data, text

    def timed(self, tracer, doc) -> Op:
        before = tracer.totals.get("model.validate_graph", [0])[0] if tracer else 0
        op = super().timed(tracer, doc)
        if tracer is not None and not doc.violations:
            calls = tracer.totals.get("model.validate_graph", [0])[0] - before
            self.graph_checks[0] += 1
            self.graph_checks[1] += calls == 6 + len(doc.derived)
        return op

    def check(self, op: Op, doc, result) -> None:
        if isinstance(result, self.pv.DocumentError):
            if not doc.violations:
                op.failures.append(f"valid document rejected: {result.violations}")
            elif not isinstance(result, self.pv.SemanticViolationError):
                op.failures.append(f"rejected as {type(result).__name__}")
            elif tuple(result.violations) != doc.violations:
                op.failures.append(f"violations {result.violations}, expected {doc.violations}")
            return
        if doc.violations:
            op.failures.append(f"invalid document accepted, expected {doc.violations}")
            return
        sens, scoped, data, text = result
        expect = self.expects[id(doc)]
        op.out_bytes = len(text.encode())
        values = oracle.whatif_values(expect, doc.changes, doc.new_weights)
        actuals = (sens.baseline.overall, sens.modified.overall, sens.overall_delta)
        for (label, expected), actual in zip(values, actuals):
            if not oracle.close(actual, expected):
                op.failures.append(f"{label} {actual!r}, expected {expected:.15f}")
        for nid, report in zip(doc.derived, scoped):
            if (report.leaf_count != len(expect.scope(nid))
                    or not oracle.close(report.overall, expect.overall(nid))):
                op.failures.append(f"derived {nid}: {report.overall!r}")
        judgements = dict(expect.judgements)
        judgements.update(doc.changes)
        op.failures += oracle.check_serialized(data, doc.document, judgements, doc.new_weights)
        op.failures += oracle.check_trend(text, values, expect.precision)

    def shape(self) -> dict:
        stats = [doc.stats for doc in self.pool]
        return {
            "documents": len(stats),
            "invalid": sum(1 for doc in self.pool if doc.violations),
            "leaves": sum(s["leaves"] for s in stats),
            "leaves_min": min(s["leaves"] for s in stats),
            "leaves_max": max(s["leaves"] for s in stats),
            "derived": sum(s["derived"] for s in stats),
            "max_depth": max(s["max_depth"] for s in stats),
            "bytes": sum(s["bytes"] for s in stats),
        }


@dataclasses.dataclass
class Input:
    path: Path
    data: bytes
    expect: oracle.Expect


@dataclasses.dataclass
class Invocation:
    args: list[str]
    inputs: list[Input]
    check: object  # (stdout, stderr, returncode) -> list of failures

    @property
    def leaves(self) -> int:
        return sum(len(i.expect.leaves) for i in self.inputs)


class CliSamples:
    """``python -m pipevis.cli`` subprocesses, one at a time.

    The reference speed is probed after each subprocess, not from a timer: a
    probe in this process would run beside the child, not in its place. The
    reference task is a bare interpreter start (:meth:`bare_interpreter`),
    work of the same kind as most of an invocation; pipevis' own share of an
    invocation (its imports and commands) is not part of it.
    """

    TIMER = False

    def __init__(self, seed: int, workdir: Path):
        valid, broken = generate.cli_pool(seed)
        self.shape_docs = valid + broken
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

        def write(name: str, doc: generate.Doc) -> Input:
            path = workdir / f"{name}.json"
            path.write_bytes(doc.data)
            return Input(path, doc.data, oracle.Expect(doc.document))

        golden = [Input(SAMPLES / name, data, oracle.Expect(json.loads(data)))
                  for name, data in read_samples().items()]
        seeded = [write(f"valid-{k}", doc) for k, doc in enumerate(valid)]
        bad = [write(f"broken-{k}", doc) for k, doc in enumerate(broken)]
        n = len(seeded)
        self.rotation: list[Invocation] = []
        for k in range(n):
            sample, node, whatif = golden[k % len(golden)], seeded[(k + 1) % n], seeded[(k + 3) % n]
            changes = valid[(k + 3) % n].changes
            compared = [sample, golden[(k + 1) % len(golden)], seeded[k], seeded[(k + 2) % n]]
            sets = [f"--set={nid}:{q},{a},{f}" for nid, (q, a, f) in changes]
            self.rotation += [
                Invocation(["score"], [seeded[k]], _ok(oracle.check_table, seeded[k].expect)),
                Invocation(["score", "--format", "machine"], [sample],
                           _ok(_check_golden, sample.expect, sample.path.name)),
                Invocation(["score", "--node", "LD"], [node],
                           _ok(oracle.check_table, node.expect, "LD")),
                Invocation(["compare"], compared,
                           _ok(oracle.check_compare, [i.expect for i in compared])),
                Invocation(["whatif", *sets], [whatif],
                           _ok(_check_whatif, whatif.expect, changes)),
                Invocation(["rubric"], [], _ok(oracle.check_rubric)),
                Invocation(["validate"], [bad[k]], _rejected(broken[k].violations)),
            ]
        self.sampler = speed.Sampler(self.bare_interpreter, INTERPRETER_MS, min_probes=4)
        self.warm_ops: list[Op] = []
        self.child_summary: dict = {}

    def bare_interpreter(self) -> None:
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env,
                       capture_output=True, timeout=CLI_TIMEOUT_S, check=True)

    def setup(self) -> Op:
        self.sampler.probe()
        op = self.invoke(self.rotation[0], None)
        self.warm_ops.append(op)
        return op

    def preflight(self) -> list[Op]:
        return []  # the rotation scores every golden sample

    def cycle(self, tracer: tracing.Tracer | None) -> list[Op]:
        return [self.invoke(inv, tracer) for inv in self.rotation]

    def invoke(self, inv: Invocation, tracer) -> Op:
        traced = tracer is not None
        read_fd = write_fd = None
        if traced:
            read_fd, write_fd = os.pipe()
            cmd = [sys.executable, str(CHILD), str(write_fd)]
        else:
            cmd = [sys.executable, "-m", "pipevis.cli"]
        cmd += inv.args + [str(i.path) for i in inv.inputs]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
                pass_fds=(write_fd,) if traced else (),
            )
        except subprocess.TimeoutExpired:
            proc = None
        finally:
            end = perf_counter()
            if traced:
                os.close(write_fd)
        self.sampler.probe()
        op = Op(end - start, inv.leaves, [], traced=traced,
                in_bytes=sum(len(i.data) for i in inv.inputs), start=start, end=end)
        if proc is None:
            op.failures.append(f"timed out after {CLI_TIMEOUT_S} s: {inv.args}")
        else:
            op.out_bytes = len(proc.stdout)
            try:
                op.failures += inv.check(proc.stdout.decode(), proc.stderr.decode(),
                                         proc.returncode)
            except Exception:  # malformed output is a failed operation
                op.failures.append(f"unreadable output: {traceback.format_exc(limit=2)}")
        if traced:
            with os.fdopen(read_fd) as pipe:
                report = json.loads(pipe.read() or "{}")
            summary = report.get("summary", {})
            for name in report.get("missing", ()):
                if name not in tracer.missing:
                    tracer.missing.append(name)
            tracing.merge(self.child_summary, summary)
            op.interpreter_ms = op.seconds * 1e3 - sum(
                summary.get(name, {}).get("total_ms", 0.0) for name in ("cli.import", "cli.main")
            )
            for i in inv.inputs:
                start = perf_counter()
                json.loads(i.data)
                op.json_ms += (perf_counter() - start) * 1e3
        return op

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def cli_layer(self, traced: list[Op], summary: dict) -> dict[str, float]:
        n = len(traced)
        return {
            "cli.interpreter_ms": sum(op.interpreter_ms for op in traced) / n,
            "cli.import_ms": summary.get("cli.import", {}).get("total_ms", 0.0) / n,
            "cli.invoke_ms": summary.get("cli.main", {}).get("self_ms", 0.0) / n,
        }

    def shape(self) -> dict:
        stats = [doc.stats for doc in self.shape_docs]
        return {
            "documents": len(stats) + len(oracle.GOLDEN_OVERALL),
            "invocations_per_cycle": len(self.rotation),
            "leaves_max": max(s["leaves"] for s in stats),
            "derived": sum(s["derived"] for s in stats),
            "max_depth": max(s["max_depth"] for s in stats),
            "bytes": sum(s["bytes"] for s in stats),
        }


def _ok(check, *args):
    """A CLI check for a successful run: exit 0, nothing on stderr."""

    def run(stdout: str, stderr: str, code: int) -> list[str]:
        if code != 0 or stderr:
            return [f"exit {code}, stderr {stderr[:200]!r}"]
        return check(stdout, *args)

    return run


def _rejected(violations: tuple[str, ...]):
    def run(stdout: str, stderr: str, code: int) -> list[str]:
        expected = "".join(f"violation: {v}\n" for v in violations)
        if code != 1 or stdout or stderr != expected:
            return [f"validate: exit {code}, stderr {stderr[:200]!r}, expected {expected!r}"]
        return []

    return run


def _check_golden(stdout: str, expect: oracle.Expect, name: str) -> list[str]:
    failures = oracle.check_machine(stdout, expect)
    overall = json.loads(stdout)["results"]["overall_visibility"]
    if not oracle.close(overall, Decimal(oracle.GOLDEN_OVERALL[name])):
        failures.append(f"{name}: machine overall {overall!r}, golden {oracle.GOLDEN_OVERALL[name]!r}")
    return failures


def _check_whatif(stdout: str, expect: oracle.Expect, changes) -> list[str]:
    return oracle.check_trend(stdout, oracle.whatif_values(expect, changes), expect.precision)


def read_samples() -> dict[str, bytes]:
    return {name: (SAMPLES / name).read_bytes() for name in oracle.GOLDEN_OVERALL}


#: Per-layer metrics: name -> (unit, span it is read from or None).
PER_LAYER = {
    "cli.interpreter_ms": ("ms", None),
    "cli.import_ms": ("ms", None),
    "cli.invoke_ms": ("ms", None),
    "ingest.parse_document.self_ms": ("ms", "ingest.parse_document"),
    "ingest.json_baseline_ms": ("ms", None),
    "ingest.serialize_document.self_ms": ("ms", "ingest.serialize_document"),
    "ingest.document_dict.self_ms": ("ms", "ingest.document_dict"),
    "gc.pause_ms": ("ms", None),
    "gc.collections": ("count", None),
    "model.validate_graph.calls_per_op": ("count", "model.validate_graph"),
    "model.validate_graph.ms": ("ms", "model.validate_graph"),
    "model.validate_assessment.self_ms": ("ms", "model.validate_assessment"),
    "metrics.overall_visibility.self_ms": ("ms", "metrics.overall_visibility"),
    "metrics.derived_asset_visibility.self_ms": ("ms", "metrics.derived_asset_visibility"),
    "metrics.sensitivity.self_ms": ("ms", "metrics.sensitivity"),
    "report.render_machine.self_ms": ("ms", "report.render_machine"),
    "report.render_table.self_ms": ("ms", "report.render_table"),
    "report.render_sensitivity.self_ms": ("ms", "report.render_sensitivity"),
    "ingest.input_bytes": ("bytes", None),
    "report.output_bytes": ("bytes", None),
    "trace.overhead_ratio": ("ratio", None),
}


def per_layer(workload, ops: list[Op], summary: dict, missing_spans: set[str]):
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    n = len(traced)

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0) / n

    values = workload.cli_layer(traced, summary)
    values.update({
        "ingest.json_baseline_ms": sum(op.json_ms for op in traced) / n,
        "gc.pause_ms": sum(s["gc_ms"] for s in summary.values()) / n,
        "gc.collections": sum(s["gc_collections"] for s in summary.values()) / n,
        "model.validate_graph.calls_per_op": span("model.validate_graph", "calls"),
        "model.validate_graph.ms": span("model.validate_graph", "total_ms"),
        "ingest.input_bytes": sum(op.in_bytes for op in traced) / n,
        "report.output_bytes": sum(op.out_bytes for op in traced) / n,
        "trace.overhead_ratio": _median([op.seconds for op in traced])
        / _median([op.seconds for op in untraced]),
    })
    for name, (_, source) in PER_LAYER.items():
        if name.endswith(".self_ms"):
            values[name] = span(source, "self_ms")
    metrics, missing = {}, []
    for name, (unit, source) in PER_LAYER.items():
        if source in missing_spans:
            missing.append(name)
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, missing


def latency(times_ms: list[float], setups_s: list[float], leaves: int) -> dict[str, float]:
    """Set-up median, operation p50 and p90, and leaves per second of op time."""
    deciles = statistics.quantiles(times_ms, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups_s),
        "op_p50_ms": statistics.median(times_ms),
        "op_p90_ms": deciles[8],
        "leaves_per_s": leaves / sum(times_ms) * 1e3,
    }


def end_to_end(workload, ops: list[Op], setups: list[Op]) -> dict:
    """End-to-end metrics at reference speed."""
    leaves = sum(op.leaves for op in ops)
    wall = latency([op.seconds * 1e3 for op in ops], [op.seconds for op in setups], leaves)
    sampler = workload.sampler
    ref_ms = statistics.median(sampler.durations) * 1e3
    print(f"wall clock (not reference speed; {len(sampler.durations)} reference probes, "
          f"median {ref_ms:.4g} ms, nominal {sampler.ref_ms} ms): "
          + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))

    def scaled(op: Op) -> float:
        return sampler.scale(op.seconds, op.start, op.end)

    values = latency([scaled(op) * 1e3 for op in ops], [scaled(op) for op in setups], leaves)
    units = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "leaves_per_s": "leaves/s"}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "unit": "MB"}
    return metrics


def missing_spans(tracer: tracing.Tracer, targets) -> set[str]:
    """Spans that no installed target produced because their names are gone."""
    gone = {span for module, attr, span in targets if f"{module}.{attr}" in tracer.missing}
    kept = {span for module, attr, span in targets if f"{module}.{attr}" not in tracer.missing}
    return gone - kept - tracer.available


def run(args, workdir: Path) -> dict:
    workloads = {
        "cli_samples": lambda: CliSamples(args.seed, workdir),
        "score_large": lambda: ScoreLarge(args.seed),
        "review_deep": lambda: ReviewDeep(args.seed),
    }
    samples = {name: json.loads(data) for name, data in read_samples().items()}
    broken_oracle = oracle.check_golden_oracle(samples)
    if broken_oracle:
        raise SystemExit("bench: oracle disagrees with the golden samples: "
                         + "; ".join(broken_oracle))
    workload = workloads[args.workload]()
    # Traced runs time spans, so no probe may interrupt them.
    probing = workload.TIMER and not args.trace
    with workload.sampler.timer() if probing else contextlib.nullcontext():
        setups: list[Op] = []
        start = perf_counter()
        while len(setups) < SETUPS or perf_counter() - start < SETUP_SECONDS:
            setups.append(workload.setup())
        ops: list[Op] = list(workload.warm_ops) + workload.preflight()
        warm = len(ops)
        tracer = tracing.Tracer()
        cycles = 0
        start = perf_counter()
        while perf_counter() - start < args.seconds or (args.trace and cycles < 2):
            traced = args.trace and cycles % 2 == 1
            gc.collect()
            workload.sampler.probe()
            ops += workload.cycle(tracer if traced else None)
            cycles += 1
        wall = perf_counter() - start
    measured = ops[warm:]
    failed = sum(1 for op in ops if op.failures)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps({
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }))
    print("shape " + json.dumps(workload.shape()))
    print(f"ops {len(measured)} in {cycles} cycles over {wall:.1f} s; "
          f"failed {failed} of {len(ops)} (op_fail_ratio {failed / len(ops):.4f}); "
          f"{len(setups)} setups {min(op.seconds for op in setups):.4f}-"
          f"{max(op.seconds for op in setups):.4f} s wall")
    for failure in [f for op in ops for f in op.failures][:10]:
        print(f"FAIL {failure}", file=sys.stderr)

    if args.trace:
        summary = tracer.summary()
        tracing.merge(summary, workload.child_summary)
        targets = tracing.INNER_TARGETS + (
            tracing.CLI_TARGETS if args.workload == "cli_samples" else ())
        metrics, missing = per_layer(workload, measured, summary,
                                     missing_spans(tracer, targets))
        for name in missing:
            print(f"missing {name}: its traced name is gone ({', '.join(tracer.missing)})")
        n = sum(1 for op in measured if op.traced)
        print(f"spans over {n} traced ops (per op): name calls total_ms self_ms gc_ms")
        for name, fig in sorted(summary.items()):
            print(f"  {name} {fig['calls'] / n:.2f} {fig['total_ms'] / n:.3f} "
                  f"{fig['self_ms'] / n:.3f} {fig['gc_ms'] / n:.3f}")
        if isinstance(workload, ReviewDeep):
            total, exact = workload.graph_checks
            print(f"validate_graph ran 6 + derived times on {exact} of {total} valid traced ops")
    else:
        metrics = end_to_end(workload, measured, setups)
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_samples", "score_large", "review_deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    absent = [p for p in (SRC / "pipevis" / "__init__.py", SAMPLES) if not p.exists()]
    if absent:
        print(f"bench: pipevis checkout not found: missing {', '.join(map(str, absent))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        result = run(args, Path(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
